"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the optimized code paths: Bruhat
membership via subwords, search without bitsets or symmetry breaking,
Kazhdan-Lusztig polynomials via an exact linear solve and via the plain
lazy R-sum on IntPoly, quantum
factorizations by trial division and by trying every multiset of factors,
Bott's product formula by long division of one polynomial by another, and
JSON text by the standard library's own encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from bruhat_cubulator.bruhat import BruhatInterval, interval, poincare_polynomial
from bruhat_cubulator.coxeter import CoxeterSystem, Element
from bruhat_cubulator.cube import CubicalLattice
from bruhat_cubulator.kl import r_polynomial
from bruhat_cubulator.growth import _affine_exponents, poincare_truncation
from bruhat_cubulator.polynomials import ONE, IntPoly, quantum_poly
from bruhat_cubulator.serialize import Table


def subword_interval(y: Element) -> set[Element]:
    """All x <= y via the subword characterization on one reduced word."""
    word = y.word
    sys = y.system
    out = set()
    for k in range(len(word) + 1):
        for picks in combinations(range(len(word)), k):
            out.add(sys.element(word[i] for i in picks))
    return out


def bruhat_leq_subword(x: Element, y: Element) -> bool:
    return x in subword_interval(y)


def naive_cubulate_status(y: Element) -> str:
    return naive_cubulate(y)[0]


def naive_cubulate(y: Element) -> tuple[str, dict | None]:
    """Found/Exhausted by plain recursive backtracking, no pruning tricks.

    Checks edges with group-level primitives (length increase plus a
    reflection test on u^-1 v) and tries candidates in enumeration order
    with no symmetry breaking and no bitsets.  So the first assignment
    found is the lexicographically least one in lattice-vertex order; it
    is returned as a map from lattice vertex to interval vertex id.
    """
    sys = y.system
    iv = interval(y)
    elements = list(iv.vertices)
    p = poincare_polynomial(iv)
    n = len(sys.support(y))
    shapes = sorted(s for s in trial_division_factorizations(p) if len(s) == n)
    for shape in shapes:
        lattice = CubicalLattice(tuple(a - 1 for a in shape) or (0,))
        verts = lattice.vertices()
        assignment: dict = {}
        used: set[Element] = set()
        edge_memo: dict = {}

        def is_edge(u: Element, v: Element) -> bool:
            if v.length <= u.length:
                return False
            if (u, v) not in edge_memo:
                edge_memo[u, v] = sys.is_reflection(u.inverse() * v)
            return edge_memo[u, v]

        def extend(pos: int) -> bool:
            if pos == len(verts):
                return True
            v = verts[pos]
            for el in elements:
                if el.length != sum(v) or el in used:
                    continue
                if not all(is_edge(assignment[u], el) for u in lattice.predecessors(v)):
                    continue
                assignment[v] = el
                used.add(el)
                if extend(pos + 1):
                    return True
                used.remove(el)
                del assignment[v]
            return False

        if extend(0):
            ids = {el.key: i for i, el in enumerate(iv.vertices)}
            return "Found", {v: ids[el.key] for v, el in assignment.items()}
    return "Exhausted", None


def trial_division_factorizations(p: IntPoly) -> set[tuple[int, ...]]:
    """All multisets (a_1 <= ... <= a_N), a_i >= 2, with p = prod quantum_poly(a_i).

    Returns the empty set when no factorization exists, and {()} exactly
    when p == 1.  Recursive trial division with a lower bound keeps the
    shapes weakly increasing and deduplicated.  Exponential on some inputs
    that do not factor; keep them small.
    """
    if p.is_zero() or p(0) != 1:
        raise ValueError("input must be nonzero with constant term 1")
    out: set[tuple[int, ...]] = set()

    def rec(rem: IntPoly, lo: int, acc: tuple[int, ...]):
        if rem == ONE:
            out.add(acc)
            return
        for a in range(lo, rem.degree + 2):
            q, r = divmod(rem, quantum_poly(a))
            if r.is_zero():
                rec(q, a, acc + (a,))

    rec(p, 2, ())
    return out


def brute_force_shapes_by_order(system: CoxeterSystem, order: int) -> dict[int, tuple]:
    """``GrowthProbeReport.shapes_by_order`` by trying every multiset of factors.

    For each order j, every multiset of at most |S| entries from 1..j whose
    product of (1 - z^a) agrees with (1 - z)^|S| W(z) through order j.
    """
    n = system.rank
    f = IntPoly(poincare_truncation(system, order))
    for _ in range(n):
        f = f * IntPoly((1, -1))
    f_coeffs = f.coeffs + (0,) * (order + 1)
    shapes_by_order: dict[int, tuple] = {}
    for j in range(1, order + 1):
        target = f_coeffs[: j + 1]
        found = []
        for count in range(n + 1):
            for combo in combinations_with_replacement(range(1, j + 1), count):
                prod = ONE
                for a in combo:
                    prod = prod * IntPoly((1,) + (0,) * (a - 1) + (-1,))
                pc = prod.coeffs + (0,) * (j + 1 - len(prod.coeffs))
                if pc[: j + 1] == target:
                    found.append(combo)
        shapes_by_order[j] = tuple(sorted(found))
    return shapes_by_order


def bott_by_long_division(system: CoxeterSystem, order: int) -> tuple[int, ...]:
    """Bott's product formula as one quotient, expanded by exact long division.

    The numerator prod (1 - z^(e+1)) and the denominator prod (1 - z)(1 - z^e)
    are multiplied out as polynomials first; each coefficient of the quotient
    is then solved for over the rationals and must come out an integer.
    """

    def one_minus_z_pow(a):
        return IntPoly((1,) + (0,) * (a - 1) + (-1,))

    numer = denom = ONE
    for e in _affine_exponents(system):
        numer = numer * one_minus_z_pow(e + 1)
        denom = denom * one_minus_z_pow(1) * one_minus_z_pow(e)
    out: list[Fraction] = []
    for j in range(order + 1):
        acc = Fraction(numer.coeffs[j] if j < len(numer.coeffs) else 0)
        for i in range(max(0, j - denom.degree), j):
            acc -= out[i] * denom.coeffs[j - i]
        out.append(acc / denom.coeffs[0])
    if any(c.denominator != 1 for c in out):
        raise ValueError("series has non-integer coefficients")
    return tuple(int(c) for c in out)


class RSumKLTable:
    """R and P over an interval by the plain R-sum, lazily and on IntPoly.

    R follows the left-descent recursion pair by pair.  P_{x,y'} is the high
    half of the sum of R_{x,w} P_{w,y'} over every w <= y' that passes
    ``leq_ids(x, w)``, each P_{w,y'} recovered the same way on demand, and
    must satisfy q^d P(1/q) - P(q) = that sum.
    """

    def __init__(self, iv: BruhatInterval):
        self.interval = iv
        # ids by key, read off the vertices, so the oracle does not use ``action``
        self._ids = {el.key: i for i, el in enumerate(iv.vertices)}
        self._p: dict[tuple[int, int], IntPoly] = {}
        self._r: dict[tuple[int, int], IntPoly] = {}

    def R(self, x_id: int, y_id: int) -> IntPoly:
        if x_id == y_id:
            return ONE
        iv = self.interval
        if not iv.leq_ids(x_id, y_id):
            return IntPoly()
        key = (x_id, y_id)
        if key not in self._r:
            s, sy = iv.letter[y_id], iv.below[y_id]
            sx = self._ids[iv.system._left(s, iv.vertices[x_id].key)]
            if iv.lengths[sx] < iv.lengths[x_id]:
                self._r[key] = self.R(sx, sy)
            else:
                self._r[key] = IntPoly((0, 1)) * self.R(sx, sy) + IntPoly((-1, 1)) * self.R(x_id, sy)
        return self._r[key]

    def P(self, x_id: int, y_id: int) -> IntPoly:
        if x_id == y_id:
            return ONE
        iv = self.interval
        if not iv.leq_ids(x_id, y_id):
            return IntPoly()
        key = (x_id, y_id)
        if key not in self._p:
            total = IntPoly()
            mask = iv.below_masks[y_id] & ~(1 << x_id)
            while mask:
                w_id = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if iv.leq_ids(x_id, w_id):
                    total = total + self.R(x_id, w_id) * self.P(w_id, y_id)
            d = iv.lengths[y_id] - iv.lengths[x_id]
            c = total.coeffs + (0,) * (d + 1 - len(total.coeffs))
            p = IntPoly(c[d - i] for i in range((d - 1) // 2 + 1))
            mirror = [0] * (d + 1)
            for i, a in enumerate(p.coeffs):
                mirror[d - i] = a
            if IntPoly(mirror) - p != total:
                raise ValueError(f"defining identity fails at ids ({x_id},{y_id})")
            self._p[key] = p
        return self._p[key]


def kl_by_linear_solve(iv: BruhatInterval) -> list[IntPoly]:
    """P_{x,y} for y the interval top, via exact Gaussian elimination.

    For each x (descending), the unknown coefficients p_0..p_k of P_{x,y}
    (degree bound k = (d-1)//2, d = l(y)-l(x)) satisfy, coefficient by
    coefficient, q^d P(1/q) - P(q) = sum over x < w <= y of R_{x,w} P_{w,y}.
    The resulting overdetermined integer system is solved over Fractions
    and must be consistent with a unique solution.
    """
    n = len(iv.vertices)
    top = n - 1
    p: dict[int, IntPoly] = {top: IntPoly((1,))}
    for x_id in range(n - 2, -1, -1):
        if not iv.leq_ids(x_id, top):
            continue
        x = iv.vertices[x_id]
        d = iv.lengths[top] - iv.lengths[x_id]
        rhs = IntPoly()
        for w_id in range(x_id + 1, n):
            if iv.leq_ids(x_id, w_id) and iv.leq_ids(w_id, top):
                rhs = rhs + r_polynomial(x, iv.vertices[w_id]) * p[w_id]
        k = (d - 1) // 2
        rows = []
        rhs_coeffs = rhs.coeffs + (0,) * (d + 1 - len(rhs.coeffs))
        for j in range(d + 1):
            # coefficient of q^j in q^d P(1/q) - P(q), as a row over p_i
            row = [0] * (k + 1)
            for i in range(k + 1):
                if d - i == j:
                    row[i] += 1
                if i == j:
                    row[i] -= 1
            rows.append((row, rhs_coeffs[j]))
        sol = _solve_exact(rows, k + 1)
        p[x_id] = IntPoly(sol)
    return [p.get(i, IntPoly()) for i in range(n)]


def _solve_exact(rows, width):
    """Solve an overdetermined linear system exactly; raise if inconsistent."""
    mat = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != width:
        raise ValueError("underdetermined system")
    for i in range(r, len(mat)):
        if mat[i][width] != 0:
            raise ValueError("inconsistent system")
    sol = [0] * width
    for i, c in enumerate(pivots):
        v = mat[i][width]
        if v.denominator != 1:
            raise ValueError("non-integer solution")
        sol[c] = int(v)
    return sol


def word_matrix(system: CoxeterSystem, iword: tuple) -> tuple:
    """Matrix (tuple of columns) of the element with an index word.

    Built by applying the word's simple reflections to each simple root,
    never from the root-id keys the package uses.
    """
    cols = []
    for v in system._alpha:
        for s in reversed(iword):
            v = system._apply(s, v)
        cols.append(v)
    return tuple(cols)


def matrix_product(system: CoxeterSystem, a: tuple, b: tuple, products: dict) -> tuple:
    """Product of two matrices given as tuples of columns.

    ``products`` memoizes scalar products by their factors' coefficient
    tuples: the entries of a finite group's matrices take few values.
    """

    def times(x, y):
        key = (getattr(x, "coeffs", x), getattr(y, "coeffs", y))
        if key not in products:
            products[key] = x * y
        return products[key]

    def times_vector(x):
        out = [system._zero] * system.rank
        for j, xj in enumerate(x):
            if xj:
                for i, c in enumerate(a[j]):
                    out[i] = out[i] + times(xj, c)
        return tuple(out)

    return tuple(times_vector(col) for col in b)


def multiplication_table(system: CoxeterSystem) -> dict:
    """Full multiplication table of a finite system from matrix products."""
    radius = system.longest_element().length
    elements = [el for layer in system.ball_layers(radius) for el in layer]
    matrix = {el: word_matrix(system, el.iword) for el in elements}
    by_matrix = {m: el for el, m in matrix.items()}
    table = {}
    products: dict = {}
    for a in elements:
        for b in elements:
            table[(a, b)] = by_matrix[matrix_product(system, matrix[a], matrix[b], products)]
    return table


def stdlib_dumps(doc) -> str:
    """The standard library's text of ``doc``, which ``serialize.dumps`` must equal;
    each ``serialize.Table`` in it stands for its rows."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_table_rows) + "\n"


def _table_rows(value) -> list:
    """The rows of a table, read off its keys and columns here, not by its own methods."""
    if not isinstance(value, Table):
        return json.JSONEncoder().default(value)  # the standard library's own error
    rows = zip(*value.columns)
    if value.keys is None:
        return [list(row) for row in rows]
    return [dict(zip(value.keys, row)) for row in rows]
