"""R-polynomials and Kazhdan-Lusztig polynomials over lower intervals.

R-polynomials follow the left-descent recursion on interval ids, on
demand, and are memoized per table.  P-polynomials are computed one column
P_{-,y} at a time, x in descending id order, from the defining identity

    q^(l(y)-l(x)) P_xy(1/q) - P_xy(q) = sum_{x < w <= y} R_xw P_wy

with the w read off the interval's bitsets, by reading the high half of
the right-hand sum (the degree bound keeps the two supports disjoint, and
holds by construction).  Every recovered polynomial is checked for a top
coefficient 1 at degree l(y)-l(x), against the whole identity exactly,
and for non-negative coefficients, and any violation raises, since it can
only mean an implementation bug.  The arithmetic runs on coefficient
tuples; IntPoly objects are made only for the caller.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .bruhat import BruhatInterval, interval, poincare_polynomial
from .coxeter import Element
from .polynomials import IntPoly, ONE, ZERO, is_palindromic

if TYPE_CHECKING:
    from fractions import Fraction


class KLConsistencyError(RuntimeError):
    """A computed table violates one of its defining identities."""


def r_polynomial(x: Element, y: Element) -> IntPoly:
    """The R-polynomial R_{x,y}; zero unless x <= y."""
    if not x.system.bruhat_leq(x, y):
        return ZERO
    iv = interval(y)
    return KLTable(iv).R(iv.index[x], len(iv) - 1)


class KLTable:
    """P- and R-polynomial lookup over one interval [1, y].

    Both are memoized as coefficient tuples; an IntPoly is made only where
    ``P``, ``R`` and ``top_column`` return.
    """

    def __init__(self, iv: BruhatInterval):
        self.interval = iv
        # R_{x,w} at _r[x][w] for x < w, and P_{x,y'} at _columns[y'][x]
        self._r: list[dict[int, tuple]] = [{} for _ in range(len(iv))]
        self._columns: dict[int, list] = {}
        self._above: list[int] | None = None

    def _check_ids(self, *ids: int):
        n = len(self.interval)
        for i in ids:
            if not 0 <= i < n:
                raise ValueError(f"vertex id {i} is not in the interval's ids 0..{n - 1}")

    def R(self, x_id: int, y_id: int) -> IntPoly:
        """The R-polynomial R_{x,y'} for interval vertices."""
        self._check_ids(x_id, y_id)
        if not self.interval.leq_ids(x_id, y_id):
            return ZERO
        return IntPoly(self._r_coeffs(x_id, y_id))

    def _r_coeffs(self, x_id: int, y_id: int) -> tuple:
        """R_{x,y'} for x <= y', by the left-descent recursion.

        With s the smallest left descent of y', R_{x,y'} = R_{sx,sy'} when
        s is a left descent of x, else q R_{sx,sy'} + (q-1) R_{x,sy'}.  For
        x <= y' both sx and sy' lie in [1, y'] (the lifting property), and
        s*y' is the build's ``below`` entry; sx <= sy' in the first case
        and x <= sy' in the second, again by lifting.
        """
        if x_id == y_id:
            return (1,)
        res = self._r[x_id].get(y_id)
        if res is None:
            iv = self.interval
            s, sy = iv.letter[y_id], iv.below[y_id]
            sx = iv.key_ids[iv.system._left(s, iv.vertices[x_id].key)]
            if iv.lengths[sx] < iv.lengths[x_id]:
                res = self._r_coeffs(sx, sy)
            else:
                b = self._r_coeffs(x_id, sy)
                out = [0, *b]
                if iv.below_masks[sy] >> sx & 1:
                    for i, c in enumerate(self._r_coeffs(sx, sy), 1):
                        out[i] += c
                for i, c in enumerate(b):
                    out[i] -= c
                res = tuple(out)
            self._r[x_id][y_id] = res
        return res

    def P(self, x_id: int, y_id: int) -> IntPoly:
        """The Kazhdan-Lusztig polynomial P_{x,y'} for interval vertices."""
        self._check_ids(x_id, y_id)
        if x_id == y_id:
            return ONE
        if not self.interval.leq_ids(x_id, y_id):
            return ZERO
        return IntPoly(self._column(y_id)[x_id])

    def _column(self, y_id: int) -> list:
        """P_{x,y'} for every x <= y' (None elsewhere), indexed by x.

        x runs down the ids, so every w in (x, y'] is done before x; the
        R-sum runs over those w only, read off the masks.
        """
        col = self._columns.get(y_id)
        if col is not None:
            return col
        iv = self.interval
        if self._above is None:
            # hasse edges are sorted by source, so one descending pass suffices
            above = [1 << i for i in range(len(iv))]
            for u, v in reversed(iv.hasse_edges):
                above[u] |= above[v]
            self._above = above
        above, lengths, r_rows = self._above, iv.lengths, self._r
        below = iv.below_masks[y_id]
        col = [None] * (y_id + 1)
        col[y_id] = (1,)
        # the ids done so far, grouped by their P_{w,y'}: the R_{x,w} of one
        # group are summed first and multiplied by their P once
        groups = {(1,): 1 << y_id}
        rest = below ^ (1 << y_id)
        while rest:
            x_id = rest.bit_length() - 1
            rest ^= 1 << x_id
            d = lengths[y_id] - lengths[x_id]
            total = [0] * (d + 1)
            row, up = r_rows[x_id], above[x_id]
            # R_{x,w} has l(w)-l(x)+1 coefficients and P_{w,y'} degree at
            # most (l(y')-l(w)-1)/2, so no term reaches past degree d
            for p, members in groups.items():
                ws = members & up
                if not ws:
                    continue
                acc = total if len(p) == 1 else [0] * (d + 1)
                while ws:
                    low = ws & -ws
                    w_id = low.bit_length() - 1
                    ws ^= low
                    for i, a in enumerate(row.get(w_id) or self._r_coeffs(x_id, w_id)):
                        acc[i] += a
                if acc is not total:
                    while acc and not acc[-1]:
                        acc.pop()
                    for j, b in enumerate(p):
                        if b:
                            for i, a in enumerate(acc, j):
                                total[i] += a * b
            p = col[x_id] = _recover(total, d, x_id, y_id)
            groups[p] = groups.get(p, 0) | 1 << x_id
        self._columns[y_id] = col
        return col

    def top_column(self) -> list[IntPoly]:
        """P_{x,y} for every x in the interval, with y the interval top."""
        return [IntPoly(p) for p in self._column(len(self.interval) - 1)]


def _recover(total: list, d: int, x_id: int, y_id: int) -> tuple:
    """P_{x,y'} from total = sum_{x < w <= y'} R_{x,w} P_{w,y'}, checked.

    The degree bound deg P <= (d-1)/2 keeps q^d P(1/q) and P(q) apart, so
    P is the high half of the sum read backwards; the whole identity is
    then checked, with P's non-negativity.
    """
    while total and not total[-1]:
        total.pop()
    if len(total) != d + 1 or total[d] != 1:
        raise KLConsistencyError(
            f"bad top coefficient recovering P at ids ({x_id},{y_id})"
        )
    p = [total[d - i] for i in range((d - 1) // 2 + 1)]
    while not p[-1]:
        p.pop()
    expected = [0] * (d + 1)
    for i, a in enumerate(p):
        expected[d - i] += a
        expected[i] -= a
    if expected != total:
        raise KLConsistencyError(
            f"defining identity fails at ids ({x_id},{y_id})"
        )
    if any(a < 0 for a in p):
        raise KLConsistencyError(f"negative coefficient in P at ({x_id},{y_id})")
    return tuple(p)


def kl_table(y: Element) -> KLTable:
    return KLTable(interval(y))


def kl_polynomial(x: Element, y: Element) -> IntPoly:
    if not x.system.bruhat_leq(x, y):
        return ZERO
    table = kl_table(y)
    x_id = table.interval.index[x]
    return table.P(x_id, len(table.interval.vertices) - 1)


def all_trivial(y: Element) -> bool:
    """True iff P_{x,y} = 1 for all x <= y.

    Tests palindromicity of the Poincare polynomial of [1, y], which is
    equivalent (Carrell-Peterson); ``carrell_peterson_report(y).all_trivial``
    computes the whole table instead.
    """
    return is_palindromic(poincare_polynomial(interval(y)))


class CPReport(NamedTuple):
    """Four independently computed equivalent triviality conditions."""

    all_trivial: bool
    edge_count_ok: bool
    average_length_ok: bool
    palindromic: bool
    a_y: Fraction


def carrell_peterson_report(y: Element) -> CPReport:
    """Evaluate the four equivalent triviality conditions for [1, y]."""
    return table_report(KLTable(interval(y)))


def table_report(table: KLTable) -> CPReport:
    """The four equivalent triviality conditions for the table's interval.

    Conditions: (1) all P_{x,y} trivial, (2) Bruhat out-degree l(y)-l(x)
    at every x, (3) average length l(y)/2, (4) palindromic Poincare
    polynomial.  Any disagreement raises, since the four are a theorem.
    """
    from fractions import Fraction

    iv = table.interval
    y = iv.top
    cond_trivial = all(p == ONE for p in table.top_column())
    out_degree = Counter(u for u, _, _ in iv.bruhat_edges)
    cond_edges = all(out_degree[i] == y.length - l for i, l in enumerate(iv.lengths))
    a_y = Fraction(sum(iv.lengths), len(iv.vertices))
    cond_average = a_y == Fraction(y.length, 2)
    cond_palindromic = is_palindromic(poincare_polynomial(iv))
    flags = (cond_trivial, cond_edges, cond_average, cond_palindromic)
    if len(set(flags)) != 1:
        raise KLConsistencyError(
            f"equivalent conditions disagree for {y!r}: {flags}"
        )
    return CPReport(cond_trivial, cond_edges, cond_average, cond_palindromic, a_y)


def soergel_h(x: Element, y: Element) -> IntPoly:
    """h_{x,y}(v) = v^(l(y)-l(x)) P_{x,y}(1/v^2), expanded in v."""
    if not x.system.bruhat_leq(x, y):
        raise ValueError("x must be <= y in Bruhat order")
    p = kl_polynomial(x, y)
    d = y.length - x.length
    coeffs = [0] * (d + 1)
    for i, a in enumerate(p.coeffs):
        coeffs[d - 2 * i] = a
    return IntPoly(coeffs)
