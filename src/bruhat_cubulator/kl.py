"""R-polynomials and Kazhdan-Lusztig polynomials over lower intervals.

R-polynomials follow the right-descent recursion and are memoized per
system, so tables for overlapping intervals share work.  P-polynomials are
recovered from the defining identity

    q^(l(y)-l(x)) P_xy(1/q) = sum_{w in [x,y]} R_xw P_wy

by reading the high half of the right-hand sum (the degree bound keeps the
two supports disjoint); every recovered polynomial is checked against the
identity exactly, for non-negative coefficients, and for the degree bound,
and any violation raises, since it can only mean an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bruhat import BruhatInterval, interval, out_degree_in_interval, poincare_polynomial
from .coxeter import Element
from .polynomials import IntPoly, ONE, ZERO, is_palindromic

_Q = IntPoly((0, 1))
_QM1 = IntPoly((-1, 1))


class KLConsistencyError(RuntimeError):
    """A computed table violates one of its defining identities."""


def r_polynomial(x: Element, y: Element) -> IntPoly:
    """The R-polynomial R_{x,y}; zero unless x <= y."""
    if x == y:
        return ONE
    sys = x.system
    if not sys.bruhat_leq(x, y):
        return ZERO
    cache = sys.__dict__.setdefault("_r_poly_cache", {})
    key = (x.iword, y.iword)
    res = cache.get(key)
    if res is None:
        s = min(sys.right_descents(y))
        g = sys.generator(s)
        ys = y * g
        if s in sys.right_descents(x):
            res = r_polynomial(x * g, ys)
        else:
            res = _Q * r_polynomial(x * g, ys) + _QM1 * r_polynomial(x, ys)
        cache[key] = res
    return res


class KLTable:
    """P- and R-polynomial lookup over one interval [1, y]."""

    def __init__(self, iv: BruhatInterval):
        self.interval = iv
        self._p: dict[tuple[int, int], IntPoly] = {}

    def R(self, x_id: int, y_id: int) -> IntPoly:
        iv = self.interval
        return r_polynomial(iv.vertices[x_id], iv.vertices[y_id])

    def P(self, x_id: int, y_id: int) -> IntPoly:
        """The Kazhdan-Lusztig polynomial P_{x,y'} for interval vertices."""
        if x_id == y_id:
            return ONE
        iv = self.interval
        if not iv.leq_ids(x_id, y_id):
            return ZERO
        key = (x_id, y_id)
        res = self._p.get(key)
        if res is None:
            res = self._compute(x_id, y_id)
            self._p[key] = res
        return res

    def _compute(self, x_id: int, y_id: int) -> IntPoly:
        iv = self.interval
        d = iv.lengths[y_id] - iv.lengths[x_id]
        total = ZERO
        mask = iv.below_masks[y_id] & ~(1 << x_id)
        w_id = 0
        while mask:
            low = mask & -mask
            w_id = low.bit_length() - 1
            mask ^= low
            if iv.leq_ids(x_id, w_id):
                total = total + self.R(x_id, w_id) * self.P(w_id, y_id)
        c = total.coeffs + (0,) * (d + 1 - len(total.coeffs))
        if len(c) != d + 1 or c[d] != 1:
            raise KLConsistencyError(
                f"bad top coefficient recovering P at ids ({x_id},{y_id})"
            )
        p = IntPoly(c[d - i] for i in range((d - 1) // 2 + 1))
        mirror_coeffs = [0] * (d + 1)
        for i, a in enumerate(p.coeffs):
            mirror_coeffs[d - i] = a
        if IntPoly(mirror_coeffs) - p != total:
            raise KLConsistencyError(
                f"defining identity fails at ids ({x_id},{y_id})"
            )
        if any(a < 0 for a in p.coeffs):
            raise KLConsistencyError(f"negative coefficient in P at ({x_id},{y_id})")
        return p

    def top_column(self) -> list[IntPoly]:
        """P_{x,y} for every x in the interval, with y the interval top."""
        top = len(self.interval.vertices) - 1
        return [self.P(i, top) for i in range(len(self.interval.vertices))]


def kl_table(y: Element) -> KLTable:
    return KLTable(interval(y))


def kl_polynomial(x: Element, y: Element) -> IntPoly:
    if not x.system.bruhat_leq(x, y):
        return ZERO
    table = kl_table(y)
    x_id = table.interval.index[x]
    return table.P(x_id, len(table.interval.vertices) - 1)


def all_trivial(y: Element, definitional: bool = False) -> bool:
    """True iff P_{x,y} = 1 for all x <= y.

    The default fast path tests palindromicity of the Poincare polynomial
    of [1, y], which is equivalent; ``definitional=True`` computes the
    whole table instead.
    """
    iv = interval(y)
    if definitional:
        return all(p == ONE for p in KLTable(iv).top_column())
    return is_palindromic(poincare_polynomial(iv))


@dataclass(frozen=True)
class CPReport:
    """Four independently computed equivalent triviality conditions."""

    all_trivial: bool
    edge_count_ok: bool
    average_length_ok: bool
    palindromic: bool
    a_y: Fraction

    @property
    def trivial(self) -> bool:
        return self.all_trivial


def carrell_peterson_report(y: Element) -> CPReport:
    """Evaluate the four equivalent triviality conditions for [1, y]."""
    return table_report(KLTable(interval(y)))


def table_report(table: KLTable) -> CPReport:
    """The four equivalent triviality conditions for the table's interval.

    Conditions: (1) all P_{x,y} trivial, (2) Bruhat out-degree l(y)-l(x)
    at every x, (3) average length l(y)/2, (4) palindromic Poincare
    polynomial.  Any disagreement raises, since the four are a theorem.
    """
    iv = table.interval
    y = iv.top
    cond_trivial = all(p == ONE for p in table.top_column())
    cond_edges = all(
        iv.succ_masks[i].bit_count() == y.length - iv.lengths[i]
        for i in range(len(iv.vertices))
    )
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


def b_equals_N(y: Element) -> bool:
    """True iff h_{x,y} is the single monomial v^(l(y)-l(x)) for all x <= y."""
    return all_trivial(y, definitional=True)
