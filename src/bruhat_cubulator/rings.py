"""Exact scalars for non-crystallographic geometric representations.

Crystallographic systems act on root coordinates with plain integers.
Everything else works in the order Z[c] with c = 2*cos(pi/L), reduced
modulo the minimal polynomial psi of c.  Signs are decided with integers
and dyadic fractions only: Newton's method on psi brackets c ever more
tightly, and a nonzero reduced element is a nonzero number, so some
bracket decides its sign.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, floor
from typing import TYPE_CHECKING

from .polynomials import IntPoly

if TYPE_CHECKING:
    from fractions import Fraction


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by exact recursive division."""
    p = IntPoly((-1,) + (0,) * (n - 1) + (1,))  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            p = p.exact_div(cyclotomic(d))
    return p


@lru_cache(maxsize=None)
def cos_multiple(k: int) -> IntPoly:
    """The polynomial p_k with p_k(2*cos t) = 2*cos(k*t)."""
    if k == 0:
        return IntPoly([2])
    if k == 1:
        return IntPoly([0, 1])
    return IntPoly([0, 1]) * cos_multiple(k - 1) - cos_multiple(k - 2)


@lru_cache(maxsize=None)
def minimal_poly_two_cos(L: int) -> IntPoly:
    """Minimal polynomial of 2*cos(pi/L) over Q, monic with integer coefficients.

    2*cos(pi/L) = zeta + 1/zeta for zeta a primitive 2L-th root of unity,
    so the minimal polynomial is read off from the (palindromic) cyclotomic
    polynomial of order 2L via x^k + x^(-k) = p_k(y).
    """
    phi = cyclotomic(2 * L)
    d = phi.degree // 2
    acc = IntPoly([phi.coeffs[d]])
    for k in range(1, d + 1):
        acc = acc + phi.coeffs[d + k] * cos_multiple(k)
    return acc


class CosRing:
    """The ring Z[c]/(psi(c)) with c = 2*cos(pi/L)."""

    def __init__(self, L: int):
        if L < 3:
            raise ValueError("L must be at least 3")
        self.L = L
        self.minpoly = minimal_poly_two_cos(L)
        self.degree = self.minpoly.degree
        self._dminpoly = IntPoly(i * a for i, a in enumerate(self.minpoly.coeffs) if i)
        # lo <= c <= hi <= 2, refined on demand by _refine to dyadic Fractions
        self._bracket = (0, 2)
        self._sign_cache: dict[tuple[int, ...], int] = {}

    def __repr__(self):
        return f"CosRing(L={self.L})"

    def scalar(self, value) -> "RingScalar":
        """The element that an int or an IntPoly in c stands for."""
        if isinstance(value, int):
            value = IntPoly([value])
        reduced = divmod(value, self.minpoly)[1].coeffs
        return RingScalar(self, reduced + (0,) * (self.degree - len(reduced)))

    @property
    def zero(self) -> "RingScalar":
        return self.scalar(0)

    @property
    def one(self) -> "RingScalar":
        return self.scalar(1)

    def two_cos_pi_over(self, m: int) -> "RingScalar":
        """2*cos(pi/m) as an element of the ring; requires m | L."""
        if self.L % m != 0:
            raise ValueError(f"{m} does not divide L={self.L}")
        return self.scalar(cos_multiple(self.L // m))

    def sign(self, coeffs: tuple[int, ...]) -> int:
        """Sign of sum(coeffs[i] * c**i), for a reduced coefficient tuple."""
        if len(coeffs) > self.degree:
            raise ValueError(f"{coeffs} has more than {self.degree} coefficients")
        if not any(coeffs):
            return 0
        if coeffs not in self._sign_cache:
            # |a'(t)| <= bound on [-2, 2], so |a(hi) - a(c)| <= (hi - lo) * bound;
            # a(c) != 0 since a is nonzero of degree below psi's, so this ends
            bound = sum(i * abs(a) << (i - 1) for i, a in enumerate(coeffs) if i)
            d = len(coeffs) - 1
            lo, hi = self._bracket
            while True:
                # over the bracket's common denominator 2^k, hi = n / 2^k,
                # hi - lo = w / 2^k and a(hi) = v / 2^(k*d), all integers
                k = max(lo.denominator, hi.denominator).bit_length() - 1
                n, w = int(hi * (1 << k)), int((hi - lo) * (1 << k))
                v = IntPoly([a << k * (d - i) for i, a in enumerate(coeffs)])(n)
                if abs(v) << k > w * bound << k * d:
                    break
                lo, hi = self._refine()
            self._sign_cache[coeffs] = 1 if v > 0 else -1
        return self._sign_cache[coeffs]

    def _refine(self) -> tuple[Fraction, Fraction]:
        """The next bracket, by one Newton step on psi from the upper end x.

        psi is monic with real roots r <= c, so for x >= c the step
        t = psi(x)/psi'(x) = 1/sum(1/(x - r)) lies in [(x - c)/d, x - c]:
        x - d*t <= c <= x - t.  The ends are rounded outward to dyadics at a
        precision that tracks the squared width, keeping quadratic convergence.
        """
        from fractions import Fraction

        x = Fraction(self._bracket[1])
        t = self.minpoly(x) / self._dminpoly(x)
        lo, hi = x - self.degree * t, x - t
        width = hi - lo
        bits = 2 * max(0, width.denominator.bit_length() - width.numerator.bit_length()) + 8
        scale = 1 << bits
        self._bracket = (
            Fraction(floor(lo * scale), scale),
            min(x, Fraction(ceil(hi * scale), scale)),
        )
        return self._bracket


class RingScalar:
    """An element of a CosRing, stored as reduced coefficients in c."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CosRing, coeffs: tuple[int, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("RingScalar is immutable")

    def _coerce(self, other) -> "RingScalar":
        if not isinstance(other, RingScalar):
            raise TypeError(f"cannot combine a RingScalar with {other!r}")
        if other.ring is not self.ring:
            raise ValueError("mixed rings")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return RingScalar(self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return RingScalar(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        return RingScalar(self.ring, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        prod = IntPoly(self.coeffs) * IntPoly(o.coeffs)
        return self.ring.scalar(prod)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, RingScalar):
            return NotImplemented
        return self.coeffs == self._coerce(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sign(self) -> int:
        return self.ring.sign(self.coeffs)

    def __repr__(self):
        return f"RingScalar({list(self.coeffs)} @ L={self.ring.L})"
