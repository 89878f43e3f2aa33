"""Exact scalars for non-crystallographic geometric representations.

Crystallographic systems act on root coordinates with plain integers.
Everything else works in the order Z[c] with c = 2*cos(pi/L), reduced
modulo the minimal polynomial of c.  Sign queries are answered with
interval arithmetic at increasing precision; this is exact because a
nonzero element of the ring is a nonzero algebraic number, so a tight
enough interval must exclude zero.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath

from .polynomials import IntPoly


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
        self._sign_cache: dict[tuple[int, ...], int] = {}

    def __repr__(self):
        return f"CosRing(L={self.L})"

    def scalar(self, value) -> "RingScalar":
        if isinstance(value, RingScalar):
            if value.ring is not self:
                raise ValueError("scalar belongs to a different ring")
            return value
        if isinstance(value, int):
            return RingScalar(self, (value,) + (0,) * (self.degree - 1))
        if isinstance(value, IntPoly):
            reduced = divmod(value, self.minpoly)[1]
            c = reduced.coeffs + (0,) * (self.degree - len(reduced.coeffs))
            return RingScalar(self, c)
        raise TypeError(f"cannot coerce {value!r}")

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
        if not any(coeffs):
            return 0
        cached = self._sign_cache.get(coeffs)
        if cached is not None:
            return cached
        prec = 64
        while prec <= 1 << 14:
            with mpmath.workprec(prec):
                c = 2 * mpmath.iv.cos(mpmath.iv.pi / self.L)
                acc = mpmath.iv.mpf(0)
                for a in reversed(coeffs):
                    acc = acc * c + a
                if acc > 0:
                    self._sign_cache[coeffs] = 1
                    return 1
                if acc < 0:
                    self._sign_cache[coeffs] = -1
                    return -1
            prec *= 2
        raise ArithmeticError(f"sign of {coeffs} undecided at max precision")


class RingScalar:
    """An element of a CosRing, stored as reduced coefficients in c."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CosRing, coeffs: tuple[int, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("RingScalar is immutable")

    def _coerce(self, other):
        if isinstance(other, RingScalar):
            if other.ring is not self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, int):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingScalar(self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return RingScalar(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingScalar(self.ring, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = IntPoly(self.coeffs) * IntPoly(o.coeffs)
        return self.ring.scalar(prod)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sign(self) -> int:
        return self.ring.sign(self.coeffs)

    def __repr__(self):
        return f"RingScalar({list(self.coeffs)} @ L={self.ring.L})"


def scalar_sign(x) -> int:
    """Sign of an int or RingScalar."""
    if isinstance(x, RingScalar):
        return x.sign()
    return (x > 0) - (x < 0)
