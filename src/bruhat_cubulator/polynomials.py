"""Exact integer polynomial arithmetic and generating-function utilities.

Polynomials are dense coefficient tuples over Python ints, so coefficients
never overflow.  The same class holds length generating functions in ``z``,
R- and Kazhdan-Lusztig polynomials in ``q``, and their ``v``-normalised
forms; the variable name is purely notational.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class IntPoly:
    """A univariate polynomial with exact integer coefficients.

    ``coeffs[i]`` is the coefficient of the degree-``i`` term; trailing
    zeros are trimmed, so the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other) -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "IntPoly"):
        """Polynomial division; the divisor must have leading coefficient +-1."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead = other.coeffs[-1]
        if lead not in (1, -1):
            raise ValueError("divisor must have unit leading coefficient")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPoly(), self
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            f = rem[k + other.degree] // lead
            quot[k] = f
            if f:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= f * b
        return IntPoly(quot), IntPoly(rem)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def __call__(self, x):
        """Evaluate via Horner; x may be an int or a Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "IntPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return f"IntPoly({' + '.join(terms)})"


ZERO = IntPoly()
ONE = IntPoly([1])


def is_palindromic(p: IntPoly) -> bool:
    """True iff the coefficient sequence reads the same in both directions.

    The zero polynomial is rejected: it has no degree to mirror around.
    """
    if p.is_zero():
        raise ValueError("palindromicity is undefined for the zero polynomial")
    return p.coeffs == tuple(reversed(p.coeffs))


def quantum_poly(a: int) -> IntPoly:
    """1 + x + ... + x^(a-1), the rank generating function of a chain of a points."""
    if a < 1:
        raise ValueError(f"quantum polynomial needs a >= 1, got {a}")
    return IntPoly((1,) * a)


def euler_exponents(coeffs: Sequence[int], order: int) -> list[int]:
    """The c_1, ..., c_order with F = prod (1 - z^a)^(c_a) modulo z^(order + 1).

    ``coeffs`` are F's leading coefficients, with constant term 1; missing
    ones count as 0.  The exponents exist, are integers and are unique:
    zF'/F = -sum_k z^k sum_{a | k} a c_a fixes c_k once c_a is known for
    every a < k.
    """
    f = list(coeffs[: order + 1]) + [0] * (order + 1 - len(coeffs))
    if f[0] != 1:
        raise ValueError("series must have constant term 1")
    log = [0] * (order + 1)  # coefficients of zF'/F
    c = [0] * (order + 1)
    for k in range(1, order + 1):
        log[k] = k * f[k] - sum(f[i] * log[k - i] for i in range(1, k))
        c[k] = -(log[k] + sum(a * c[a] for a in range(1, k) if k % a == 0)) // k
    return c[1:]


def quantum_factorizations(p: IntPoly) -> set[tuple[int, ...]]:
    """All multisets (a_1 <= ... <= a_N), a_i >= 2, with p = prod quantum_poly(a_i).

    Returns the empty set when no factorization exists, and {()} exactly
    when p == 1.  There is at most one factorization: N is the z-coefficient
    of p, and (1 - z)^N p = prod (1 - z^(a_i)) has unique exponents.
    """
    if p.is_zero() or p(0) != 1:
        raise ValueError("input must be nonzero with constant term 1")
    n = p.coeffs[1] if p.degree >= 1 else 0
    if n < 0:
        return set()
    f = p
    for _ in range(n):
        f = f * IntPoly((1, -1))
    c = euler_exponents(f.coeffs, f.degree)  # c_1 = 0, as f has no z term
    if min(c, default=0) < 0 or sum(c) != n:
        return set()
    # q = prod quantum_poly(a)^(c_a) agrees with p through degree
    # deg p + n, and its coefficients are positive up to its own degree,
    # so it is no longer than p: q == p
    return {tuple(a for a, k in enumerate(c, 1) for _ in range(k))}

