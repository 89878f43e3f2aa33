"""Ball growth, Poincare series truncations, and Bott's product formula.

A series truncated at order k is the tuple of its coefficients 0..k,
exact integers, k + 1 of them.  The quantum-shape probe
factors truncations of (1 - z)^|S| W(z) into products of (1 - z^a) terms.
Such a factorization through order j is unique when it exists (its
exponents are fixed one coefficient at a time), so the probe peels the
exponents once and reads each order's shape off them.  It flags
stabilization, which is finite evidence only, never a statement about the
full series.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import NamedTuple

from .coxeter import CoxeterSystem, Element
from .polynomials import euler_exponents


def exponents(tag) -> tuple[int, ...]:
    """The exponents of an irreducible finite type, keyed by (letter, n).

    n is the rank, except in ("I2", m), where it is the bond order m.
    _affine_exponents builds the tag from an affine type label.
    """
    letter, n = tag
    if letter == "A":
        return tuple(range(1, n + 1))
    if letter == "B":
        return tuple(range(1, 2 * n, 2))
    if letter == "D":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    if letter == "E":
        return {
            6: (1, 4, 5, 7, 8, 11),
            7: (1, 5, 7, 9, 11, 13, 17),
            8: (1, 7, 11, 13, 17, 19, 23, 29),
        }[n]
    if letter == "F":
        return (1, 5, 7, 11)
    if letter == "G":
        return (1, 5)
    if letter == "H":
        return {3: (1, 5, 9), 4: (1, 11, 19, 29)}[n]
    if letter == "I2":
        return (1, n - 1)
    raise ValueError(f"unknown finite type tag {tag!r}")


def _affine_exponents(system: CoxeterSystem) -> tuple[int, ...]:
    """Exponents of the finite Weyl group underlying an affine system."""
    tag = system.type_tag
    mm = re.fullmatch(r"([A-G])tilde(\d+)", tag or "")
    if not mm:
        raise ValueError(f"not an irreducible affine type: {system!r}")
    letter, n = mm.group(1), int(mm.group(2))
    if letter == "C":
        letter = "B"
    if letter == "A" and n == 1:
        return (1,)
    return exponents((letter, n))


def ball_sizes(system: CoxeterSystem, radius: int) -> list[int]:
    """Cumulative ball cardinalities beta(0), ..., beta(radius)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return list(accumulate(system.ball_layer_counts(radius)))


def poincare_truncation(system: CoxeterSystem, order: int) -> tuple[int, ...]:
    """Truncation of W(z), the length generating series of the group."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return tuple(system.ball_layer_counts(order))


def volume_growth_truncation(system: CoxeterSystem, order: int) -> tuple[int, ...]:
    """Truncation of the volume growth series, with (1 - z) Gamma(z) = W(z)."""
    return tuple(ball_sizes(system, order))


def bott_truncation(system: CoxeterSystem, order: int) -> tuple[int, ...]:
    """Bott's product formula for the series of an irreducible affine system.

    W(z) = prod over exponents e of (1 - z^(e+1)) / ((1 - z)(1 - z^e)),
    expanded one factor at a time on the integer coefficients.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [1] + [0] * order
    for e in _affine_exponents(system):
        _mul_one_minus_z_pow(coeffs, e + 1, 1)
        _mul_one_minus_z_pow(coeffs, 1, -1)
        _mul_one_minus_z_pow(coeffs, e, -1)
    return tuple(coeffs)


def _mul_one_minus_z_pow(coeffs: list[int], a: int, power: int):
    """Multiply the truncated series coeffs by (1 - z^a)^power in place, power +-1:
    c_k -= c_(k-a) downwards, or c_k += c_(k-a) upwards for 1/(1 - z^a)."""
    if power == 1:
        for k in range(len(coeffs) - 1, a - 1, -1):
            coeffs[k] -= coeffs[k - a]
    else:
        for k in range(a, len(coeffs)):
            coeffs[k] += coeffs[k - a]


def minimal_nonspherical_L(system: CoxeterSystem) -> int:
    """1 + the largest longest-element length over maximal proper parabolics.

    Defined for minimal nonspherical systems: infinite, but with every
    proper standard parabolic subgroup finite.
    """
    if system.is_finite():
        raise ValueError("system is finite, hence spherical")
    best = 0
    for a in system.labels:
        sub = system.subsystem([b for b in system.labels if b != a])
        if not sub.is_finite():
            raise ValueError(
                f"maximal parabolic omitting {a} is infinite; "
                "system is not minimal nonspherical"
            )
        best = max(best, sub.longest_element().length)
    return 1 + best


def ball_in_interval_check(system: CoxeterSystem, k: int, y: Element) -> bool:
    """True iff the radius-k ball lies inside [1, y], element by element.

    Requires l(y) >= k * L with L = minimal_nonspherical_L(system); a
    violated precondition raises rather than silently returning.
    """
    system._own(y)
    if k < 0:
        raise ValueError("k must be non-negative")
    L = minimal_nonspherical_L(system)
    if y.length < k * L:
        raise ValueError(f"need l(y) >= k * L = {k * L}, got {y.length}")
    for layer in system.ball_layers(k):
        for x in layer:
            if not system.bruhat_leq(x, y):
                return False
    return True


class GrowthProbeReport(NamedTuple):
    """Quantum shapes matching truncations of F(z) = (1 - z)^|S| W(z).

    ``shapes_by_order[j]`` lists every multiset (a_1 <= ... <= a_N) with
    N <= |S| and a_i <= j whose product of (1 - z^(a_i)) agrees with F(z)
    through order j; there is at most one.  Stabilization means the set is
    the same singleton from ``stabilization_index`` through the final order
    probed.
    """

    order: int
    f_coeffs: tuple[int, ...]
    shapes_by_order: dict
    stabilization_index: int | None
    stabilized_shape: tuple[int, ...] | None
    caveat: str = "finite truncation only; not evidence about the full series"


def growth_quantum_probe(system: CoxeterSystem, w: tuple[int, ...]) -> GrowthProbeReport:
    """Probe the truncation w of the system's W(z), as ``poincare_truncation`` gives it."""
    order = len(w) - 1
    if order < 1:
        raise ValueError("order must be at least 1")
    if system.is_finite():
        raise ValueError("the probe applies to infinite systems")
    n = system.rank
    f = list(w)
    for _ in range(n):
        _mul_one_minus_z_pow(f, 1, 1)
    shapes_by_order: dict[int, tuple] = {}
    shape: tuple[int, ...] | None = ()
    for j, c in enumerate(euler_exponents(f, order), 1):
        # the exponents of a_1, ..., a_j are those of F through order j
        if shape is not None:
            shape = shape + (j,) * c if c >= 0 and len(shape) + c <= n else None
        shapes_by_order[j] = (shape,) if shape is not None else ()
    stab_index = None
    stab_shape = None
    last = shapes_by_order[order]
    if len(last) == 1:
        j = order
        while j >= 2 and shapes_by_order[j - 1] == last:
            j -= 1
        if order - j >= 2:
            stab_index = j
            stab_shape = last[0]
    return GrowthProbeReport(order, tuple(f), shapes_by_order, stab_index, stab_shape)
