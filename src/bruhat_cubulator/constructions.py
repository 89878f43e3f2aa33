"""Closed-form cubulations: path forests, short and dihedral, affine rank 3.

Each construction emits a Cubulation certificate and immediately re-checks
it with the independent verifier; a failure raises, since these maps are
correct by theorem and a bad certificate means a transcription bug.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

from .bruhat import BruhatInterval, interval, poincare_polynomial
from .coxeter import CoxeterSystem, Element
from .cube import CubicalLattice
from .polynomials import is_palindromic
from .search import Cubulation, verify_certificate_detailed


class ConstructionError(RuntimeError):
    """A construction produced a certificate that fails verification."""


class ConstructionResult(NamedTuple):
    lattice: CubicalLattice
    certificate: Cubulation
    tag: str
    interval: BruhatInterval


def _certify(iv: BruhatInterval, lattice: CubicalLattice, assignment, tag) -> ConstructionResult:
    cert = Cubulation(lattice, dict(assignment))
    ok, msg = verify_certificate_detailed(iv, cert)
    if not ok:
        raise ConstructionError(f"{tag} certificate failed verification: {msg}")
    return ConstructionResult(lattice, cert, tag, iv)


# ---------------------------------------------------------------------------
# path forests

def path_forest_cubulation(system: CoxeterSystem) -> ConstructionResult:
    """Cubulate [1, w0] by concatenating prefixes of the forest's paths.

    Tree k of the normal form forest spells the minimal representatives of
    the cosets of the parabolic on the first k-1 generators inside the one
    on the first k; w0's k-th parabolic factor x_k is the longest of them.
    The tree has at least l(x_k) + 1 nodes, with equality only for a path,
    and the trees' node counts multiply to |W|, so the forest is a path
    forest iff prod (l(x_k) + 1) = |[1, w0]|.  Types A and B qualify.
    """
    w0 = system.longest_element()
    paths = [x.word for x in system.parabolic_factorize(w0)]
    iv = interval(w0)
    if prod(len(p) + 1 for p in paths) != len(iv.vertices):
        raise ValueError("normal form forest is not a path forest")
    params = tuple(len(p) for p in paths)
    lattice = CubicalLattice(params)
    assignment = {}
    for coords in product(*(range(k + 1) for k in params)):
        word = []
        for j, m in enumerate(coords):
            word.extend(paths[j][:m])
        el = system.element(word)
        assignment[coords] = iv.index[el]
    tag = "nff-A" if all(k == j + 1 for j, k in enumerate(params)) else "nff-B"
    return _certify(iv, lattice, assignment, tag)


# ---------------------------------------------------------------------------
# short and dihedral cases

def standard_parabolic_coxeter_cubulation(y: Element) -> ConstructionResult:
    """Boolean cubulation for elements using each generator at most once."""
    word = y.word
    if len(set(word)) != len(word):
        raise ValueError("element must use each generator at most once")
    k = len(word)
    iv = interval(y)
    if k == 0:
        return _certify(iv, CubicalLattice((0,)), {(0,): 0}, "boolean")
    lattice = CubicalLattice((1,) * k)
    assignment = {}
    for bits in product((0, 1), repeat=k):
        sub = tuple(a for a, b in zip(word, bits) if b)
        assignment[bits] = iv.index[y.system.element(sub)]
    return _certify(iv, lattice, assignment, "boolean")


def dihedral_cubulation(y: Element) -> ConstructionResult:
    """Cubulate a dihedral interval [1, y] by C(1, l(y) - 1)."""
    sys = y.system
    if sys.rank != 2:
        raise ValueError("dihedral construction needs a rank-2 system")
    k = y.length
    if k < 2:
        raise ValueError("need l(y) >= 2; shorter elements are boolean")
    a = y.word[0]
    b = next(l for l in sys.labels if l != a)

    def alternating(start, length):
        other = a if start == b else b
        return tuple(start if i % 2 == 0 else other for i in range(length))

    iv = interval(y)
    lattice = CubicalLattice((1, k - 1))
    assignment = {}
    for j in range(k):
        assignment[(0, j)] = iv.index[sys.element(alternating(b, j))]
        assignment[(1, j)] = iv.index[sys.element((a,) + alternating(b, j))]
    return _certify(iv, lattice, assignment, "dihedral")


# ---------------------------------------------------------------------------
# the affine rank-3 family

def _check_atilde2(system: CoxeterSystem, what: str):
    if system.labels != (0, 1, 2) or any(
        system.m(a, b) != 3 for a in (0, 1, 2) for b in (0, 1, 2) if a != b
    ):
        raise ValueError(f"{what} needs the system Atilde2 (labels 0,1,2, all bond "
                         f"orders 3), not {system.descriptor}")


def y_m(system: CoxeterSystem, m: int) -> Element:
    """The length-(3+2m) initial subword of (s1 s2 s1)(s0 s2 s1)^m."""
    _check_atilde2(system, "y_m")
    if m < 0:
        raise ValueError("m must be non-negative")
    word = ((1, 2, 1) + (0, 2, 1) * m)[: 3 + 2 * m]
    el = system.element(word)
    if el.length != 3 + 2 * m:
        raise ConstructionError(f"y_{m} is not reduced as written")
    return el


def atilde2_cubulation(system: CoxeterSystem, m: int) -> ConstructionResult:
    """Cubulate [1, y_m] by C(2, m, m+1), built by the recursive labeling.

    Level 0 starts from a six-entry base table and grows two boundary rows
    plus two corner cells per step (generator subscripts mod 3); levels 1
    and 2 are left-multiplications by s1 and then s2.  The result is always
    passed through the independent verifier.
    """
    _check_atilde2(system, "the atilde2 construction")
    if m < 1:
        raise ValueError("m must be at least 1; m = 0 is dihedral")
    g = {i: system.generator(i) for i in (0, 1, 2)}
    level0 = {
        (0, 0): system.identity,
        (0, 1): g[2],
        (0, 2): g[2] * g[0],
        (1, 0): g[0],
        (1, 1): g[0] * g[2],
        (1, 2): g[2] * g[0] * g[2],
    }
    for t in range(1, m):
        s_t = g[t % 3]
        s_prev = g[(t - 1) % 3]
        new = dict(level0)
        for k2 in range(t + 1):
            new[(k2, t + 2)] = level0[(k2, t + 1)] * s_t
        for k3 in range(t + 1):
            new[(t + 1, k3)] = level0[(t, k3)] * s_t
        new[(t + 1, t + 1)] = new[(t + 1, t)] * s_prev
        new[(t + 1, t + 2)] = new[(t + 1, t + 1)] * s_t
        level0 = new
    iv = interval(y_m(system, m))
    lattice = CubicalLattice((2, m, m + 1))
    assignment = {}
    for (k2, k3), el in level0.items():
        lvl1 = g[1] * el
        lvl2 = g[2] * lvl1
        assignment[(0, k2, k3)] = iv.index[el]
        assignment[(1, k2, k3)] = iv.index[lvl1]
        assignment[(2, k2, k3)] = iv.index[lvl2]
    return _certify(iv, lattice, assignment, "atilde2")


def atilde2_trivial_enumeration(system: CoxeterSystem, max_length: int) -> list[tuple]:
    """All y with l(y) <= max_length and trivial tables, with class matching.

    Each such y is paired with the representative of its diagram-relabeling
    class, drawn from {1, s1, s1 s2, s1 s2 s0, s1 s2 s1 s0, s0 s1 s2 s1} and
    the y_m family.  The two length-4 representatives are mutually inverse
    but lie in different relabeling classes; both intervals have 12 vertices
    and are cubulated by C(1, 1, 2).  A trivial element with no
    representative raises.
    """
    _check_atilde2(system, "the atilde2 enumeration")
    reps = [
        system.identity,
        system.element((1,)),
        system.element((1, 2)),
        system.element((1, 2, 0)),
        system.element((1, 2, 1, 0)),
        system.element((0, 1, 2, 1)),
    ]
    mm = 0
    while 3 + 2 * mm <= max_length:
        reps.append(y_m(system, mm))
        mm += 1
    perms = system.diagram_automorphisms()
    orbit = {}
    for rep in reps:
        for perm in perms:
            orbit.setdefault(system.diagram_automorphism(perm, rep), rep)
    out = []
    for layer in system.ball_layers(max_length):
        for y in layer:
            if not is_palindromic(poincare_polynomial(interval(y))):
                continue
            rep = orbit.get(y)
            if rep is None:
                raise ConstructionError(
                    f"trivial element {y!r} matches no known class representative"
                )
            out.append((y, rep))
    return out
