"""Named batch check suites runnable from the command line.

Each check is a module-level function that raises AssertionError (or any
exception) to fail.  A suite is a list of (name, check) pairs; the
acceptance tests call the same functions, from the same tables, so each
fact is checked in one place.  ``run_suite`` returns a machine-readable
report and never raises.
"""

from __future__ import annotations

import random
from functools import partial
from operator import sub

from . import constructions as cx
from . import growth, search
from .bruhat import interval
from .coxeter import build_system
from .kl import all_trivial, kl_polynomial, r_polynomial
from .polynomials import IntPoly

# the longest elements the search cubulates, with their canonical lattice
LONGEST_ELEMENT_PARAMS = (
    ("A1", (1,)),
    ("A2", (1, 2)),
    ("A3", (1, 2, 3)),
    ("A4", (1, 2, 3, 4)),
    ("B2", (1, 3)),
    ("B3", (1, 3, 5)),
)
PATH_FOREST_TAGS = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4")
AFFINE_GROWTH_TAGS = ("Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2")
# (seed, spread): each sample has length k*L + randrange(spread), k in {1, 2}
BALL_SAMPLES = ((20240823, 4), (20260823, 3))


def interval_counts():
    iv = interval(build_system("A2").longest_element())
    assert len(iv.vertices) == 6
    assert len(iv.deletions) == 9
    assert sum(len(iv.covers(v)) for v in range(len(iv))) == 8


def kl_spot():
    a3 = build_system("A3")
    y = a3.element((2, 1, 3, 2))
    assert kl_polynomial(a3.identity, y) == IntPoly((1, 1))


def dihedral_r():
    # all P are 1 in dihedral groups, so sum of R over [x, y] is q^d;
    # R = (q-1)^d exactly when the interval is boolean, i.e. d <= 2
    sys = build_system("I2(4)")
    iv = interval(sys.longest_element())
    q_pow = {0: IntPoly((1,))}
    for d in range(1, 5):
        q_pow[d] = q_pow[d - 1] * IntPoly((0, 1))
    for x in iv.vertices:
        for y in iv.vertices:
            if not sys.bruhat_leq(x, y):
                continue
            d = y.length - x.length
            between = (w for w in iv.vertices if sys.bruhat_leq(x, w) and sys.bruhat_leq(w, y))
            total = sum((r_polynomial(x, w) for w in between), IntPoly())
            assert total == q_pow[d]
            if d <= 2:
                expected = IntPoly((1,))
                for _ in range(d):
                    expected = expected * IntPoly((-1, 1))
                assert r_polynomial(x, y) == expected


def longest_element_found(tag, params):
    """The search cubulates w0 of ``tag`` by the lattice C(params)."""
    iv = interval(build_system(tag).longest_element())
    out = search.search(iv)
    assert out.status == search.FOUND, out.status
    assert out.certificate.lattice.canonical_form().params == params, (
        out.certificate.lattice.params
    )
    assert search.verify_certificate(iv, out.certificate)


def boolean_construction():
    a3 = build_system("A3")
    res = cx.standard_parabolic_coxeter_cubulation(a3.element((1, 2, 3)))
    assert search.verify_certificate(res.interval, res.certificate)


def atilde2_coefficients(order):
    """The Atilde2 Poincare series starts 1, 3, 6, 9, ..., 3 * order."""
    t = growth.poincare_truncation(build_system("Atilde2"), order)
    assert t == (1,) + tuple(3 * k for k in range(1, order + 1)), t


def path_forest_verifies(tag):
    res = cx.path_forest_cubulation(build_system(tag))
    assert search.verify_certificate(res.interval, res.certificate)


def atilde2_interval_sizes():
    system = build_system("Atilde2")
    assert cx.y_m(system, 0) == system.element((1, 2, 1))
    for m in range(9):
        iv = interval(cx.y_m(system, m))
        assert len(iv.vertices) == 3 * (m + 1) * (m + 2), m


def atilde2_constructions():
    system = build_system("Atilde2")
    for m in range(1, 9):
        res = cx.atilde2_cubulation(system, m)
        assert res.lattice.params == (2, m, m + 1), m
        assert search.verify_certificate(res.interval, res.certificate), m


def atilde2_searches():
    system = build_system("Atilde2")
    for m in range(5):
        iv = interval(cx.y_m(system, m))
        out = search.search(iv)
        assert out.status == search.FOUND, m
        assert search.verify_certificate(iv, out.certificate), m


def bott_agreement():
    for tag in AFFINE_GROWTH_TAGS:
        system = build_system(tag)
        assert growth.bott_truncation(system, 10) == growth.poincare_truncation(system, 10), tag


def growth_identity():
    for tag in AFFINE_GROWTH_TAGS + ("A3",):
        system = build_system(tag)
        gamma = growth.volume_growth_truncation(system, 10)
        # (1 - z) Gamma(z) = W(z) through z^10: W's coefficients are Gamma's differences
        w = tuple(map(sub, gamma, (0,) + gamma))
        assert w == growth.poincare_truncation(system, 10), tag


def ball_in_interval_samples():
    system = build_system("Atilde2")
    L = growth.minimal_nonspherical_L(system)
    assert L == 4
    for seed, spread in BALL_SAMPLES:
        rng = random.Random(seed)
        for _ in range(20):
            k = rng.choice((1, 2))
            target = k * L + rng.randrange(spread)
            w = system.identity
            while w.length < target:
                g = system.generator(rng.choice(system.labels))
                if (w * g).length > w.length:
                    w = w * g
            assert growth.ball_in_interval_check(system, k, w), (seed, w)


def f4_w0_exhausted():
    w0 = build_system("F4").longest_element()
    assert all_trivial(w0)
    out = search.cubulate(w0)
    assert out.status == search.EXHAUSTED, out.status
    assert out.stats["shapes_tried"] == 1, out.stats
    assert out.stats["nodes_expanded"] == 56_049, out.stats


_SEARCH_W0 = {
    tag: partial(longest_element_found, tag, params) for tag, params in LONGEST_ELEMENT_PARAMS
}

SUITES = {
    "smoke": [
        ("interval_counts", interval_counts),
        ("kl_spot", kl_spot),
        ("dihedral_r", dihedral_r),
        ("small_search", _SEARCH_W0["A2"]),
        ("boolean_construction", boolean_construction),
        ("growth_coefficients", partial(atilde2_coefficients, 4)),
    ],
    "classical": [(f"search_{tag}_w0", check) for tag, check in _SEARCH_W0.items()]
    + [(f"path_forest_{tag}", partial(path_forest_verifies, tag)) for tag in PATH_FOREST_TAGS],
    "atilde2": [
        ("interval_sizes", atilde2_interval_sizes),
        ("recursive_constructions", atilde2_constructions),
        ("independent_searches", atilde2_searches),
    ],
    "growth": [
        ("bott_agreement", bott_agreement),
        ("growth_identity", growth_identity),
        ("affine_coefficients", partial(atilde2_coefficients, 5)),
        ("ball_in_interval_samples", ball_in_interval_samples),
    ],
    "negative": [("f4_w0_exhausted", f4_w0_exhausted)],
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    results = []
    for check_name, check in SUITES[name]:
        try:
            check()
        except Exception as exc:  # report, never propagate
            results.append(
                {"name": check_name, "status": "fail", "error": f"{type(exc).__name__}: {exc}"}
            )
        else:
            results.append({"name": check_name, "status": "pass", "error": None})
    return {
        "suite": name,
        "checks": results,
        "passed": all(r["status"] == "pass" for r in results),
    }
