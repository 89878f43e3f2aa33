"""Named batch check suites runnable from the command line.

Each suite is a list of (name, thunk) pairs; a thunk raises AssertionError
(or any exception) to fail its check.  ``run_suite`` returns a
machine-readable report and never raises.
"""

from __future__ import annotations

import random

from . import constructions as cx
from . import growth, search
from .bruhat import interval
from .coxeter import build_system
from .kl import all_trivial, kl_polynomial, r_polynomial
from .polynomials import IntPoly

SUITE_NAMES = ("smoke", "classical", "atilde2", "growth", "negative")


def _found_with_params(system, y, params):
    out = search.cubulate(y)
    assert out.status == search.FOUND, out.status
    assert out.certificate.lattice.canonical_form().params == params, (
        out.certificate.lattice.params
    )
    assert search.verify_certificate(interval(y), out.certificate)


def _suite_smoke():
    def interval_counts():
        iv = interval(build_system("A2").longest_element())
        assert len(iv.vertices) == 6
        assert len(iv.bruhat_edges) == 9
        assert len(iv.hasse_edges) == 8

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
                total = sum(
                    (r_polynomial(x, w) for w in iv.vertices if sys.bruhat_leq(x, w) and sys.bruhat_leq(w, y)),
                    IntPoly(),
                )
                assert total == q_pow[d]
                if d <= 2:
                    expected = IntPoly((1,))
                    for _ in range(d):
                        expected = expected * IntPoly((-1, 1))
                    assert r_polynomial(x, y) == expected

    def small_search():
        _found_with_params(build_system("A2"), build_system("A2").longest_element(), (1, 2))

    def boolean():
        a3 = build_system("A3")
        res = cx.standard_parabolic_coxeter_cubulation(a3.element((1, 2, 3)))
        assert search.verify_certificate(res.interval, res.certificate)

    def growth_coeffs():
        t = growth.poincare_truncation(build_system("Atilde2"), 4)
        assert t.coeffs == (1, 3, 6, 9, 12)

    return [
        ("interval_counts", interval_counts),
        ("kl_spot", kl_spot),
        ("dihedral_r", dihedral_r),
        ("small_search", small_search),
        ("boolean_construction", boolean),
        ("growth_coefficients", growth_coeffs),
    ]


def _suite_classical():
    checks = []
    for n in (1, 2, 3, 4):
        tag = f"A{n}"
        params = tuple(range(1, n + 1))
        checks.append(
            (
                f"search_{tag}_w0",
                lambda tag=tag, params=params: _found_with_params(
                    build_system(tag), build_system(tag).longest_element(), params
                ),
            )
        )
    for n in (2, 3):
        tag = f"B{n}"
        params = tuple(range(1, 2 * n, 2))
        checks.append(
            (
                f"search_{tag}_w0",
                lambda tag=tag, params=params: _found_with_params(
                    build_system(tag), build_system(tag).longest_element(), params
                ),
            )
        )

    def forest(tag):
        res = cx.path_forest_cubulation(build_system(tag))
        assert search.verify_certificate(res.interval, res.certificate)

    for tag in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4"):
        checks.append((f"path_forest_{tag}", lambda tag=tag: forest(tag)))
    return checks


def _suite_atilde2():
    system = build_system("Atilde2")

    def sizes():
        for m in range(9):
            iv = interval(cx.y_m(system, m))
            assert len(iv.vertices) == 3 * (m + 1) * (m + 2), m

    def constructions():
        for m in range(1, 9):
            res = cx.atilde2_cubulation(system, m)
            assert search.verify_certificate(res.interval, res.certificate), m

    def searches():
        for m in range(5):
            y = cx.y_m(system, m)
            out = search.cubulate(y)
            assert out.status == search.FOUND, m
            assert search.verify_certificate(interval(y), out.certificate), m

    return [
        ("interval_sizes", sizes),
        ("recursive_constructions", constructions),
        ("independent_searches", searches),
    ]


def _suite_growth():
    def bott_agreement():
        for tag in ("Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2"):
            system = build_system(tag)
            assert growth.bott_truncation(system, 10) == growth.poincare_truncation(
                system, 10
            ), tag

    def growth_identity():
        one_minus_z = IntPoly((1, -1))
        for tag in ("Atilde1", "Atilde2", "Gtilde2", "A3"):
            system = build_system(tag)
            gamma = growth.volume_growth_truncation(system, 10)
            assert gamma.mul_poly(one_minus_z) == growth.poincare_truncation(system, 10)

    def affine_coeffs():
        t = growth.poincare_truncation(build_system("Atilde2"), 5)
        assert t.coeffs == (1, 3, 6, 9, 12, 15)

    def ball_in_interval():
        system = build_system("Atilde2")
        L = growth.minimal_nonspherical_L(system)
        assert L == 4
        rng = random.Random(20240823)
        for _ in range(20):
            k = rng.choice((1, 2))
            target = k * L + rng.randrange(4)
            w = system.identity
            while w.length < target:
                g = system.generator(rng.choice(system.labels))
                if (w * g).length > w.length:
                    w = w * g
            assert growth.ball_in_interval_check(system, k, w)

    return [
        ("bott_agreement", bott_agreement),
        ("growth_identity", growth_identity),
        ("affine_coefficients", affine_coeffs),
        ("ball_in_interval_samples", ball_in_interval),
    ]


def _suite_negative():
    def f4_exhausted():
        system = build_system("F4")
        w0 = system.longest_element()
        assert all_trivial(w0)
        out = search.cubulate(w0)
        assert out.status == search.EXHAUSTED, out.status
        assert out.stats["shapes_tried"] == 1, out.stats
        assert out.stats["nodes_expanded"] == 390_677, out.stats

    return [("f4_w0_exhausted", f4_exhausted)]


_SUITES = {
    "smoke": _suite_smoke,
    "classical": _suite_classical,
    "atilde2": _suite_atilde2,
    "growth": _suite_growth,
    "negative": _suite_negative,
}


def run_suite(name: str) -> dict:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    checks = _SUITES[name]()
    results = []
    for check_name, thunk in checks:
        try:
            thunk()
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
