"""End-to-end acceptance checks for the full toolchain.

Each test class exercises one headline guarantee: closed-form cubulations,
search positives and negatives, the Kazhdan-Lusztig triviality
characterizations, growth series identities, and agreement between the
pruned search and a naive reference enumeration.
"""

from __future__ import annotations

import random
from math import comb

import pytest

from bruhat_cubulator import constructions as cx
from bruhat_cubulator import growth
from bruhat_cubulator.bruhat import interval
from bruhat_cubulator.kl import (
    KLTable,
    all_trivial,
    carrell_peterson_report,
    kl_polynomial,
    r_polynomial,
)
from bruhat_cubulator.polynomials import ONE, IntPoly
from bruhat_cubulator.search import cubulate, verify_certificate

import oracles
from conftest import system


def elements_up_to(sys, max_length):
    return [el for layer in sys.ball_layers(max_length) for el in layer]


def dihedral_r(d):
    """R_{x,y} for x <= y in a dihedral group with l(y) - l(x) = d."""
    if d == 0:
        return ONE
    qm1 = IntPoly((-1, 1))
    total = IntPoly()
    for k in range((d - 1) // 2 + 1):
        term = IntPoly((0,) * k + (comb(d - 1 - k, k),))
        for _ in range(d - 2 * k):
            term = term * qm1
        total = total + term
    return total


class TestLongestElementCubulations:
    """Criterion 1: search positives with exact canonical lattice shapes."""

    @pytest.mark.parametrize(
        "tag,params",
        [
            ("A1", (1,)),
            ("A2", (1, 2)),
            ("A3", (1, 2, 3)),
            ("A4", (1, 2, 3, 4)),
            ("B2", (1, 3)),
            ("B3", (1, 3, 5)),
        ],
    )
    def test_found_with_canonical_params(self, tag, params):
        sys = system(tag)
        iv = interval(sys.longest_element())
        out = cubulate(sys.longest_element(), iv=iv)
        assert out.status == "Found"
        assert out.certificate.lattice.canonical_form().params == params
        assert verify_certificate(iv, out.certificate)


class TestConstructionSearchCrossValidation:
    """Criterion 2: closed-form certificates verify; search agrees where run."""

    @pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4"])
    def test_path_forest_certificates_verify(self, tag):
        res = cx.path_forest_cubulation(system(tag))
        assert verify_certificate(res.interval, res.certificate)

    @pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4", "B2", "B3"])
    def test_search_agrees_on_overlap(self, tag):
        sys = system(tag)
        res = cx.path_forest_cubulation(sys)
        out = cubulate(sys.longest_element())
        assert out.status == "Found"
        assert out.certificate.lattice.canonical_form() == res.lattice.canonical_form()


class TestNegativeF4:
    """Criterion 3: a trivial table does not guarantee a cubulation."""

    def test_f4_exhausted_but_trivial(self):
        sys = system("F4")
        w0 = sys.longest_element()
        assert all_trivial(w0)
        out = cubulate(w0)
        assert out.status == "Exhausted"
        assert out.stats["shapes_tried"] == 1, out.stats
        assert out.stats["nodes_expanded"] == 390_677, out.stats


class TestAffineFamily:
    """Criterion 4: the infinite cubulated family in the rank-3 affine system."""

    def test_interval_sizes(self, atilde2):
        for m in range(9):
            y = cx.y_m(atilde2, m) if m > 0 else atilde2.element((1, 2, 1))
            assert len(interval(y)) == 3 * (m + 1) * (m + 2)

    def test_construction_certificates(self, atilde2):
        for m in range(1, 9):
            res = cx.atilde2_cubulation(atilde2, m)
            assert res.lattice.params == (2, m, m + 1)
            assert verify_certificate(res.interval, res.certificate)

    def test_search_confirms_small_members(self, atilde2):
        for m in range(1, 5):
            out = cubulate(cx.y_m(atilde2, m))
            assert out.status == "Found"


CP_RANGES = [("A3", 7), ("B3", 7), ("Atilde2", 9)]


class TestCarrellPetersonAgreement:
    """Criterion 5: the four triviality criteria agree on every element."""

    @pytest.mark.parametrize("tag,max_length", CP_RANGES)
    def test_four_way_agreement(self, tag, max_length):
        sys = system(tag)
        for y in elements_up_to(sys, max_length):
            report = carrell_peterson_report(y)
            flags = {
                report.all_trivial,
                report.edge_count_ok,
                report.average_length_ok,
                report.palindromic,
            }
            assert len(flags) == 1, y
            assert report.trivial == report.all_trivial

    @pytest.mark.parametrize("tag,max_length", CP_RANGES)
    def test_positivity_and_degree_bound(self, tag, max_length):
        sys = system(tag)
        for y in elements_up_to(sys, max_length):
            table = KLTable(interval(y))
            iv = table.interval
            top = len(iv.vertices) - 1
            for x_id in range(top + 1):
                if not iv.leq_ids(x_id, top):
                    continue
                p = table.P(x_id, top)
                d = iv.lengths[top] - iv.lengths[x_id]
                assert all(c >= 0 for c in p.coeffs), (y, x_id)
                assert 2 * p.degree <= max(d - 1, 0), (y, x_id)


class TestCubulationImpliesTrivial:
    """Criterion 6: Found implies a trivial table, with the affine converse."""

    @pytest.mark.parametrize(
        "tag,max_length",
        CP_RANGES + [("I2(5)", None), ("I2(7)", None), ("Atilde1", 9)],
    )
    def test_found_implies_trivial(self, tag, max_length):
        sys = system(tag)
        if max_length is None:
            max_length = sys.longest_element().length
        for y in elements_up_to(sys, max_length):
            if cubulate(y).status == "Found":
                assert all_trivial(y), y

    def test_trivial_implies_found_atilde2(self, atilde2):
        for y in elements_up_to(atilde2, 9):
            if all_trivial(y):
                assert cubulate(y).status == "Found", y

    def test_trivial_classes_have_listed_representatives(self, atilde2):
        # every trivial element up to length 9 should belong to the
        # relabeling class of one of the listed representatives: 1, s1,
        # s1 s2, s1 s2 s0, s1 s2 s1 s0, s0 s1 s2 s1 and y_0, ..., y_3
        pairs = cx.atilde2_trivial_enumeration(atilde2, 9)
        matched = {y for y, _ in pairs}
        trivial = {y for y in elements_up_to(atilde2, 9) if all_trivial(y)}
        assert matched == trivial


class TestKLSpotValues:
    """Criterion 7: pinned polynomial values with zero tolerance."""

    def test_spot_value_two_independent_ways(self, a3):
        y = a3.element((2, 1, 3, 2))
        assert kl_polynomial(a3.identity, y) == IntPoly((1, 1))
        iv = interval(y)
        solved = oracles.kl_by_linear_solve(iv)
        assert solved[0] == IntPoly((1, 1))
        assert solved == KLTable(iv).top_column()

    @pytest.mark.parametrize("tag", ["I2(3)", "I2(4)", "I2(5)"])
    def test_dihedral_r_closed_form(self, tag):
        # in a dihedral group R_{x,y} depends only on d = l(y) - l(x):
        # R = sum_k C(d-1-k, k) q^k (q-1)^(d-2k) for x < y, which is
        # (q-1)^d only for d <= 2; the k = 2 term first appears at d = 5
        sys = system(tag)
        iv = interval(sys.longest_element())
        for x in iv.vertices:
            for y in iv.vertices:
                if not sys.bruhat_leq(x, y):
                    continue
                expected = dihedral_r(y.length - x.length)
                assert r_polynomial(x, y) == expected, (x, y)


class TestGrowth:
    """Criterion 8: exact growth-series identities on truncations."""

    def test_bott_matches_enumeration(self):
        for tag in ("Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2"):
            sys = system(tag)
            assert growth.bott_truncation(sys, 10) == growth.poincare_truncation(sys, 10), tag

    def test_volume_growth_identity(self):
        one_minus_z = IntPoly((1, -1))
        for tag in ("Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2"):
            sys = system(tag)
            gamma = growth.volume_growth_truncation(sys, 10)
            assert gamma.mul_poly(one_minus_z) == growth.poincare_truncation(sys, 10), tag

    def test_atilde2_coefficients(self, atilde2):
        coeffs = growth.poincare_truncation(atilde2, 6).coeffs
        assert coeffs == (1, 3, 6, 9, 12, 15, 18)

    def test_ball_in_interval_samples(self, atilde2):
        assert growth.minimal_nonspherical_L(atilde2) == 4
        rng = random.Random(20260823)
        for _ in range(20):
            k = rng.choice((1, 2))
            target = 4 * k + rng.randrange(3)
            w = atilde2.identity
            while w.length < target:
                g = atilde2.generator(rng.choice(atilde2.labels))
                if (w * g).length > w.length:
                    w = w * g
            assert growth.ball_in_interval_check(atilde2, k, w)


class TestSearchOracleCompleteness:
    """Criterion 9: pruning and symmetry breaking never change the verdict."""

    @pytest.mark.parametrize("tag", ["A3", "Atilde2"])
    def test_matches_naive_enumeration(self, tag):
        sys = system(tag)
        for y in elements_up_to(sys, 5):
            assert cubulate(y).status == oracles.naive_cubulate_status(y), y
