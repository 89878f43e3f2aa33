"""End-to-end acceptance checks for the full toolchain.

Each test class exercises one headline guarantee: closed-form cubulations,
search positives and negatives, the Kazhdan-Lusztig triviality
characterizations, growth series identities, and agreement between the
pruned search and a naive reference enumeration.  Where a CLI suite makes
the same check, the test calls the suite's check function, so each fact
is checked in one place; oracle-based checks stay here.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import pytest

from bruhat_cubulator import constructions as cx
from bruhat_cubulator import suites
from bruhat_cubulator.bruhat import interval
from bruhat_cubulator.kl import KLTable, all_trivial, r_polynomial, table_report
from bruhat_cubulator.polynomials import ONE, IntPoly
from bruhat_cubulator.search import cubulate

import oracles
from conftest import system


def elements_up_to(sys, max_length):
    return [el for layer in sys.ball_layers(max_length) for el in layer]


@lru_cache(maxsize=None)
def kl_tables(tag, max_length):
    """(y, KLTable of [1, y]) for every y up to max_length, built once per run."""
    return [(y, KLTable(interval(y))) for y in elements_up_to(system(tag), max_length)]


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

    @pytest.mark.parametrize("tag,params", suites.LONGEST_ELEMENT_PARAMS)
    def test_found_with_canonical_params(self, tag, params):
        suites.longest_element_found(tag, params)


class TestConstructionSearchCrossValidation:
    """Criterion 2: closed-form certificates verify; search agrees where run."""

    @pytest.mark.parametrize("tag", suites.PATH_FOREST_TAGS)
    def test_path_forest_certificates_verify(self, tag):
        suites.path_forest_verifies(tag)

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
        suites.f4_w0_exhausted()


class TestAffineFamily:
    """Criterion 4: the infinite cubulated family in the rank-3 affine system."""

    def test_interval_sizes(self):
        suites.atilde2_interval_sizes()

    def test_construction_certificates(self):
        suites.atilde2_constructions()

    def test_search_confirms_small_members(self):
        suites.atilde2_searches()


CP_RANGES = [("A3", 7), ("B3", 7), ("Atilde2", 9)]


class TestCarrellPetersonAgreement:
    """Criterion 5: the four triviality criteria agree on every element."""

    @pytest.mark.parametrize("tag,max_length", CP_RANGES)
    def test_four_way_agreement(self, tag, max_length):
        for y, table in kl_tables(tag, max_length):
            report = table_report(table)
            flags = {
                report.all_trivial,
                report.edge_count_ok,
                report.average_length_ok,
                report.palindromic,
            }
            assert len(flags) == 1, y

    @pytest.mark.parametrize("tag,max_length", CP_RANGES)
    def test_positivity_and_degree_bound(self, tag, max_length):
        for y, table in kl_tables(tag, max_length):
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
        suites.kl_spot()
        iv = interval(a3.element((2, 1, 3, 2)))
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
        suites.bott_agreement()

    def test_volume_growth_identity(self):
        suites.growth_identity()

    def test_atilde2_coefficients(self):
        suites.atilde2_coefficients(6)

    def test_ball_in_interval_samples(self):
        suites.ball_in_interval_samples()


class TestSearchOracleCompleteness:
    """Criterion 9: pruning and symmetry breaking never change the verdict."""

    @pytest.mark.parametrize("tag", ["A3", "Atilde2"])
    def test_matches_naive_enumeration(self, tag):
        sys = system(tag)
        for y in elements_up_to(sys, 5):
            assert cubulate(y).status == oracles.naive_cubulate_status(y), y
