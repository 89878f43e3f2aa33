from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bruhat_cubulator import kl
from bruhat_cubulator.bruhat import BruhatInterval, interval
from bruhat_cubulator.cli import main
from bruhat_cubulator.constructions import y_m
from bruhat_cubulator.kl import (
    KLConsistencyError,
    KLTable,
    all_trivial,
    carrell_peterson_report,
    kl_polynomial,
    kl_table,
    r_polynomial,
)
from bruhat_cubulator.polynomials import ONE, ZERO, IntPoly

import oracles
from conftest import system

Q = IntPoly((0, 1))
QM1 = IntPoly((-1, 1))


def r_random_descent(x, y, rng):
    """R-polynomial recursion with a randomized descent choice."""
    if x == y:
        return ONE
    sys = x.system
    if not sys.bruhat_leq(x, y):
        return ZERO
    s = rng.choice(sorted(sys.right_descents(y)))
    g = sys.generator(s)
    ys = y * g
    if s in sys.right_descents(x):
        return r_random_descent(x * g, ys, rng)
    return Q * r_random_descent(x * g, ys, rng) + QM1 * r_random_descent(x, ys, rng)


class TestRPolynomials:
    def test_base_cases(self, a3):
        w = a3.element((1, 2))
        assert r_polynomial(w, w) == ONE
        assert r_polynomial(a3.identity, a3.generator(1)) == QM1
        assert r_polynomial(w, a3.identity) == ZERO

    def test_descent_choice_independent(self, b3):
        # the integer tier on a ball, the ring tier (H3) and the affine tier
        # (y_2 in Atilde2) on lower intervals
        rng = random.Random(7)
        h3 = system("H3")
        atilde2 = system("Atilde2")
        for elements in (
            [e for layer in b3.ball_layers(4) for e in layer],
            interval(h3.element((1, 2, 1, 2, 3, 2, 1))).vertices,
            interval(y_m(atilde2, 2)).vertices,
        ):
            for x in elements:
                for y in elements:
                    assert r_polynomial(x, y) == r_random_descent(x, y, rng), (x, y)

    def test_degree_and_q1_evaluation(self, a3):
        iv = interval(a3.longest_element())
        for x in iv.vertices:
            for y in iv.vertices:
                if a3.bruhat_leq(x, y):
                    r = r_polynomial(x, y)
                    assert r.degree == y.length - x.length
                    assert r(1) == (1 if x == y else 0)

    def test_sum_identity_dihedral(self):
        # all P are 1 in dihedral groups, so the R-polynomials over [x, y]
        # must sum to q^(l(y) - l(x))
        for tag in ("I2(3)", "I2(4)"):
            sys = system(tag)
            iv = interval(sys.longest_element())
            for x in iv.vertices:
                for y in iv.vertices:
                    if not sys.bruhat_leq(x, y):
                        continue
                    total = ZERO
                    for w in iv.vertices:
                        if sys.bruhat_leq(x, w) and sys.bruhat_leq(w, y):
                            total = total + r_polynomial(x, w)
                    d = y.length - x.length
                    assert total == IntPoly((0,) * d + (1,))

    def test_boolean_interval_form(self):
        # R = (q-1)^d whenever [x, y] is boolean; all d <= 2 pairs qualify
        sys = system("I2(4)")
        iv = interval(sys.longest_element())
        for x in iv.vertices:
            for y in iv.vertices:
                d = y.length - x.length
                if sys.bruhat_leq(x, y) and d <= 2:
                    expected = ONE
                    for _ in range(d):
                        expected = expected * QM1
                    assert r_polynomial(x, y) == expected


class TestKLPolynomials:
    def test_not_below_is_zero(self, a3):
        assert kl_polynomial(a3.generator(3), a3.element((1, 2))) == ZERO

    def test_longest_element_all_trivial(self):
        for tag in ("A3", "B3"):
            sys = system(tag)
            table = kl_table(sys.longest_element())
            assert all(p == ONE for p in table.top_column())

    @pytest.mark.parametrize(
        "tag,word",
        [
            ("A3", (1, 2, 1, 3, 2, 1)),
            ("B3", (2, 1, 2, 3, 2)),
            ("Atilde2", (1, 2, 1, 0, 2)),
            ("Atilde2", (0, 1, 0, 2)),
            ("H3", (1, 2, 1, 2, 3)),
        ],
    )
    def test_linear_solve_oracle(self, tag, word):
        iv = interval(system(tag).element(word))
        assert oracles.kl_by_linear_solve(iv) == KLTable(iv).top_column()

    def test_degree_bound_and_positivity(self, b3):
        table = kl_table(b3.element((2, 1, 2, 3, 2, 1)))
        iv = table.interval
        top = len(iv.vertices) - 1
        for x_id in range(top + 1):
            p = table.P(x_id, top)
            d = iv.lengths[top] - iv.lengths[x_id]
            assert 2 * p.degree <= max(d - 1, 0)
            assert all(c >= 0 for c in p.coeffs)
            assert p(0) == 1

    def test_table_interior_pairs(self):
        # every column P_{-,y'} of the table against the top column of a
        # table built on [1, y'] itself
        for tag, word in (("A3", (2, 1, 3, 2)), ("B3", None), ("H3", (1, 2, 1, 2, 1, 3, 2, 1, 2, 1))):
            sys = system(tag)
            table = kl_table(sys.longest_element() if word is None else sys.element(word))
            iv = table.interval
            for y_id in range(len(iv.vertices)):
                sub = kl_table(iv.vertices[y_id])
                for x_id in range(y_id + 1):
                    if iv.leq_ids(x_id, y_id):
                        x_sub = sub.interval.id_of(iv.vertices[x_id].iword)
                        assert table.P(x_id, y_id) == sub.P(x_sub, len(sub.interval) - 1)


class TestKLTable:
    @pytest.mark.parametrize(
        "tag,name",
        [("A4", "w0"), ("B3", "w0"), ("H3", "1 2 1 2 1 3 2 1 2 1"), ("Atilde2", "y_m:3")],
    )
    def test_matches_lazy_r_sum(self, tag, name):
        sys = system(tag)
        if name == "w0":
            y = sys.longest_element()
        elif name == "y_m:3":
            y = y_m(sys, 3)
        else:
            y = sys.element(int(a) for a in name.split())
        iv = interval(y)
        table, reference = KLTable(iv), oracles.RSumKLTable(iv)
        for y_id in range(len(iv)):
            for x_id in range(len(iv)):
                assert table.P(x_id, y_id) == reference.P(x_id, y_id), (x_id, y_id)
                assert table.R(x_id, y_id) == reference.R(x_id, y_id), (x_id, y_id)

    def test_pairs_matches_lookups(self, b3):
        table = KLTable(interval(b3.longest_element()))
        iv = table.interval
        n = len(iv)
        expected = [
            (x, y, table.P(x, y).coeffs, table.R(x, y).coeffs)
            for y in range(n)
            for x in range(n)
            if iv.leq_ids(x, y)
        ]
        assert list(KLTable(iv).pairs()) == expected

    def test_pairs_reads_the_memo(self, b3, monkeypatch):
        # the benchmark's traced pass reads every P and R first, then kl_doc
        # reads pairs(): no P or R is computed again
        table = KLTable(interval(b3.longest_element()))
        iv = table.interval
        for y in range(len(iv)):
            for x in range(len(iv)):
                table.P(x, y)
                table.R(x, y)
        r_sizes = list(map(len, table._r))

        def recovering(*args):
            raise AssertionError("a P was computed again")

        monkeypatch.setattr(kl, "_recover", recovering)
        assert len(list(table.pairs())) == sum(map(int.bit_count, iv.below_masks))
        assert list(map(len, table._r)) == r_sizes

    @pytest.mark.parametrize("ids", [(0, -1), (-1, 0), (0, 24), (24, 23), (100, 0)])
    def test_ids_outside_the_interval(self, a3, ids):
        table = KLTable(interval(a3.longest_element()))
        bad = next(i for i in ids if not 0 <= i < 24)
        for lookup in (table.P, table.R):
            with pytest.raises(ValueError, match=rf"vertex id {bad} "):
                lookup(*ids)

    @pytest.mark.parametrize(
        "shift,message",
        [
            # the constant term: P is read off the high half, the low half disagrees
            ((1,), "defining identity fails"),
            # q - q^2 twice over makes the high half read P = 1 - 2q, which
            # satisfies the identity
            ((0, 2, -2), "negative coefficient in P"),
            ((0, 0, 0, 1), "bad top coefficient"),
        ],
    )
    def test_checks_fire_on_a_corrupted_r(self, a3, shift, message):
        # P_{e,y} = 1 for every y of length 3 in A3, and R_{e,y} is the
        # w = y term of the sum that recovers it
        table = KLTable(interval(a3.longest_element()))
        y_id = table.interval.lengths.index(3)
        r = table.R(0, y_id)
        assert r.degree == 3
        table._r[0][y_id] = (r + IntPoly(shift)).coeffs
        with pytest.raises(KLConsistencyError, match=rf"{message}.* \(0,{y_id}\)"):
            table.P(0, y_id)


class TestTriviality:
    def test_fast_path_matches_definition(self, atilde2):
        for layer in atilde2.ball_layers(5):
            for y in layer:
                assert all_trivial(y) == carrell_peterson_report(y).all_trivial

    def test_b_equals_N(self, a3):
        assert carrell_peterson_report(a3.longest_element()).all_trivial
        assert not carrell_peterson_report(a3.element((2, 1, 3, 2))).all_trivial


class TestCarrellPeterson:
    def test_negative_example(self, a3):
        report = carrell_peterson_report(a3.element((2, 1, 3, 2)))
        assert not report.all_trivial
        assert report.a_y == Fraction(29, 14)
        assert (
            report.all_trivial
            == report.edge_count_ok
            == report.average_length_ok
            == report.palindromic
            is False
        )

    def test_positive_example(self, b3):
        report = carrell_peterson_report(b3.longest_element())
        assert report.all_trivial
        assert report.a_y == Fraction(9, 2)

    def test_average_is_exact(self, atilde2):
        report = carrell_peterson_report(atilde2.element((0, 1, 0, 2)))
        assert report.all_trivial
        assert report.a_y == Fraction(2, 1)

    def test_report_builds_no_labelled_edges(self, a3, capsys, monkeypatch):
        # out-degrees come from the one-letter deletions, so neither the
        # report nor the kl command makes the triples or their reflections
        def refuse(self):
            raise AssertionError("bruhat_edges was built")

        monkeypatch.setattr(BruhatInterval, "bruhat_edges", property(refuse))
        assert carrell_peterson_report(a3.longest_element()).edge_count_ok
        assert not carrell_peterson_report(a3.element((2, 1, 3, 2))).edge_count_ok
        assert main(["kl", "--system", "B3", "--element", "w0"]) == 0
        assert capsys.readouterr().err == ""
