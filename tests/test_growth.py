from __future__ import annotations

import random

import pytest

from bruhat_cubulator import growth
from bruhat_cubulator.polynomials import IntPoly

import oracles
from conftest import system

# every affine family the type parser accepts: each at its smallest rank, and
# at a larger one too where the family has more than one
AFFINE_TAGS = (
    "Atilde1", "Atilde2", "Atilde3", "Atilde5",
    "Btilde3", "Btilde5", "Ctilde2", "Ctilde4", "Dtilde4", "Dtilde6",
    "Etilde6", "Etilde7", "Etilde8", "Ftilde4", "Gtilde2",
)


class TestExponents:
    @pytest.mark.parametrize(
        "tag",
        [
            ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
            ("B", 2), ("B", 3), ("B", 4),
            ("D", 4),
            ("F", 4),
            ("G", 2),
            ("H", 3),
            ("I2", 5), ("I2", 7), ("I2", 8),
        ],
    )
    def test_identities_against_enumeration(self, tag):
        # product of (e_i + 1) is the group order; sum of e_i is the number
        # of reflections; both checked against direct enumeration
        letter, n = tag
        label = f"{letter}{n}" if letter != "I2" else f"I2({n})"
        sys = system(label)
        exps = growth.exponents(tag)
        radius = sys.longest_element().length
        elements = [el for layer in sys.ball_layers(radius) for el in layer]
        order = 1
        for e in exps:
            order *= e + 1
        assert order == len(elements)
        assert sum(exps) == sum(1 for el in elements if sys.is_reflection(el))

    def test_large_types_product_identity(self):
        # orders too big to enumerate, checked against the known group orders
        known = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600, ("H", 4): 14400}
        for tag, order in known.items():
            prod = 1
            for e in growth.exponents(tag):
                prod *= e + 1
            assert prod == order

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            growth.exponents(("Z", 3))


class TestBallSizes:
    def test_examples(self, a2, atilde2):
        assert growth.ball_sizes(atilde2, 3) == [1, 4, 10, 19]
        assert growth.ball_sizes(a2, 5) == [1, 3, 5, 6, 6, 6]
        assert growth.ball_sizes(system("Atilde1"), 3) == [1, 3, 5, 7]

    def test_strictly_increasing_when_infinite(self):
        for tag in ("Atilde2", "Gtilde2", "Atilde1"):
            beta = growth.ball_sizes(system(tag), 8)
            assert all(b > a for a, b in zip(beta, beta[1:]))

    def test_negative_radius(self, a2):
        with pytest.raises(ValueError):
            growth.ball_sizes(a2, -1)


class TestSeries:
    def test_poincare_examples(self, a3, atilde2):
        assert growth.poincare_truncation(atilde2, 4) == (1, 3, 6, 9, 12)
        assert growth.poincare_truncation(system("Atilde1"), 3) == (1, 2, 2, 2)
        # a finite group's series is its length generating polynomial
        from bruhat_cubulator.bruhat import interval, poincare_polynomial

        p = poincare_polynomial(interval(a3.longest_element()))
        assert IntPoly(growth.poincare_truncation(a3, 6)) == p

    def test_growth_identity(self):
        one_minus_z = IntPoly((1, -1))
        for tag in ("Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2", "A3", "B3"):
            sys = system(tag)
            gamma = growth.volume_growth_truncation(sys, 12)
            w = growth.poincare_truncation(sys, 12)
            # order + 1 coefficients, also past a finite group's degree (A3, B3)
            assert len(gamma) == len(w) == 13, tag
            assert IntPoly((IntPoly(gamma) * one_minus_z).coeffs[:13]) == IntPoly(w), tag

    def test_bott_agreement(self):
        for tag in ("Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2", "Btilde3", "Dtilde4", "Ftilde4"):
            sys = system(tag)
            bott = growth.bott_truncation(sys, 10)
            assert len(bott) == 11, tag
            assert bott == growth.poincare_truncation(sys, 10), tag

    @pytest.mark.parametrize("tag", AFFINE_TAGS)
    def test_bott_matches_long_division(self, tag):
        # order 40 reaches every factor (1 - z^(e+1)); the largest e is 29, in Etilde8
        sys = system(tag)
        assert growth.bott_truncation(sys, 40) == oracles.bott_by_long_division(sys, 40)

    def test_bott_rejects_non_affine(self, a3):
        with pytest.raises(ValueError):
            growth.bott_truncation(a3, 5)
        with pytest.raises(ValueError):
            growth.bott_truncation(system("I2(7)"), 5)


class TestMinimalNonspherical:
    def test_values(self, atilde2):
        assert growth.minimal_nonspherical_L(atilde2) == 4
        assert growth.minimal_nonspherical_L(system("Atilde1")) == 2
        assert growth.minimal_nonspherical_L(system("Gtilde2")) == 7

    def test_finite_rejected(self, a3):
        with pytest.raises(ValueError):
            growth.minimal_nonspherical_L(a3)

    def test_non_minimal_rejected(self):
        # an affine system of rank 5 has an infinite proper parabolic? no --
        # all proper parabolics of an irreducible affine system are finite,
        # so use a reducible infinite system instead
        from bruhat_cubulator.coxeter import CoxeterSystem

        sys = CoxeterSystem((0, 1, 2, 3), {(0, 1): 3, (0, 2): 3, (1, 2): 3})
        with pytest.raises(ValueError):
            growth.minimal_nonspherical_L(sys)


class TestBallInInterval:
    def test_examples(self, atilde2):
        from bruhat_cubulator.constructions import y_m

        assert growth.ball_in_interval_check(atilde2, 1, y_m(atilde2, 1))
        assert growth.ball_in_interval_check(atilde2, 2, y_m(atilde2, 3))
        assert growth.ball_in_interval_check(atilde2, 0, atilde2.identity)

    def test_precondition_enforced(self, atilde2):
        with pytest.raises(ValueError):
            growth.ball_in_interval_check(atilde2, 1, atilde2.element((0, 1)))

    def test_random_samples(self, atilde2):
        L = growth.minimal_nonspherical_L(atilde2)
        rng = random.Random(11)
        for _ in range(20):
            k = rng.choice((1, 2))
            target = k * L + rng.randrange(3)
            w = atilde2.identity
            while w.length < target:
                g = atilde2.generator(rng.choice(atilde2.labels))
                if (w * g).length > w.length:
                    w = w * g
            assert growth.ball_in_interval_check(atilde2, k, w)


class TestProbe:
    def test_atilde2_stabilizes(self, atilde2):
        report = growth.growth_quantum_probe(atilde2, growth.poincare_truncation(atilde2, 10))
        assert report.stabilization_index is not None
        assert report.stabilized_shape == (3,)
        assert report.f_coeffs[:4] == (1, 0, 0, -1)

    def test_atilde1_stabilizes(self):
        sys = system("Atilde1")
        report = growth.growth_quantum_probe(sys, growth.poincare_truncation(sys, 10))
        assert report.stabilized_shape == (2,)

    def test_gtilde2_does_not_stabilize(self):
        sys = system("Gtilde2")
        report = growth.growth_quantum_probe(sys, growth.poincare_truncation(sys, 10))
        assert report.stabilization_index is None
        assert report.shapes_by_order[10] == ()

    @pytest.mark.parametrize("tag", ["Atilde1", "Atilde2", "Atilde3", "Ctilde2", "Gtilde2", "Btilde3"])
    def test_shapes_match_brute_force(self, tag):
        sys = system(tag)
        report = growth.growth_quantum_probe(sys, growth.poincare_truncation(sys, 12))
        assert report.shapes_by_order == oracles.brute_force_shapes_by_order(sys, 12)

    def test_shape_longer_than_rank_is_refused(self):
        # a stand-in of rank 1 whose F(z) = (1 - z) W(z) is (1 - z^2)(1 - z^3):
        # the exponents are non-negative, but two factors exceed |S| = 1
        class RankOne:
            rank = 1

            def is_finite(self):
                return False

            def ball_layer_counts(self, order):
                return ([1, 1, 0, -1, -1] + [0] * order)[: order + 1]

        report = growth.growth_quantum_probe(RankOne(), growth.poincare_truncation(RankOne(), 6))
        assert report.shapes_by_order[2] == ((2,),)
        assert report.shapes_by_order[3] == ()
        assert report.shapes_by_order == oracles.brute_force_shapes_by_order(RankOne(), 6)

    def test_finite_rejected(self, a3):
        with pytest.raises(ValueError):
            growth.growth_quantum_probe(a3, growth.poincare_truncation(a3, 5))
