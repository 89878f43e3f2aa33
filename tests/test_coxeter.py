from __future__ import annotations

import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_cubulator.bruhat import BruhatInterval, interval
from bruhat_cubulator.constructions import y_m
from bruhat_cubulator.coxeter import build_system
from bruhat_cubulator.growth import ball_in_interval_check

import oracles
from conftest import system

SMALL_TAGS = ("A3", "B3", "I2(7)", "H3", "Atilde2")


def words(tag, max_len=10):
    labels = list(system(tag).labels)
    return st.lists(st.sampled_from(labels), max_size=max_len).map(tuple)


class TestConstruction:
    def test_labels(self):
        assert system("A3").labels == (1, 2, 3)
        assert system("Atilde2").labels == (0, 1, 2)
        assert system("I2(7)").m(1, 2) == 7
        assert system("Atilde1").m(0, 1) == math.inf
        assert system("Btilde3").m(2, 3) == 4

    def test_c_is_b_finite(self):
        assert system("C3").type_tag == "B3"

    def test_invalid_labels(self):
        for bad in ("Q9", "D3", "E9", "F5", "H5", "I2(2)", "Atilde0"):
            with pytest.raises(ValueError):
                build_system(bad)

    def test_explicit_matrix(self):
        sys = build_system([[1, 5], [5, 1]])
        assert sys.m(1, 2) == 5
        assert sys.longest_element().length == 5

    def test_arithmetic_tiers(self):
        for tag in ("A3", "B3", "G2", "Atilde2", "Atilde1"):
            assert system(tag).ring is None, tag
        assert system("H3").ring.L == 5
        assert system("I2(5)").ring.L == 5
        assert system("I2(7)").ring.L == 7


class TestWords:
    @settings(max_examples=40)
    @given(st.sampled_from(SMALL_TAGS), st.data())
    def test_roundtrip_matrix(self, tag, data):
        sys = system(tag)
        word = data.draw(words(tag))
        el = sys.element(word)
        assert oracles.word_matrix(sys, el.iword) == oracles.word_matrix(
            sys, tuple(sys._idx[a] for a in word)
        )
        assert el.length <= len(word)
        assert el.length % 2 == len(word) % 2

    @settings(max_examples=40)
    @given(st.sampled_from(SMALL_TAGS), st.data())
    def test_length_changes_by_one(self, tag, data):
        sys = system(tag)
        w = sys.element(data.draw(words(tag)))
        for a in sys.labels:
            ws = w * sys.generator(a)
            assert abs(ws.length - w.length) == 1
            assert (ws.length < w.length) == (a in sys.right_descents(w))

    def test_shortlex_minimality_bruteforce(self):
        # canonical word is the lexicographically first among all reduced words
        sys = system("A3")
        for el in [e for layer in sys.ball_layers(6) for e in layer]:
            k = el.length
            reduced = [
                w
                for w in product(sys.labels, repeat=k)
                if sys.element(w) is el and sys.element(w).word == tuple(w)
            ]
            all_words = [
                w for w in product(sys.labels, repeat=k) if sys.element(w) is el
            ]
            assert el.word == min(all_words) if all_words else el.word == ()
            assert reduced  # the canonical word itself is reduced

    def test_descent_sides(self, a3):
        w = a3.element((1, 2, 1, 3))
        assert a3.right_descents(w) == frozenset({1, 3})
        assert a3.left_descents(w) == frozenset({1, 2})
        assert a3.left_descents(w) == frozenset(
            a for a in a3.labels if (a3.generator(a) * w).length < w.length
        )


class TestGroupStructure:
    @pytest.mark.parametrize("tag", ["A3", "B3", "H3"])
    def test_multiplication_table_oracle(self, tag):
        sys = system(tag)
        table = oracles.multiplication_table(sys)
        for (a, b), ab in table.items():
            assert a * b is ab

    @pytest.mark.parametrize(
        "tag,order",
        [("A3", 24), ("B3", 48), ("H3", 120), ("I2(7)", 14), ("G2", 12), ("D4", 192)],
    )
    def test_group_orders(self, tag, order):
        sys = system(tag)
        radius = sys.longest_element().length
        assert sum(len(l) for l in sys.ball_layers(radius)) == order

    @pytest.mark.parametrize(
        "tag,length",
        [
            ("A1", 1),
            ("A3", 6),
            ("B3", 9),
            ("D4", 12),
            ("F4", 24),
            ("G2", 6),
            ("H3", 15),
            ("I2(7)", 7),
            ("E6", 36),
        ],
    )
    def test_longest_element_length(self, tag, length):
        assert system(tag).longest_element().length == length

    def test_longest_element_has_all_descents(self, b3):
        w0 = b3.longest_element()
        assert b3.right_descents(w0) == frozenset(b3.labels)

    def test_longest_element_infinite_raises(self, atilde2):
        with pytest.raises(ValueError):
            atilde2.longest_element()

    @pytest.mark.parametrize(
        "tag,count", [("A3", 6), ("B3", 9), ("H3", 15), ("I2(7)", 7)]
    )
    def test_reflection_count_is_positive_root_count(self, tag, count):
        sys = system(tag)
        radius = sys.longest_element().length
        refl = [
            el
            for layer in sys.ball_layers(radius)
            for el in layer
            if sys.is_reflection(el)
        ]
        assert len(refl) == count
        assert set(refl) == set(sys.reflections_up_to((radius + 1) // 2))

    def test_is_reflection_rejects(self, a3):
        assert not a3.is_reflection(a3.identity)
        assert not a3.is_reflection(a3.element((1, 2)))
        assert not a3.is_reflection(a3.element((1, 2, 3)))

    @pytest.mark.parametrize(
        "tag,top,count",
        [
            ("A3", "w0", 144),
            ("B3", "w0", 432),
            ("H3", "w0", 1_800),
            ("I2(5)", "w0", 50),
            ("G2", "w0", 72),
            ("D4", "w0", 2_304),
            ("Atilde2", "y_m:4", 990),
        ],
    )
    def test_key_test_matches_reflection_products(self, tag, top, count):
        """differ_by_reflection(u, v), which reads only the keys, agrees on
        every ordered pair of [1, y] with is_reflection(u^-1 v) and with
        membership of u^-1 v in the reflections enumerated as conjugates."""
        sys = system(tag)
        y = sys.longest_element() if top == "w0" else y_m(sys, int(top.removeprefix("y_m:")))
        # l(u^-1 v) <= 2 l(y) < 2 (l(y) + 1) - 1
        refl = set(sys.reflections_up_to(y.length + 1))
        verts = interval(y).vertices
        positive = 0
        for u in verts:
            for v in verts:
                t = u.inverse() * v
                expected = t in refl
                assert sys.differ_by_reflection(u, v) == sys.is_reflection(t) == expected, (u, v)
                positive += expected
        assert positive == count

    def test_reflections_conjugate_form(self, atilde2):
        for t in atilde2.reflections_up_to(4):
            assert t.length % 2 == 1
            assert t.inverse() is t
            assert atilde2.is_reflection(t)


class TestParabolic:
    @settings(max_examples=25)
    @given(st.sampled_from(("A3", "B3")), st.data())
    def test_factorize(self, tag, data):
        sys = system(tag)
        w = sys.element(data.draw(words(tag)))
        factors = sys.parabolic_factorize(w)
        assert len(factors) == sys.rank
        assert sum(f.length for f in factors) == w.length
        prod = sys.identity
        for k, f in enumerate(factors):
            assert sys.support(f) <= frozenset(sys.labels[: k + 1])
            assert sys.left_descents(f) <= {sys.labels[k]}
            prod = prod * f
        assert prod is w

    def test_known_example(self, a3):
        factors = a3.parabolic_factorize(a3.longest_element())
        assert [f.word for f in factors] == [(1,), (2, 1), (3, 2, 1)]


def chain(*bonds):
    """Coxeter matrix of a path diagram with these bond orders."""
    n = len(bonds) + 1
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(bonds):
        mat[i][i + 1] = mat[i + 1][i] = m
    return mat


def cycle(*bonds):
    """Coxeter matrix of a cycle diagram; bond k joins nodes k and k+1 mod n."""
    mat = chain(*bonds[:-1])
    mat[0][-1] = mat[-1][0] = bonds[-1]
    return mat


def star(*arms):
    """Coxeter matrix of the simply laced star T(p, q, r): arms of p-1, q-1, r-1 nodes."""
    n = 1 + sum(a - 1 for a in arms)
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    node = 1
    for a in arms:
        prev = 0
        for _ in range(a - 1):
            mat[prev][node] = mat[node][prev] = 3
            prev, node = node, node + 1
    return mat


def disjoint(a, b):
    """Coxeter matrix of the disjoint union of two diagrams."""
    n, k = len(a), len(b)
    return [row + [2] * k for row in a] + [[2] * n + row for row in b]


FINITE_TAGS = ("A1", "A2", "A7", "B2", "B6", "C3", "D4", "D7", "E6", "E7", "E8",
               "F4", "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(12)")
AFFINE_TAGS = ("Atilde1", "Atilde2", "Atilde5", "Btilde3", "Btilde5", "Ctilde2",
               "Ctilde4", "Dtilde4", "Dtilde6", "Etilde6", "Etilde7", "Etilde8",
               "Ftilde4", "Gtilde2")


class TestSubsystems:
    def test_classification(self):
        finite = [system(tag) for tag in FINITE_TAGS] + [
            build_system(matrix)
            for matrix in (chain(2), disjoint(chain(5, 3), chain(7)))
        ]
        infinite = [system(tag) for tag in AFFINE_TAGS] + [
            build_system(matrix)
            for matrix in (
                chain(3, 7),  # the triangle group (2, 3, 7)
                chain(4, 4),  # (2, 4, 4)
                cycle(3, 3, 3),
                cycle(4, 4, 4),  # a cycle through the asymmetric integer tier
                cycle(3, 3, 3, 3),
                chain(5, 3, 3, 3),  # H5
                chain(3, 4, 3, 3),  # F5
                star(2, 3, 6),
                chain(0),  # an infinite bond
            )
        ]
        for sys in finite:
            assert sys.is_finite(), sys
        for sys in infinite:
            assert not sys.is_finite(), sys

    def test_affine_parabolic_types(self):
        sys = system("Ftilde4")
        sub = sys.subsystem([1, 2, 3, 4])
        assert sub.is_finite()
        assert sub.longest_element().length == 24  # F4
        sub0 = sys.subsystem([0, 1, 2, 3])
        assert sub0.is_finite()
        assert sub0.longest_element().length == 16  # B4

    def test_disconnected_subsystem(self, a3):
        sub = a3.subsystem([1, 3])
        assert sub.is_finite()
        assert sub.longest_element().length == 2


class TestAutomorphisms:
    def test_a3_reversal(self, a3):
        perm = {1: 3, 2: 2, 3: 1}
        w = a3.element((1, 2))
        assert a3.diagram_automorphism(perm, w).word == (3, 2)

    def test_rejects_non_automorphism(self, b3):
        with pytest.raises(ValueError):
            b3.diagram_automorphism({1: 3, 2: 2, 3: 1}, b3.generator(1))

    def test_rejects_non_bijection(self, a3):
        with pytest.raises(ValueError):
            a3.diagram_automorphism({1: 1, 2: 1, 3: 3}, a3.generator(1))

    @pytest.mark.parametrize("tag,order", [("F4", 2), ("D4", 6), ("E6", 2), ("B4", 1), ("Atilde2", 6), ("E8", 1)])
    def test_group_orders(self, tag, order):
        sys = system(tag)
        autos = sys.diagram_automorphisms()
        assert len(autos) == order
        assert autos[0] == {a: a for a in sys.labels}

    @pytest.mark.parametrize("tag", ["A4", "B3", "D4", "F4", "Atilde3", "Dtilde4", "I2(5)"])
    def test_matches_every_permutation_filtered(self, tag):
        sys = system(tag)
        labels = sys.labels
        brute = [
            dict(zip(labels, p))
            for p in permutations(labels)
            if all(sys.m(p[i], p[j]) == sys.m(a, b) for i, a in enumerate(labels) for j, b in enumerate(labels))
        ]
        assert sys.diagram_automorphisms() == brute

    def test_f4_w0_orbits(self):
        sys = system("F4")
        w0 = sys.longest_element()
        fixing = [s for s in sys.diagram_automorphisms() if sys.diagram_automorphism(s, w0) is w0]
        orbits = {frozenset(s[a] for s in fixing) for a in sys.labels}
        assert orbits == {frozenset({1, 4}), frozenset({2, 3})}


class TestBruhatOrder:
    @settings(max_examples=20)
    @given(st.sampled_from(("A3", "Atilde2")), st.data())
    def test_leq_matches_subword_oracle(self, tag, data):
        sys = system(tag)
        y = sys.element(data.draw(words(tag, max_len=6)))
        below = oracles.subword_interval(y)
        for x in [e for layer in sys.ball_layers(min(6, y.length)) for e in layer]:
            assert sys.bruhat_leq(x, y) == (x in below)

    def test_leq_far_past_the_recursion_limit(self, atilde2):
        # l(y) = 1200: lifting along y's word, with no recursion
        y = atilde2.element((0, 1, 2) * 400)
        assert y.length == 1200
        drop_last = atilde2.element((0, 1, 2) * 399 + (0, 1))
        assert atilde2.bruhat_leq(drop_last, y)
        # a subword taking s1 from one triple and s0 s2 from the next
        assert atilde2.bruhat_leq(atilde2.element((1, 0, 2) * 200), y)
        assert not atilde2.bruhat_leq(y, drop_last)

    def test_ball_counts(self, atilde2):
        assert atilde2.ball_layer_counts(3) == [1, 3, 6, 9]
        a2 = system("A2")
        assert a2.ball_layer_counts(5) == [1, 2, 2, 1, 0, 0]


# each call that takes an A3 Element, given an element of B3 instead
_FOREIGN_CALLS = {
    "support": lambda a3, w: a3.support(w),
    "left_descents": lambda a3, w: a3.left_descents(w),
    "right_descents": lambda a3, w: a3.right_descents(w),
    "diagram_automorphism": lambda a3, w: a3.diagram_automorphism({1: 3, 2: 2, 3: 1}, w),
    "parabolic_factorize": lambda a3, w: a3.parabolic_factorize(w),
    "differ_by_reflection": lambda a3, w: a3.differ_by_reflection(a3.identity, w),
    "is_reflection": lambda a3, w: a3.is_reflection(w),
    "bruhat_leq": lambda a3, w: a3.bruhat_leq(a3.identity, w),
    "mul": lambda a3, w: a3.identity * w,
    "interval": lambda a3, w: BruhatInterval(a3, w),
    "ball_in_interval_check": lambda a3, w: ball_in_interval_check(a3, 0, w),
}


class TestElement:
    @pytest.mark.parametrize("method", sorted(_FOREIGN_CALLS))
    def test_refuses_an_element_of_another_system(self, method):
        # B3's s3 s2 s1 spells an A3 word, but its key means another element
        w = system("B3").element((3, 2, 1))
        with pytest.raises(ValueError, match="different system"):
            _FOREIGN_CALLS[method](system("A3"), w)

    def test_identities(self, a3):
        e = a3.identity
        s = a3.generator(1)
        assert e * s is s
        assert s * s is e
        assert s.inverse() is s
        w = a3.element((1, 2))
        assert w.inverse().word == (2, 1)
        assert (w * w.inverse()) is e

    def test_ordering_and_repr(self, a3):
        w = a3.element((2, 1))
        assert repr(w) == "Element(s2s1)"

    def test_support(self, a3):
        assert a3.support(a3.element((1, 2, 1))) == frozenset({1, 2})
        assert a3.support(a3.identity) == frozenset()
