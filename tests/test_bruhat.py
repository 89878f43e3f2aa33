from __future__ import annotations

import pytest

from bruhat_cubulator.bruhat import interval, poincare_polynomial
from bruhat_cubulator.polynomials import IntPoly

import oracles
from bruhat_cubulator import constructions as cx
from bruhat_cubulator.constructions import y_m
from bruhat_cubulator.coxeter import CoxeterSystem, build_system
from bruhat_cubulator.kl import all_trivial
from bruhat_cubulator.search import FOUND, search
from conftest import system

# integer, ring (H3, I2(m)) and affine tiers; a word, "w0" or "y_m:<m>"
CASES = [
    ("A3", (2, 1, 3, 2)),
    ("B3", (1, 2, 1, 3)),
    ("Atilde2", (1, 2, 1, 0, 2)),
    ("I2(7)", (1, 2, 1, 2)),
    ("H3", (1, 2, 1, 2, 3, 2, 1)),
    ("I2(5)", "w0"),
    ("Atilde2", "y_m:3"),
    ("A2", "w0"),
]


def case_element(tag, spec):
    sys = system(tag)
    if spec == "w0":
        return sys.longest_element()
    if isinstance(spec, str):
        return y_m(sys, int(spec.removeprefix("y_m:")))
    return sys.element(spec)


class TestEnumeration:
    def test_a2_longest(self, a2):
        iv = interval(a2.longest_element())
        assert len(iv.vertices) == 6
        assert len(iv.bruhat_edges) == 9
        assert len(iv.hasse_edges) == 8

    def test_vertex_order(self, a3):
        iv = interval(a3.longest_element())
        assert iv.vertices[0] is a3.identity
        assert iv.vertices[-1] is iv.top
        keys = [(el.length, el.word) for el in iv.vertices]
        assert keys == sorted(keys)

    def test_identity_interval(self, a3):
        iv = interval(a3.identity)
        assert len(iv.vertices) == 1
        assert iv.bruhat_edges == []

    @pytest.mark.parametrize("tag,word", CASES)
    def test_matches_subword_oracle(self, tag, word):
        y = case_element(tag, word)
        iv = interval(y)
        assert set(iv.vertices) == oracles.subword_interval(y)

    def test_a3_spot_size(self, a3):
        iv = interval(a3.element((2, 1, 3, 2)))
        assert len(iv.vertices) == 14
        assert poincare_polynomial(iv) == IntPoly((1, 3, 5, 4, 1))


class TestEdges:
    def test_edge_labels_are_reflections(self, b3):
        iv = interval(b3.element((1, 2, 1, 3)))
        for u_id, v_id, t in iv.bruhat_edges:
            u, v = iv.vertices[u_id], iv.vertices[v_id]
            assert v.length > u.length
            assert b3.is_reflection(t)
            assert u * t is v

    def test_hasse_is_length_one_sublist(self):
        # the lifting recursion against the length-one edges of the edge step
        for tag, word in CASES + [("A3", "w0")]:
            iv = interval(case_element(tag, word))
            expected = [
                (u, v)
                for u, v, _ in iv.bruhat_edges
                if iv.lengths[v] == iv.lengths[u] + 1
            ]
            assert iv.hasse_edges == expected, (tag, word)

    @pytest.mark.parametrize("tag,word", CASES)
    def test_bruhat_edges_complete(self, tag, word):
        # cross-check against a quadratic scan over all pairs
        y = case_element(tag, word)
        iv = interval(y)
        expected = set()
        for u_id, u in enumerate(iv.vertices):
            for v_id, v in enumerate(iv.vertices):
                t = u.inverse() * v
                if v.length > u.length and y.system.is_reflection(t):
                    expected.add((u_id, v_id, t))
        assert set(iv.bruhat_edges) == expected
        assert len(iv.bruhat_edges) == len(expected)

    def test_out_degrees_a2(self, a2):
        iv = interval(a2.longest_element())

        def out_degree(x):
            return sum(u == iv.index[x] for u, _, _ in iv.bruhat_edges)

        assert out_degree(a2.identity) == 3
        assert out_degree(a2.generator(1)) == 2

    def test_graph_copy(self, a2):
        # the graph is the edge list, one edge per Bruhat pair, in (u, v) order
        edges = list(interval(a2.longest_element()).bruhat_edges)
        assert len(edges) == 3 + 2 + 2 + 1 + 1
        assert [e[:2] for e in edges] == sorted({e[:2] for e in edges})


class TestLazyEdges:
    """The edge step, the one reader of ``_reflections``, runs only when
    ``bruhat_edges`` is read: the Hasse edges, the lower-interval masks and
    the search come from the lifting property."""

    @pytest.fixture
    def no_edge_step(self, monkeypatch):
        def refuse(self, depth):
            raise AssertionError("the edge step ran")

        monkeypatch.setattr(CoxeterSystem, "_reflections", refuse)

    def test_level_sizes_and_constructions_build_no_edges(self, no_edge_step):
        atilde2 = build_system("Atilde2")
        assert len(cx.atilde2_trivial_enumeration(atilde2, 8)) > 0
        result = cx.atilde2_cubulation(atilde2, 4)
        assert len(result.interval) == 90
        assert all_trivial(build_system("B3").longest_element())
        iv = interval(build_system("B3").longest_element())
        assert poincare_polynomial(iv) == IntPoly((1, 3, 5, 7, 8, 8, 7, 5, 3, 1))
        assert len(iv.hasse_edges) == 138
        assert iv.below_masks[-1] == (1 << len(iv)) - 1
        assert search(iv).status == FOUND
        with pytest.raises(AssertionError, match="edge step"):
            iv.bruhat_edges

    def test_edges_are_built_once(self, a3):
        iv = interval(a3.longest_element())
        assert iv.hasse_edges is iv.hasse_edges
        assert iv.bruhat_edges is iv.bruhat_edges
        assert iv.below_masks is iv.below_masks


class TestMasks:
    def test_below_masks_match_leq(self):
        for tag, word in CASES + [("B3", (2, 1, 3, 2, 1))]:
            iv = interval(case_element(tag, word))
            leq = iv.system.bruhat_leq
            for x_id, x in enumerate(iv.vertices):
                for y_id, y in enumerate(iv.vertices):
                    assert iv.leq_ids(x_id, y_id) == leq(x, y), (tag, word, x, y)

    def test_contains(self, a3):
        iv = interval(a3.element((1, 2)))
        assert a3.generator(1) in iv
        assert a3.generator(3) not in iv
        assert len(iv) == 4
