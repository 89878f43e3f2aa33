from __future__ import annotations

import pytest

from collections import Counter

from bruhat_cubulator.bruhat import BruhatInterval, interval, poincare_polynomial
from bruhat_cubulator.polynomials import IntPoly

import oracles
from bruhat_cubulator import constructions as cx
from bruhat_cubulator.constructions import y_m
from bruhat_cubulator.coxeter import build_system
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
        assert sum(len(iv.covers(v)) for v in range(len(iv))) == 8

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
        assert [iv.id_of(el.iword) for el in iv.vertices] == list(range(len(iv)))

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
        # the pairs u <= v one length apart, decided by lifting along v's
        # word (CoxeterSystem.bruhat_leq), not by the deletion recursion
        for tag, word in CASES + [("A3", "w0")]:
            iv = interval(case_element(tag, word))
            leq, vs, lengths = iv.system.bruhat_leq, iv.vertices, iv.lengths
            expected = [
                (u, v)
                for u in range(len(vs))
                for v in range(len(vs))
                if lengths[v] == lengths[u] + 1 and leq(vs[u], vs[v])
            ]
            covers = sorted((u, v) for v in range(len(vs)) for u in iv.covers(v))
            assert covers == expected, (tag, word)

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
        # strong exchange: v has one in-edge per letter of a reduced word
        in_degree = Counter(v for _, v, _ in iv.bruhat_edges)
        assert [in_degree[v] for v in range(len(iv))] == iv.lengths

    @pytest.mark.parametrize("tag,word", CASES)
    def test_deletions_are_the_edges(self, tag, word):
        # the flat arrays that every consumer reads: v's slice holds its l(v)
        # distinct one-letter deletions, and the covers are those one length down
        iv = interval(case_element(tag, word))
        off = iv.offsets
        deleted = [iv.deletions[off[v] : off[v + 1]].tolist() for v in range(len(iv))]
        assert list(map(len, deleted)) == list(map(len, map(set, deleted))) == iv.lengths
        pairs = sorted((u, v) for v, us in enumerate(deleted) for u in us)
        assert pairs == [(u, v) for u, v, _ in iv.bruhat_edges]
        covers = sorted((u, v) for v in range(len(iv)) for u in iv.covers(v))
        assert covers == [(u, v) for u, v in pairs if iv.lengths[u] + 1 == iv.lengths[v]]

    def test_out_degrees_a2(self, a2):
        iv = interval(a2.longest_element())

        def out_degree(x):
            return sum(u == iv.id_of(x.iword) for u, _, _ in iv.bruhat_edges)

        assert out_degree(a2.identity) == 3
        assert out_degree(a2.generator(1)) == 2

    def test_graph_copy(self, a2):
        # the graph is the edge list, one edge per Bruhat pair, in (u, v) order
        edges = list(interval(a2.longest_element()).bruhat_edges)
        assert len(edges) == 3 + 2 + 2 + 1 + 1
        assert [e[:2] for e in edges] == sorted({e[:2] for e in edges})


class TestLazyEdges:
    """The deletion recursion and the edge labels run only when an edge
    list is read, and the labelled edges only when ``bruhat_edges`` is; the
    action table is built with the ids, and the constructions read it."""

    def test_level_sizes_and_constructions_build_no_edges(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the edge recursion ran")

        atilde2, b3 = build_system("Atilde2"), build_system("B3")
        with monkeypatch.context() as patch:
            patch.setattr(BruhatInterval, "deletions", property(refuse))
            patch.setattr(BruhatInterval, "labels", property(refuse))
            assert len(cx.atilde2_trivial_enumeration(atilde2, 8)) > 0
            assert len(cx.atilde2_cubulation(atilde2, 4).interval) == 90
            assert all_trivial(b3.longest_element())
            iv = interval(b3.longest_element())
            assert poincare_polynomial(iv) == IntPoly((1, 3, 5, 7, 8, 8, 7, 5, 3, 1))
            with pytest.raises(AssertionError, match="edge recursion"):
                iv.covers(len(iv) - 1)
        assert sum(len(iv.covers(v)) for v in range(len(iv))) == 138
        assert iv.below_masks[-1] == (1 << len(iv)) - 1
        assert search(iv).status == FOUND
        assert "bruhat_edges" not in iv.__dict__

    def test_edges_are_built_once(self, a3):
        iv = interval(a3.longest_element())
        assert iv.action is iv.action
        assert iv.deletions is iv.deletions
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
        # both generators are in [1, s1 s2], but s2 s1 is not
        assert a3.element((2, 1)) not in iv
        assert len(iv) == 4
        # a separately built A3 has the same keys, but its elements are not in iv
        assert build_system("A3").generator(1) not in interval(build_system("A3").longest_element())
