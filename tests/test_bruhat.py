from __future__ import annotations

import pytest

from bruhat_cubulator.bruhat import (
    bruhat_graph,
    interval,
    out_degree_in_interval,
    poincare_polynomial,
)
from bruhat_cubulator.polynomials import IntPoly

import oracles
from bruhat_cubulator.constructions import y_m
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

    def test_hasse_is_length_one_sublist(self, a3):
        iv = interval(a3.longest_element())
        expected = [
            (u, v)
            for u, v, _ in iv.bruhat_edges
            if iv.lengths[v] == iv.lengths[u] + 1
        ]
        assert iv.hasse_edges == expected

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
        assert out_degree_in_interval(iv, a2.identity) == 3
        assert out_degree_in_interval(iv, a2.generator(1)) == 2
        with pytest.raises(ValueError):
            out_degree_in_interval(iv, system("A3").identity)

    def test_graph_copy(self, a2):
        iv = interval(a2.longest_element())
        assert bruhat_graph(iv) == iv.bruhat_edges
        assert bruhat_graph(iv) is not iv.bruhat_edges


class TestMasks:
    def test_below_masks_match_leq(self, b3):
        iv = interval(b3.element((2, 1, 3, 2, 1)))
        for x_id, x in enumerate(iv.vertices):
            for y_id, y in enumerate(iv.vertices):
                assert iv.leq_ids(x_id, y_id) == b3.bruhat_leq(x, y)

    def test_succ_masks(self, a3):
        iv = interval(a3.element((2, 1, 3, 2)))
        for u_id in range(len(iv.vertices)):
            succ = {v for u, v, _ in iv.bruhat_edges if u == u_id}
            mask = iv.succ_masks[u_id]
            assert {i for i in range(len(iv.vertices)) if mask >> i & 1} == succ

    def test_length_masks_partition(self, a3):
        iv = interval(a3.longest_element())
        masks = iv.length_masks()
        assert sum(m.bit_count() for m in masks.values()) == len(iv.vertices)
        for l, m in masks.items():
            for i in range(len(iv.vertices)):
                if m >> i & 1:
                    assert iv.lengths[i] == l

    def test_contains(self, a3):
        iv = interval(a3.element((1, 2)))
        assert a3.generator(1) in iv
        assert a3.generator(3) not in iv
        assert len(iv) == 4
