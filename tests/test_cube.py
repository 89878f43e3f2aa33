from __future__ import annotations

from collections import Counter

import pytest

from bruhat_cubulator.cube import CubicalLattice
from bruhat_cubulator.polynomials import quantum_poly

import oracles


class TestCubicalLattice:
    def test_validation(self):
        with pytest.raises(ValueError):
            CubicalLattice(())
        with pytest.raises(ValueError):
            CubicalLattice((1, -1))

    def test_basic_quantities(self):
        assert CubicalLattice((1, 2, 3)).vertex_count() == 24

    def test_canonical_form(self):
        assert CubicalLattice((3, 0, 1)).canonical_form().params == (1, 3)
        assert CubicalLattice((0, 0)).canonical_form().params == (0,)
        assert CubicalLattice((2, 1)).canonical_form().params == (1, 2)

    def test_vertices_order_and_count(self):
        lat = CubicalLattice((1, 2))
        verts = lat.vertices()
        assert len(verts) == lat.vertex_count()
        assert verts[0] == (0, 0)
        assert verts[-1] == (1, 2)
        ranks = [sum(v) for v in verts]
        assert ranks == sorted(ranks)

    def test_edges_and_predecessors(self):
        lat = CubicalLattice((1, 1))
        edges = set(lat.edges())
        assert edges == {
            ((0, 0), (0, 1)),
            ((0, 0), (1, 0)),
            ((0, 1), (1, 1)),
            ((1, 0), (1, 1)),
        }
        for u, v in edges:
            assert u in oracles.lattice_predecessors(v)
        # edge count of a box graph: sum over axes of k_i * prod (k_j + 1)
        lat2 = CubicalLattice((2, 3))
        assert len(lat2.edges()) == 2 * 4 + 3 * 3

    def test_degenerate_vertex(self):
        lat = CubicalLattice((0,))
        assert lat.vertices() == [(0,)]
        assert lat.edges() == []

    def test_rank_generating_polynomial(self):
        counts = Counter(sum(v) for v in CubicalLattice((1, 2)).vertices())
        assert tuple(counts[r] for r in range(4)) == (quantum_poly(2) * quantum_poly(3)).coeffs

    def test_equality_and_immutability(self):
        assert CubicalLattice((1, 2)) == CubicalLattice((1, 2))
        assert CubicalLattice((1, 2)) != CubicalLattice((2, 1))
        with pytest.raises(AttributeError):
            CubicalLattice((1,)).params = (2,)
