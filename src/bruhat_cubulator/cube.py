"""Cubical lattices C(k_1, ..., k_N): box graphs graded by coordinate sum."""

from __future__ import annotations

from itertools import product


class CubicalLattice:
    """The directed box graph on prod [0, k_i] with basis-vector edges."""

    __slots__ = ("params",)

    def __init__(self, params):
        params = tuple(int(k) for k in params)
        if not params:
            raise ValueError("parameter list must be non-empty")
        if any(k < 0 for k in params):
            raise ValueError(f"parameters must be non-negative: {params}")
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError("CubicalLattice is immutable")

    def __eq__(self, other):
        if not isinstance(other, CubicalLattice):
            return NotImplemented
        return self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        return f"C{self.params!r}"

    def canonical_form(self) -> "CubicalLattice":
        """Drop zero parameters and sort weakly increasing; C(0,..,0) -> C(0)."""
        kept = sorted(k for k in self.params if k > 0)
        return CubicalLattice(kept or (0,))

    def vertex_count(self) -> int:
        n = 1
        for k in self.params:
            n *= k + 1
        return n

    def vertices(self) -> list[tuple]:
        """All vertices, in (rank, lexicographic) order."""
        out = sorted(product(*(range(k + 1) for k in self.params)))
        out.sort(key=sum)
        return out

    def edges(self) -> list[tuple]:
        """Directed edges (u, v) with v - u a standard basis vector."""
        out = []
        for u in self.vertices():
            for i, k in enumerate(self.params):
                if u[i] < k:
                    v = u[:i] + (u[i] + 1,) + u[i + 1 :]
                    out.append((u, v))
        return out

    def predecessors(self, v) -> list[tuple]:
        return [
            v[:i] + (v[i] - 1,) + v[i + 1 :]
            for i in range(len(v))
            if v[i] > 0
        ]
