"""Bruhat order: lower intervals, Hasse diagrams, and Bruhat graphs.

The interval [1, y] is built on root ids (see ``coxeter``): an element u
is keyed by the tuple of root ids of u(alpha_1), ..., u(alpha_n), and
left-multiplying by a generator is n lookups in the system's action
table.  Element objects are made only for the vertices.

- Vertices: by the subword property, reading a reduced word of y right to
  left and setting S <- S u s*S each time yields [1, y]; a key not yet in
  S lies one length above the element it came from (Bjorner-Brenti,
  *Combinatorics of Coxeter Groups*, GTM 231, Ch. 2).
- Canonical words, in length order: the first letter of the
  lexicographically first reduced word of u is its smallest left descent
  s, found by looking s*u up one length down; the rest is the word of s*u.
- Edges, from one recursion on the id-level generator action: by strong
  exchange (same reference, Ch. 1) the u -> v below v are the l(v)
  distinct one-letter deletions of v's canonical word, and those of v are
  s*v and s times those of s*v.  ``hasse_edges`` keeps the deletions one
  length down; ``bruhat_edges`` keeps all of them, labelled by the
  reflection each deletion removes.  Level sizes, and so the Poincare
  polynomial, need only the vertices.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat

from .coxeter import CoxeterSystem, Element
from .polynomials import IntPoly


class BruhatInterval:
    """The interval [1, y] with its Hasse diagram and Bruhat graph.

    Vertices carry dense ids assigned in (length, canonical word) order, so
    id 0 is the identity and the last id is y; ``key_ids`` maps each key to
    its id, and the ids of length l run from ``starts[l]`` to
    ``starts[l + 1] - 1``.  Per id u: ``lengths[u]``;
    ``letter[u]``, the smallest left descent s of u (the first letter of its
    canonical word), and ``below[u]``, the id of s*u (-1 at the identity);
    and ``action[s][u]``, the id of s*u, or -1 when s*u is outside [1, y].
    ``bruhat_edges`` holds triples (u_id, v_id, t) with t the reflection
    u^-1 v; it, ``hasse_edges``, ``below_masks`` and ``action`` are built
    on first read.
    """

    def __init__(self, system: CoxeterSystem, top: Element):
        if top.system is not system:
            raise ValueError("top element from a different system")
        self.system = system
        self.top = top
        self.vertices, self.key_ids, self.letter, self.below, self.starts = (
            system._sorted_elements(subword_closure(system, top.iword))
        )
        self.index = {el: i for i, el in enumerate(self.vertices)}
        self.lengths = [el.length for el in self.vertices]

    # -- derived structure, built on first read ------------------------------

    @cached_property
    def action(self) -> list[list[int]]:
        left, ids, keys = self.system._left, self.key_ids, [el.key for el in self.vertices]
        return [[ids.get(left(s, k), -1) for k in keys] for s in range(self.system.rank)]

    def deletions(self) -> list[list[int]]:
        """For each id v, the ids of the l(v) one-letter deletions of v's word.

        Entry i deletes letter i + 1.  With s = letter[v], deleting the first
        letter leaves s*v, and deleting a later one leaves s*x for x the
        same deletion from the word of s*v.  Every deletion lies below v,
        so in [1, y].  By strong exchange they are distinct, and they are
        the u < v with u^-1 v a reflection.
        """
        action, letter, below = self.action, self.letter, self.below
        out = [[]]
        for v in range(1, len(self.vertices)):
            act = action[letter[v]]
            out.append([below[v], *map(act.__getitem__, out[below[v]])])
        return out

    @cached_property
    def bruhat_edges(self) -> list[tuple]:
        """Every u -> v from the deletions, in (u, v) order.

        Deleting letter i + 1 of v's word removes the reflection of the
        edge s*x -> x, for x = below^i(v) and s = letter[x]: with w = s*x,
        it is w^-1 s w, whose root w^-1(alpha_s) is w's letters applied to
        alpha_s, first letter first.
        """
        sys, letter, below, vertices = self.system, self.letter, self.below, self.vertices
        act_id = sys._act_id
        by_root = {}
        labels = [None]  # labels[x]: the reflection of the edge s*x -> x
        for x in range(1, len(vertices)):
            s, word = letter[x], vertices[below[x]].iword
            r = s
            for a in word:
                r = act_id(a, r)
            t = by_root.get(r)
            if t is None:
                t = by_root[r] = sys._from_word(word[::-1] + (s,) + word)
            labels.append(t)
        up, up_labels = [[] for _ in vertices], [[] for _ in vertices]
        for v, deleted in enumerate(self.deletions()):
            x = v
            for u in deleted:
                up[u].append(v)
                up_labels[u].append(labels[x])
                x = below[x]
        edges = []
        for u, vs in enumerate(up):
            edges += zip(repeat(u), vs, up_labels[u])
            up[u] = up_labels[u] = None  # so the lists do not outlive their triples
        return edges

    @cached_property
    def hasse_edges(self) -> list[tuple]:
        """The deletions u -> v with l(u) = l(v) - 1, in (u, v) order."""
        lengths = self.lengths
        up = [[] for _ in self.vertices]
        for v, deleted in enumerate(self.deletions()):
            for u in deleted:
                if lengths[u] == lengths[v] - 1:
                    up[u].append(v)
        return [(u, v) for u, vs in enumerate(up) for v in vs]

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, el: Element) -> bool:
        return el in self.index

    @cached_property
    def below_masks(self) -> list[int]:
        """For each vertex v, the bitset of ids x with x <= v."""
        masks = [1 << i for i in range(len(self.vertices))]
        # hasse edges go up in id order, so one ascending pass suffices
        for u, v in self.hasse_edges:
            masks[v] |= masks[u]
        return masks

    def leq_ids(self, x_id: int, y_id: int) -> bool:
        return bool(self.below_masks[y_id] >> x_id & 1)


def subword_closure(system: CoxeterSystem, iword: tuple) -> list[list[tuple]]:
    """Keys of [1, y] grouped by length, for y with reduced index word iword.

    After reading the suffix w of the word, the set holds the products of
    the subwords of w, which is [1, w]; an s*x not in [1, w] has s*x > x.
    """
    left = system._left
    found = [(system._identity_key, 0)]
    seen = {system._identity_key}
    for s in reversed(iword):
        for i in range(len(found)):
            key, l = found[i]
            k = left(s, key)
            if k not in seen:
                seen.add(k)
                found.append((k, l + 1))
    levels = [[] for _ in range(len(iword) + 1)]
    for key, l in found:
        levels[l].append(key)
    return levels


def interval(y: Element) -> BruhatInterval:
    return BruhatInterval(y.system, y)


def poincare_polynomial(iv: BruhatInterval) -> IntPoly:
    """Length generating function of [1, y]."""
    coeffs = [0] * (iv.top.length + 1)
    for l in iv.lengths:
        coeffs[l] += 1
    return IntPoly(coeffs)
