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
- Hasse edges, built on the first read of ``hasse_edges``, from the
  lifting property (same reference), one lookup per cover of s*v.
- Bruhat edges, built on the first read of ``bruhat_edges``: each vertex
  carries the images of the roots the edge step needs, one lookup per
  root from the vertex s*u below it.  For a reflection t with root beta,
  u -> ut goes up iff u(beta) > 0, and the key of ut is read off the
  images of t(alpha_1), ..., t(alpha_n).  Level sizes, and so the
  Poincare polynomial, need only the vertices.
"""

from __future__ import annotations

from functools import cached_property

from .coxeter import CoxeterSystem, Element
from .polynomials import IntPoly


class BruhatInterval:
    """The interval [1, y] with its Hasse diagram and Bruhat graph.

    Vertices carry dense ids assigned in (length, canonical word) order, so
    id 0 is the identity and the last id is y.  ``bruhat_edges`` holds
    triples (u_id, v_id, t) with t the reflection u^-1 v; it, ``hasse_edges``
    and ``below_masks`` are built on first read.
    """

    def __init__(self, system: CoxeterSystem, top: Element):
        if top.system is not system:
            raise ValueError("top element from a different system")
        self.system = system
        self.top = top
        self.vertices, self.key_ids, self.letter, self.below, self._starts = (
            system._sorted_elements(_subword_closure(system, top.iword))
        )
        # key_ids: the id of each key; letter[u] and below[u]: the smallest
        # left descent s of u and the id of s*u, the steps of ``kl``'s R recursion
        self.index = {el: i for i, el in enumerate(self.vertices)}
        self.lengths = [el.length for el in self.vertices]

    # -- derived structure, built on first read ------------------------------

    @cached_property
    def bruhat_edges(self) -> list[tuple]:
        """The edge step, on the images of the needed roots, one length at a time.

        An edge label t = u^-1 v has ell(t) <= ell(u) + ell(v) < 2 ell(y).
        """
        sys, ids, letter, below, starts = (
            self.system, self.key_ids, self.letter, self.below, self._starts
        )
        left, sign = sys._left, sys._root_sign
        reflections = sys._reflections(self.top.length)
        needed = sorted({r for _, rid, tkey in reflections for r in (rid, *tkey)})
        at = {r: j for j, r in enumerate(needed)}
        tests = [(at[rid], tuple(at[r] for r in tkey), t) for t, rid, tkey in reflections]
        edges = []
        images = [tuple(needed)]
        for l in range(self.top.length + 1):
            lo, hi = starts[l], starts[l + 1]
            if l:
                prev = starts[l - 1]
                images = [left(letter[u], images[below[u] - prev]) for u in range(lo, hi)]
            for u in range(lo, hi):
                img = images[u - lo]
                out = []
                for b, tkey, t in tests:
                    if sign[img[b]] > 0:
                        v = ids.get(tuple(map(img.__getitem__, tkey)))
                        if v is not None:
                            out.append((v, t))
                out.sort()
                edges.extend((u, v, t) for v, t in out)
        return edges

    @cached_property
    def hasse_edges(self) -> list[tuple]:
        """The Bruhat edges (u, v) with ell(v) = ell(u) + 1, in (u, v) order.

        Let s = letter[v], a left descent of v.  A u covered by v other than
        s*v has su < u, or else lifting gives u <= s*v, so u = s*v; then
        su <= s*v, and su is covered by s*v.  Conversely, if x is covered by
        s*v and sx > x, lifting gives sx <= v.  So the covers of v are s*v
        and the s*x of length ell(v) - 1, for x covered by s*v.
        """
        left, ids, starts, lengths = self.system._left, self.key_ids, self._starts, self.lengths
        keys = [el.key for el in self.vertices]
        down = [[]]  # down[v]: the ids covered by v
        up = [[] for _ in keys]
        for v in range(1, len(keys)):
            s, sv = self.letter[v], self.below[v]
            lo = starts[lengths[v] - 1]
            # sx is of length ell(v) - 1 or ell(v) - 3, so ids tell them apart
            covered = [sv, *(u for u in (ids[left(s, keys[x])] for x in down[sv]) if u >= lo)]
            down.append(covered)
            for u in covered:
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


def _subword_closure(system: CoxeterSystem, iword: tuple) -> list[list[tuple]]:
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
