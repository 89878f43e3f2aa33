"""Bruhat order: lower intervals, Hasse diagrams, and Bruhat graphs.

The interval [1, y] is built on root ids (see ``coxeter``): an element u
is keyed by the tuple of root ids of u(alpha_1), ..., u(alpha_n), and
left-multiplying by a generator is n lookups in the system's action
table.  The keys stay in the build, which turns them into the interval's
own action table on ids.  A vertex is an id, found from an index word
through that table (``id_of``); its canonical word is read along the
``letter`` and ``below`` arrays, and ``vertices``, the list of vertex
Elements, is a view built on first read.

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
  s*v and s times those of s*v.  They are kept once, as one flat integer
  array with per-vertex offsets; the covers are the deletions one length
  down, and the label of each deletion, the reflection it removes, is
  kept once per vertex and read along ``below``.  Level sizes, and so the
  Poincare polynomial, need only the vertices.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain, repeat
from operator import or_

from .coxeter import CoxeterSystem, Element
from .polynomials import IntPoly


class BruhatInterval:
    """The interval [1, y] with its Hasse diagram and Bruhat graph.

    Vertices carry dense ids assigned in (length, canonical word) order, so
    id 0 is the identity and the last id is y, and the ids of length l run
    from ``starts[l]`` to ``starts[l + 1] - 1``.  Per id u: ``lengths[u]``;
    ``letter[u]``, the smallest left descent s of u (the first letter of its
    canonical word), and ``below[u]``, the id of s*u (-1 at the identity),
    so that u's word is letter[u], letter[below[u]], ... down to id 0;
    and ``action[s][u]``, the id of s*u, or -1 when s*u is outside [1, y],
    one int array per generator, built with the ids.  ``id_of`` walks it
    along a reduced index word; no key and no Element is kept per id, and
    ``vertices`` makes the Elements on first read.  The edges are
    ``deletions``, v's from ``offsets[v]`` on, and ``labels``; they and
    ``below_masks`` are built on first read, and ``covers(v)`` reads the
    Hasse edges into v off them.  The list ``bruhat_edges``, of triples
    (u_id, v_id, t) with t the reflection u^-1 v, is a view made from them
    on first read.
    """

    def __init__(self, system: CoxeterSystem, top: Element):
        system._own(top)
        self.system = system
        self.top = top
        ids, self.letter, self.below, self.starts = system._sorted_keys(
            subword_closure(system, top.iword)
        )
        left = system._left
        self.action = [array("i", [ids.get(left(s, k), -1) for k in ids]) for s in range(system.rank)]
        starts = self.starts
        self.lengths = [l for l in range(len(starts) - 1) for _ in range(starts[l], starts[l + 1])]
        # v's deletions are deletions[offsets[v]:offsets[v + 1]], l(v) of them
        self.offsets = array("i", accumulate(self.lengths, initial=0))

    # -- derived structure, built on first read ------------------------------

    @cached_property
    def vertices(self) -> list[Element]:
        """The vertex Elements in id order, a view for the verifier, the
        suites and readers outside the package; no other path reads it."""
        return self.system._elements_from(self.letter, self.below)

    def id_of(self, iword) -> int:
        """The id of the element with reduced index word iword, or -1 if it
        is not in [1, y]: a walk from id 0 along ``action``, right to left,
        which stays in [1, y] since each suffix of a reduced word of u is <=
        u.  Any other word gives the id of its product or -1."""
        v = 0
        for s in reversed(iword):
            v = self.action[s][v]
            if v < 0:
                break
        return v

    @cached_property
    def deletions(self) -> array:
        """The ids of the l(v) one-letter deletions of each v's word, v by v.

        Entry i of v deletes letter i + 1.  With s = letter[v], deleting the
        first letter leaves s*v, and deleting a later one leaves s*x for x
        the same deletion from the word of s*v.  Every deletion lies below
        v, so in [1, y].  By strong exchange they are distinct, and they are
        the u < v with u^-1 v a reflection.
        """
        action, letter, below, offsets = self.action, self.letter, self.below, self.offsets
        out = array("i")
        for v in range(1, len(self)):
            b = below[v]
            out.append(b)
            out.extend(map(action[letter[v]].__getitem__, out[offsets[b] : offsets[b + 1]]))
        return out

    def covers(self, v: int) -> list[int]:
        """The ids that v covers: its deletions one length down."""
        lengths, offsets = self.lengths, self.offsets
        down = lengths[v] - 1
        return [u for u in self.deletions[offsets[v] : offsets[v + 1]] if lengths[u] == down]

    @cached_property
    def labels(self) -> tuple[list[Element], array]:
        """(reflections, label): label[x] indexes in reflections the
        reflection of the edge s*x -> x, s = letter[x] (-1 at the identity).

        Deleting letter i + 1 of v's word removes the label of x =
        below^i(v).  With w = s*x it is w^-1 s w, whose root w^-1(alpha_s)
        is w's letters applied to alpha_s, first letter first: read along
        the ``below`` chain from w.  A word is made only for a new root.
        """
        sys, letter, below = self.system, self.letter, self.below
        act_id = sys._act_id
        by_root, reflections = {}, []
        label = array("i", [-1])
        for x in range(1, len(self)):
            r = s = letter[x]
            w = below[x]
            while w:
                r = act_id(letter[w], r)
                w = below[w]
            t = by_root.get(r)
            if t is None:
                t = by_root[r] = len(reflections)
                word = []
                w = below[x]
                while w:
                    word.append(letter[w])
                    w = below[w]
                reflections.append(sys._from_word((*word[::-1], s, *word)))
            label.append(t)
        return reflections, label

    def edges(self) -> tuple[array, array, array]:
        """Every u -> v in (u, v) order, as the columns (sources, targets,
        labels), each edge's label an index in ``labels[0]``.

        One counting pass by source places each deletion; v ascends, so
        the targets of one source do too.
        """
        deletions, offsets, below, label = self.deletions, self.offsets, self.below, self.labels[1]
        ids = range(len(self))
        degree = list(map(Counter(deletions).__getitem__, ids))
        sources = array("i", chain.from_iterable(map(repeat, ids, degree)))
        place = list(accumulate(degree, initial=0))
        targets, labels = array("i", sources), array("i", sources)  # each entry is set below
        for v in ids:
            x = v
            for u in deletions[offsets[v] : offsets[v + 1]]:
                p = place[u]
                place[u] = p + 1
                targets[p] = v
                labels[p] = label[x]
                x = below[x]
        return sources, targets, labels

    # -- an edge list, a view for a reader outside the package ---------------

    @cached_property
    def bruhat_edges(self) -> list[tuple]:
        """Triples (u_id, v_id, t) in (u, v) order, t the reflection u^-1 v."""
        sources, targets, labels = self.edges()
        return list(zip(sources, targets, map(self.labels[0].__getitem__, labels)))

    def __len__(self):
        return len(self.lengths)

    def __contains__(self, el: Element) -> bool:
        # two systems built alike share words and keys, so the system is checked too
        return el.system is self.system and self.id_of(el.iword) >= 0

    @cached_property
    def below_masks(self) -> list[int]:
        """For each vertex v, the bitset of ids x with x <= v."""
        masks = []
        # v covers only smaller ids, so one ascending pass suffices
        for v in range(len(self)):
            masks.append(reduce(or_, map(masks.__getitem__, self.covers(v)), 1 << v))
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
