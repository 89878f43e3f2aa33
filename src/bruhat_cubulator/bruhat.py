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
- Edges: each vertex carries the images of the roots the edge step needs,
  one lookup per root from the vertex s*u below it.  For a reflection t
  with root beta, u -> ut goes up iff u(beta) > 0, and the key of ut is
  read off the images of t(alpha_1), ..., t(alpha_n).
"""

from __future__ import annotations

from .coxeter import CoxeterSystem, Element
from .polynomials import IntPoly


class BruhatInterval:
    """The interval [1, y] with its Hasse diagram and Bruhat graph.

    Vertices carry dense ids assigned in (length, canonical word) order, so
    id 0 is the identity and the last id is y.  ``bruhat_edges`` holds
    triples (u_id, v_id, t) with t the reflection u^-1 v.
    """

    def __init__(self, system: CoxeterSystem, top: Element):
        if top.system is not system:
            raise ValueError("top element from a different system")
        self.system = system
        self.top = top
        self._build()
        self._below = None
        self._succ = None

    # -- construction -------------------------------------------------------

    def _build(self):
        sys = self.system
        left = sys._left
        top_length = self.top.length

        # ids in (length, canonical word) order; within one length the
        # order of the words (s,) + word(s*u) is that of (s, id of s*u)
        ids = {sys._identity_key: 0}
        keys = [sys._identity_key]
        letter = [-1]
        below = [-1]
        starts = [0, 1]
        for level in _subword_closure(sys, self.top.iword)[1:]:
            ordered = []
            for key in level:
                for s in range(sys.rank):
                    v = ids.get(left(s, key))
                    if v is not None and v >= starts[-2]:
                        ordered.append((s, v, key))
                        break
            ordered.sort()
            for s, v, key in ordered:
                ids[key] = len(keys)
                keys.append(key)
                letter.append(s)
                below.append(v)
            starts.append(len(keys))

        words = [()]
        for v in range(1, len(keys)):
            words.append((letter[v],) + words[below[v]])
        roots = sys._roots
        self.vertices = []
        for word, key in zip(words, keys):
            el = sys._element(word)
            if el._matrix is None:
                el._matrix = tuple(roots[r] for r in key)
            self.vertices.append(el)
        self.index = {el: i for i, el in enumerate(self.vertices)}
        self.lengths = [len(w) for w in words]

        # edge step on the images of the needed roots, one length at a time;
        # an edge label t = u^-1 v has ell(t) <= ell(u) + ell(v) < 2 ell(y)
        reflections = sys._reflections(top_length)
        needed = sorted({r for _, rid, tkey in reflections for r in (rid, *tkey)})
        at = {r: j for j, r in enumerate(needed)}
        tests = [(at[rid], tuple(at[r] for r in tkey), t) for t, rid, tkey in reflections]
        sign = sys._root_sign
        edges = []
        images = [tuple(needed)]
        for l in range(top_length + 1):
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
        self.bruhat_edges = edges
        self.hasse_edges = [
            (u, v) for u, v, _ in edges if self.lengths[v] == self.lengths[u] + 1
        ]

    # -- derived structure --------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, el: Element) -> bool:
        return el in self.index

    @property
    def below_masks(self) -> list[int]:
        """For each vertex v, the bitset of ids x with x <= v."""
        if self._below is None:
            masks = [1 << i for i in range(len(self.vertices))]
            for u, v in self.hasse_edges:
                masks[v] |= masks[u]
            # hasse edges go up in id order, so one ascending pass suffices
            self._below = masks
        return self._below

    @property
    def succ_masks(self) -> list[int]:
        """For each vertex u, the bitset of v with a Bruhat edge u -> v."""
        if self._succ is None:
            masks = [0] * len(self.vertices)
            for u, v, _ in self.bruhat_edges:
                masks[u] |= 1 << v
            self._succ = masks
        return self._succ

    def length_masks(self) -> dict[int, int]:
        """Bitset of vertex ids for each length value."""
        out: dict[int, int] = {}
        for i, l in enumerate(self.lengths):
            out[l] = out.get(l, 0) | (1 << i)
        return out

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


def bruhat_leq(x: Element, y: Element) -> bool:
    return x.system.bruhat_leq(x, y)


def bruhat_graph(iv: BruhatInterval) -> list:
    return list(iv.bruhat_edges)


def poincare_polynomial(iv: BruhatInterval) -> IntPoly:
    """Length generating function of [1, y]."""
    coeffs = [0] * (iv.top.length + 1)
    for l in iv.lengths:
        coeffs[l] += 1
    return IntPoly(coeffs)


def out_degree_in_interval(iv: BruhatInterval, x: Element) -> int:
    """Number of Bruhat-graph edges leaving x inside the interval."""
    x_id = iv.index.get(x)
    if x_id is None:
        raise ValueError(f"{x!r} is not in the interval")
    return iv.succ_masks[x_id].bit_count()
