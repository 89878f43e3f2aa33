"""Coxeter systems acting on simple-root coordinates with exact scalars.

A system is built from a type label ("A3", "Btilde2", "I2(7)") or an
explicit Coxeter matrix.

Each system keeps a table of the roots it has met so far: an id per root
vector, the sign of each id, and ``act[s][rid]``, the id of s(root),
filled on first use.  An element u is named by its key, the tuple of root
ids of u(alpha_1), ..., u(alpha_n) (Casselman, "Machine calculations in
Weyl groups", Invent. Math. 116, 1994), and every group operation runs on
keys:

- left-multiplying by a generator costs n table lookups;
- right-multiplying by s updates the key's root vectors by one column
  operation and looks the results up;
- s is a right descent of u iff u(alpha_s) < 0, one sign lookup, and a
  left descent iff it is a right descent of u^-1.

Each element also carries its lexicographically first reduced word, read
from the key of u^-1; lengths, the canonical order and all output use it.

Generator labels are 1..n for finite types and 0..n for affine types.
Words are exposed as tuples of labels; internally they are 0-based index
tuples in label order.
"""

from __future__ import annotations

import math
import re
from array import array
from math import lcm

from .rings import CosRing, scalar_sign

INF = math.inf


# ---------------------------------------------------------------------------
# descriptor parsing

def _path_edges(labels, m=3):
    return {(a, b): m for a, b in zip(labels, labels[1:])}


def _type_data(tag: str):
    """Return (normalized tag, labels, {(a,b): m}) for a type label string."""
    tag = tag.strip()
    mm = re.fullmatch(r"I2\((\d+)\)", tag)
    if mm:
        order = int(mm.group(1))
        if order < 3:
            raise ValueError(f"I2(m) needs m >= 3, got {order}")
        return tag, (1, 2), {(1, 2): order}
    mm = re.fullmatch(r"([A-H])(tilde)?(\d+)", tag)
    if not mm:
        raise ValueError(f"unrecognized type label {tag!r}")
    letter, tilde, n = mm.group(1), mm.group(2), int(mm.group(3))
    if not tilde:
        labels = tuple(range(1, n + 1))
        if letter == "A" and n >= 1:
            return tag, labels, _path_edges(labels)
        if letter in ("B", "C") and n >= 2:
            edges = _path_edges(labels)
            edges[(1, 2)] = 4
            return f"B{n}", labels, edges
        if letter == "D" and n >= 4:
            edges = _path_edges(labels[: n - 1])
            edges[(n - 2, n)] = 3
            return tag, labels, edges
        if letter == "E" and n in (6, 7, 8):
            edges = _path_edges((1, 3, 4, 5, 6, 7, 8)[: n - 1])
            edges[(2, 4)] = 3
            return tag, labels, edges
        if letter == "F" and n == 4:
            edges = _path_edges(labels)
            edges[(2, 3)] = 4
            return tag, labels, edges
        if letter == "G" and n == 2:
            return tag, labels, {(1, 2): 6}
        if letter == "H" and n in (3, 4):
            edges = _path_edges(labels)
            edges[(1, 2)] = 5
            return tag, labels, edges
    else:
        labels = tuple(range(0, n + 1))
        if letter == "A" and n == 1:
            return tag, labels, {(0, 1): INF}
        if letter == "A" and n >= 2:
            edges = _path_edges(labels)
            edges[(0, n)] = 3
            return tag, labels, edges
        if letter in ("B",) and n >= 3:
            edges = _path_edges(labels[1:])
            edges[(n - 1, n)] = 4
            edges[(0, 2)] = 3
            return tag, labels, edges
        if letter == "C" and n >= 2:
            edges = _path_edges(labels)
            edges[(0, 1)] = 4
            edges[(n - 1, n)] = 4
            return tag, labels, edges
        if letter == "D" and n >= 4:
            edges = _path_edges(labels[2 : n - 1])
            edges[(0, 2)] = 3
            edges[(1, 2)] = 3
            edges[(n - 2, n - 1)] = 3
            edges[(n - 2, n)] = 3
            return tag, labels, edges
        if letter == "E" and n in (6, 7, 8):
            _, _, edges = _type_data(f"E{n}")
            attach = {6: 2, 7: 1, 8: 8}[n]
            edges[(0, attach)] = 3
            return tag, labels, edges
        if letter == "F" and n == 4:
            _, _, edges = _type_data("F4")
            edges[(0, 1)] = 3
            return tag, labels, edges
        if letter == "G" and n == 2:
            return tag, labels, {(0, 1): 3, (1, 2): 6}
    raise ValueError(f"unsupported type label {tag!r}")


def _matrix_to_edges(matrix):
    """Convert a full symmetric matrix (0 or inf marks m = infinity) to an edge dict."""
    n = len(matrix)
    labels = tuple(range(1, n + 1))
    edges = {}
    for i in range(n):
        if len(matrix[i]) != n:
            raise ValueError("Coxeter matrix must be square")
        if matrix[i][i] != 1:
            raise ValueError("Coxeter matrix diagonal must be 1")
        for j in range(i + 1, n):
            mij, mji = matrix[i][j], matrix[j][i]
            if mij != mji:
                raise ValueError("Coxeter matrix must be symmetric")
            if mij in (0, INF, None):
                edges[(i + 1, j + 1)] = INF
            elif isinstance(mij, int) and mij >= 2:
                if mij > 2:
                    edges[(i + 1, j + 1)] = mij
            else:
                raise ValueError(f"invalid Coxeter matrix entry {mij!r}")
    return labels, edges


def build_system(descriptor) -> "CoxeterSystem":
    """Build a Coxeter system from a type label string or an explicit matrix."""
    if isinstance(descriptor, CoxeterSystem):
        return descriptor
    if isinstance(descriptor, str):
        tag, labels, edges = _type_data(descriptor)
        return CoxeterSystem(labels, edges, type_tag=tag, descriptor=descriptor)
    labels, edges = _matrix_to_edges(descriptor)
    return CoxeterSystem(labels, edges, type_tag=None, descriptor=[list(r) for r in descriptor])


# ---------------------------------------------------------------------------
# the system

class CoxeterSystem:
    """A Coxeter system with its geometric representation over exact scalars."""

    def __init__(self, labels, edges, type_tag=None, descriptor=None):
        self.labels = tuple(sorted(labels))
        self.rank = len(self.labels)
        if self.rank == 0:
            raise ValueError("empty generating set")
        self._idx = {a: i for i, a in enumerate(self.labels)}
        self.type_tag = type_tag
        self.descriptor = descriptor if descriptor is not None else type_tag
        self._edges = {}
        for (a, b), m in edges.items():
            if a not in self._idx or b not in self._idx or a == b:
                raise ValueError(f"bad edge ({a},{b})")
            if m is not INF and (not isinstance(m, int) or m < 3):
                raise ValueError(f"bad bond order {m!r}")
            self._edges[frozenset((a, b))] = m
        self._init_scalars()
        self._init_action()
        self._init_roots()
        self._elements: dict[tuple, Element] = {}
        self._longest = None

    def m(self, a, b):
        """Coxeter matrix entry m(a, b) by generator label."""
        if a == b:
            return 1
        return self._edges.get(frozenset((a, b)), 2)

    def _init_scalars(self):
        finite_ms = {m for m in self._edges.values() if m is not INF}
        if finite_ms <= {3, 4, 6}:
            self.ring = None
            self._zero, self._one = 0, 1
        else:
            self.ring = CosRing(lcm(*sorted(m for m in finite_ms if m >= 4)))
            self._zero, self._one = self.ring.zero, self.ring.one

    def _init_action(self):
        n = self.rank
        scalar = int if self.ring is None else self.ring.scalar
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                m = self.m(self.labels[i], self.labels[j])
                if i == j:
                    c = scalar(2)
                elif m == 2:
                    c = self._zero
                elif m == 3:
                    c = scalar(-1)
                elif m is INF:
                    c = scalar(-2)
                elif self.ring is None:
                    # asymmetric integer pair for bond orders 4 and 6;
                    # the orientation does not affect the group
                    c = -1 if i < j else -(2 if m == 4 else 3)
                else:
                    c = -self.ring.two_cos_pi_over(m)
                row.append(c)
            rows.append(tuple(row))
        self._crow = tuple(rows)
        self._alpha = tuple(
            tuple(self._one if i == j else self._zero for j in range(n)) for i in range(n)
        )

    def _init_roots(self):
        self._roots: list[tuple] = []
        self._root_ids: dict[tuple, int] = {}
        self._root_sign: list[int] = []
        # act[s][rid] is the id of s(root rid), or -1 until first needed
        self._act: list[list[int]] = [[] for _ in range(self.rank)]
        for v in self._alpha:
            self._root_id(v)
        self._identity_key = tuple(range(self.rank))

    # -- root table ---------------------------------------------------------

    def _root_id(self, v) -> int:
        """The id of root vector v, registering it on first sight."""
        rid = self._root_ids.get(v)
        if rid is None:
            rid = len(self._roots)
            self._root_ids[v] = rid
            self._roots.append(v)
            self._root_sign.append(self._vec_sign(v))
            for row in self._act:
                row.append(-1)
        return rid

    def _act_id(self, s, rid) -> int:
        """The id of s(root rid), filling the action table on first use."""
        r = self._act[s][rid]
        if r < 0:
            r = self._root_id(self._apply(s, self._roots[rid]))
            self._act[s][rid] = r
        return r

    def _left(self, s, rids) -> tuple:
        """Root ids of s(gamma) for each root id gamma in rids.

        Applied to the key of u this gives the key of s*u.
        """
        out = tuple(map(self._act[s].__getitem__, rids))
        if -1 in out:
            out = tuple(self._act_id(s, r) for r in rids)
        return out

    def _key(self, iword) -> tuple:
        """Key of the element with the given index word (any word, not only reduced)."""
        key = self._identity_key
        for s in reversed(iword):
            key = self._left(s, key)
        return key

    def _right(self, key, s) -> tuple:
        """Key of u*s from the key of u.

        u(s(alpha_j)) = u(alpha_j) - c_sj u(alpha_s): the column update on
        the key's root vectors, each result looked up in the root table.
        """
        roots = self._roots
        col_s = roots[key[s]]
        return tuple(
            self._root_id(tuple(a - c * b for a, b in zip(roots[r], col_s))) if c else r
            for r, c in zip(key, self._crow[s])
        )

    # -- root vectors (index space) -----------------------------------------

    def _apply(self, i, v):
        """Image of root vector v under the i-th simple reflection."""
        row = self._crow[i]
        delta = self._zero
        for j, vj in enumerate(v):
            if vj:
                delta = delta + row[j] * vj
        if not delta:
            return v
        out = list(v)
        out[i] = out[i] - delta
        return tuple(out)

    def _vec_sign(self, v) -> int:
        """+1 for a positive root vector, -1 for a negative one."""
        sign = 0
        for x in v:
            s = scalar_sign(x)
            if s:
                if sign and s != sign:
                    raise AssertionError(f"mixed-sign root vector {v}")
                sign = s
        if not sign:
            raise AssertionError("zero root vector")
        return sign

    # -- words from keys ----------------------------------------------------

    def _strip(self, key, limit):
        """Strip the smallest right descent below ``limit`` while one exists.

        Returns (the stripped letters, the key left).  From the key of u^-1
        the letters spell u from the left: a right descent s of u^-1 is a
        left descent of u, and u^-1 s is the inverse of s*u.
        """
        sign = self._root_sign
        letters = []
        while True:
            s = next((s for s in range(limit) if sign[key[s]] < 0), None)
            if s is None:
                return tuple(letters), key
            letters.append(s)
            key = self._right(key, s)

    def _canonical(self, key):
        """Lexicographically first reduced index word of u, from the key of u^-1.

        Its first letter is the smallest left descent s of u, and the rest
        is the word of s*u (Bjorner-Brenti, GTM 231, Ch. 2).
        """
        return self._strip(key, self.rank)[0]

    def _element(self, key, iword) -> "Element":
        """The element with this key; iword must be its canonical word."""
        el = self._elements.get(key)
        if el is None:
            el = self._elements[key] = Element(self, key, iword)
        return el

    def _from_word(self, iword: tuple) -> "Element":
        """The element of any index word, reduced or not."""
        key = self._key(iword)
        el = self._elements.get(key)
        if el is None:
            el = self._element(key, self._canonical(self._key(iword[::-1])))
        return el

    def _sorted_keys(self, levels):
        """Keys grouped by length, in (length, canonical word) order.

        ``levels[l]`` holds keys of length l, and for every key u in it and
        every left descent s of u, s*u must lie in ``levels[l - 1]``, as in a
        lower interval or a ball.  The canonical word of u is (s,) +
        word(s*u) for the smallest such s, the first s that finds s*u one
        length down; within one length the words order as (s, id of s*u).

        Returns (ids, letter, below, starts): each key's id, in id order,
        which an interval turns into its action table and drops; the
        smallest left descent s of each id and the id of s*u (-1 at the
        identity), as int arrays; and the first id of each length.
        """
        left = self._left
        ids = {self._identity_key: 0}
        letter = array("i", [-1])
        below = array("i", [-1])
        starts = [0, 1]
        for level in levels[1:]:
            ordered = []
            for key in level:
                for s in range(self.rank):
                    v = ids.get(left(s, key))
                    if v is not None:
                        ordered.append((s, v, key))
                        break
            ordered.sort()
            for s, v, key in ordered:
                ids[key] = len(ids)
                letter.append(s)
                below.append(v)
            starts.append(len(ids))
        return ids, letter, below, starts

    def _elements_from(self, letter, below) -> list:
        """The Elements in id order, as ``_sorted_keys`` numbers them: id v has
        letter[v] then below[v]'s word, and letter[v] applied to its key."""
        keys, words = [self._identity_key], [()]
        for v in range(1, len(letter)):
            keys.append(self._left(letter[v], keys[below[v]]))
            words.append((letter[v],) + words[below[v]])
        return list(map(self._element, keys, words))

    # -- public element API -------------------------------------------------

    @property
    def identity(self) -> "Element":
        return self._element(self._identity_key, ())

    def generator(self, label) -> "Element":
        return self._from_word((self._idx[label],))

    def element(self, word) -> "Element":
        """Canonical element for a word of generator labels."""
        iword = []
        for a in word:
            if a not in self._idx:
                valid = " ".join(str(b) for b in self.labels)
                raise ValueError(
                    f"unknown generator label {a!r} for {self.descriptor}; "
                    f"the labels are {valid}"
                )
            iword.append(self._idx[a])
        return self._from_word(tuple(iword))

    def _own(self, *elements):
        """Refuse an Element of another system, whose key means another element here."""
        if any(el.system is not self for el in elements):
            raise ValueError("elements from a different system")

    def _descents(self, key) -> frozenset:
        """Labels s with u(alpha_s) < 0, for u the element with this key."""
        sign = self._root_sign
        return frozenset(self.labels[s] for s, r in enumerate(key) if sign[r] < 0)

    def right_descents(self, w: "Element") -> frozenset:
        self._own(w)
        return self._descents(w.key)

    def left_descents(self, w: "Element") -> frozenset:
        self._own(w)
        return self._descents(self._key(w.iword[::-1]))

    def is_reflection(self, w: "Element") -> bool:
        """True iff w is conjugate to a generator: ``differ_by_reflection(1, w)``."""
        return self.differ_by_reflection(self.identity, w)

    def differ_by_reflection(self, u: "Element", v: "Element") -> bool:
        """True iff u^-1 v is a reflection, decided on the keys of u and v.

        With M_w the matrix whose columns are the root vectors of w's key,
        the test is: l(u) + l(v) is odd, M_v != M_u, and every 2x2 minor of
        M_v - M_u vanishes.  For t = u^-1 v it is the matrix test that t is
        an involution other than 1 whose matrix fixes a hyperplane:

        - M_v - M_u = M_u (M_t - I), so it has the rank of M_t - I;
        - if that rank is 1, then M_t = I + a phi^T and det M_t = 1 + phi(a);
        - det M_t = (-1)^l(t) and l(t) = l(u) + l(v) mod 2, so odd parity
          gives phi(a) = -2, and then M_t^2 = I + (2 + phi(a)) a phi^T = I.

        So the involution check is derived, not dropped.  Odd parity makes
        u != v, so M_v != M_u; columns with equal root ids are zero in
        M_v - M_u, and the rest has rank 1 iff each is a multiple of the first.
        The scalars lie in a domain, so a column c is a multiple of the first,
        f, iff c[i] f[j0] = f[i] c[j0] for all i, at one j0 with f[j0] != 0.
        """
        self._own(u, v)
        if (u.length + v.length) % 2 == 0:
            return False
        roots, zero = self._roots, self._zero
        first, *rest = (
            [a - b for a, b in zip(roots[r], roots[q])] for r, q in zip(v.key, u.key) if r != q
        )
        j0 = next(j for j, a in enumerate(first) if a != zero)
        f0 = first[j0]
        return all(c[i] * f0 == a * c[j0] for c in rest for i, a in enumerate(first))

    def support(self, w: "Element") -> frozenset:
        self._own(w)
        return frozenset(self.labels[s] for s in set(w.iword))

    def parabolic_factorize(self, w: "Element") -> tuple:
        """Factor w = x_1 ... x_n with x_k a minimal coset representative.

        x_k lies in the parabolic subgroup on the first k generators and has
        no left descent among the first k-1.  Each x_k is what is left of
        the current prefix after stripping its left descents among the first
        k-1 generators.  Those are the prefix's smallest left descents, so
        the stripped letters begin its canonical word, and x_k's canonical
        word is the rest: each factor is a slice of w's word, and none is
        canonicalized again.
        """
        self._own(w)
        factors = [None] * self.rank
        iword = w.iword
        for k in range(self.rank - 1, -1, -1):
            prefix = self._strip(self._key(iword[::-1]), k)[0]
            rest = iword[len(prefix) :]
            factors[k] = self._element(self._key(rest), rest)
            iword = prefix
        return tuple(factors)

    def longest_element(self) -> "Element":
        """The longest element of a finite system, by greedy ascent."""
        if self._longest is not None:
            return self._longest
        if not self.is_finite():
            raise ValueError("longest element requires a finite system")
        sign = self._root_sign
        word = []
        key = self._identity_key
        while True:
            free = next((s for s, r in enumerate(key) if sign[r] > 0), None)
            if free is None:
                break
            word.append(free)
            key = self._right(key, free)
        self._longest = self._from_word(tuple(word))
        return self._longest

    def diagram_automorphism(self, permutation, w: "Element") -> "Element":
        """Apply a Coxeter-matrix-preserving relabeling to an element."""
        self._own(w)
        perm = dict(permutation)
        if sorted(perm) != list(self.labels) or sorted(perm.values()) != list(self.labels):
            raise ValueError("permutation must be a bijection on generator labels")
        for a in self.labels:
            for b in self.labels:
                if self.m(perm[a], perm[b]) != self.m(a, b):
                    raise ValueError("permutation is not a diagram automorphism")
        return self._from_word(tuple(self._idx[perm[self.labels[s]]] for s in w.iword))

    def diagram_automorphisms(self) -> list[dict]:
        """Every Coxeter-matrix-preserving bijection of the labels, identity first.

        Built by backtracking one label at a time: an image is kept only if
        m agrees with every label already placed, so the work follows the
        size of the group (E8 has one automorphism), not n!.
        """
        labels, m = self.labels, self.m
        out, image = [], []

        def extend(k):
            if k == len(labels):
                out.append(dict(zip(labels, image)))
                return
            a = labels[k]
            for b in labels:
                if b not in image and all(
                    m(b, image[j]) == m(a, labels[j]) for j in range(k)
                ):
                    image.append(b)
                    extend(k + 1)
                    image.pop()

        extend(0)
        return out

    # -- Bruhat order -------------------------------------------------------

    def bruhat_leq(self, x: "Element", y: "Element") -> bool:
        """Decide x <= y in Bruhat order by lifting along y's word.

        The last letter s of a reduced word of y is a right descent of y,
        and by the lifting property x <= y iff xs <= ys when s is a right
        descent of x, else iff x <= ys.  Only x's key moves, by one right
        multiplication per descent of x; other letters cost a sign lookup.
        """
        self._own(x, y)
        sign = self._root_sign
        key, lx, ly = x.key, x.length, y.length
        for s in reversed(y.iword):
            if lx == 0 or lx > ly:
                break
            if sign[key[s]] < 0:
                key = self._right(key, s)
                lx -= 1
            ly -= 1
        return lx == 0

    # -- reflections --------------------------------------------------------

    def reflections_up_to(self, depth: int) -> list:
        """All reflections t with ell(t) <= 2*depth - 1, as Elements.

        Breadth first over positive root ids from the simple roots: a root
        first met at depth k is s_1 ... s_(k-1)(alpha_s), its reflection is
        s_1 ... s_(k-1) s s_(k-1) ... s_1, and the depth of a root equals
        (ell(t) + 1) / 2 for its reflection t.
        """
        sign, out, seen = self._root_sign, [], set(range(self.rank))
        layer = [(s, (s,)) for s in range(self.rank)]
        for k in range(depth):
            out += [self._from_word(path + path[-2::-1]) for _, path in layer]
            if k + 1 == depth:
                break
            nxt = []
            for rid, path in layer:
                for i in range(self.rank):
                    r = self._act_id(i, rid)
                    if r not in seen and sign[r] > 0:
                        seen.add(r)
                        nxt.append((r, (i,) + path))
            layer = nxt
        return out

    # -- balls --------------------------------------------------------------

    def _ball_levels(self, radius: int) -> list:
        """Keys of the elements of each length 0..radius, breadth first.

        s*u is one length above or below u, so a key met from length l that
        is not of length l - 1 is of length l + 1.  A finite group ends with
        an empty level.
        """
        left = self._left
        levels = [[self._identity_key]]
        older = set()
        for _ in range(radius):
            nxt = {}
            for key in levels[-1]:
                for s in range(self.rank):
                    k = left(s, key)
                    if k not in older:
                        nxt[k] = None
            older = set(levels[-1])
            levels.append(list(nxt))
            if not nxt:
                break
        return levels

    def ball_layers(self, radius: int) -> list:
        """Elements grouped by length, for lengths 0..radius."""
        _, letter, below, starts = self._sorted_keys(self._ball_levels(radius))
        elements = self._elements_from(letter, below)
        layers = [elements[a:b] for a, b in zip(starts, starts[1:])]
        layers += [[] for _ in range(radius + 1 - len(layers))]
        return layers

    def ball_layer_counts(self, radius: int) -> list:
        """Number of elements of each length 0..radius (no words made)."""
        counts = [len(level) for level in self._ball_levels(radius)]
        return counts + [0] * (radius + 1 - len(counts))

    # -- diagram combinatorics ----------------------------------------------

    def subsystem(self, labels) -> "CoxeterSystem":
        """The standard parabolic subsystem on a subset of generator labels."""
        labels = tuple(sorted(labels))
        edges = {
            tuple(sorted(pair)): m
            for pair, m in self._edges.items()
            if pair <= set(labels)
        }
        return CoxeterSystem(labels, edges)

    def is_finite(self) -> bool:
        """True iff W is finite: its Tits form is positive definite.

        Every finite diagram is a forest, so a cycle (an infinite bond
        counts as an edge) means W is infinite.  On a forest the Cartan
        matrix is diagonally similar to the Tits form's matrix 2B, even in
        the asymmetric integer tier, so their leading principal minors
        agree and Sylvester's criterion applies (Humphreys, Reflection
        Groups and Coxeter Groups, 6.4).  The minors' signs are the pivots'
        signs under division-free elimination, row_i <- p*row_i -
        a_ik*row_k with each pivot p already known positive; a row with
        a_ik = 0 is left alone, since scaling by p changes no sign.
        """
        # the forest test is the precondition of the similarity: around a
        # cycle the integer tier's matrix need not be similar to 2B
        root = list(range(self.rank))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        for pair in self._edges:
            i, j = (find(self._idx[a]) for a in pair)
            if i == j:
                return False
            root[i] = j
        rows = [list(row) for row in self._crow]
        for k, pivot_row in enumerate(rows):
            p = pivot_row[k]
            if scalar_sign(p) <= 0:
                return False
            for row in rows[k + 1 :]:
                a = row[k]
                if a:
                    row[:] = [p * x - a * y for x, y in zip(row, pivot_row)]
        return True

    def __repr__(self):
        return f"CoxeterSystem({self.descriptor!r})"


# ---------------------------------------------------------------------------
# elements

class Element:
    """A group element: its key and its lexicographically first reduced word.

    Each system makes one Element per key, so elements compare by identity.
    """

    __slots__ = ("system", "key", "iword", "_word", "_inverse")

    def __init__(self, system: CoxeterSystem, key: tuple, iword: tuple):
        self.system = system
        self.key = key
        self.iword = iword
        self._word = None
        self._inverse = None

    @property
    def word(self) -> tuple:
        """The canonical reduced word, as generator labels."""
        if self._word is None:
            self._word = tuple(self.system.labels[s] for s in self.iword)
        return self._word

    @property
    def length(self) -> int:
        return len(self.iword)

    def inverse(self) -> "Element":
        if self._inverse is None:
            inv = self.system._from_word(self.iword[::-1])
            self._inverse = inv
            inv._inverse = self
        return self._inverse

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self.system._own(other)
        return self.system._from_word(self.iword + other.iword)

    def __repr__(self):
        if not self.iword:
            return "Element(e)"
        return "Element(" + "".join(f"s{a}" for a in self.word) + ")"
