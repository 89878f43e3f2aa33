"""Coxeter systems acting on simple-root coordinates with exact scalars.

A system is built from a type label ("A3", "Btilde2", "I2(7)") or an
explicit Coxeter matrix.  Elements are stored as lexicographically first
reduced words; lengths, descents, and reflection tests all reduce to sign
queries on root vectors, which are exact in every arithmetic tier.

Generator labels are 1..n for finite types and 0..n for affine types.
Words are exposed as tuples of labels; internally they are 0-based index
tuples in label order.

Each system also keeps a table of the roots it has met so far: an id per
root vector, the sign of each id, and ``act[s][rid]``, the id of
s(root), filled on first use.  An element u is then named by its key, the
tuple of root ids of u(alpha_1), ..., u(alpha_n), and left-multiplying by
a generator costs n table lookups (Casselman, "Machine calculations in
Weyl groups", Invent. Math. 116, 1994).
"""

from __future__ import annotations

import math
import re
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
        self._leq_cache: dict[tuple, bool] = {}
        self._refl: list[tuple] = []
        self._refl_ends: list[int] = []
        self._refl_seen: set[int] = set()
        self._refl_frontier: list = []
        self._longest = None

    def m(self, a, b):
        """Coxeter matrix entry m(a, b) by generator label."""
        if a == b:
            return 1
        return self._edges.get(frozenset((a, b)), 2)

    def _init_scalars(self):
        finite_ms = {m for m in self._edges.values() if m is not INF}
        if finite_ms <= {3, 4, 6}:
            self.tier = "integer"
            self.ring = None
            self._zero, self._one = 0, 1
        else:
            L = lcm(*sorted(m for m in finite_ms if m >= 4))
            self.ring = CosRing(L)
            self.tier = "quadratic" if L == 5 else "general"
            self._zero, self._one = self.ring.zero, self.ring.one

    def _init_action(self):
        n = self.rank
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                a, b = self.labels[i], self.labels[j]
                m = self.m(a, b)
                if i == j:
                    c = 2 if self.ring is None else self.ring.scalar(2)
                elif m == 2:
                    c = self._zero
                elif self.ring is None:
                    if m == 3:
                        c = -1
                    elif m is INF:
                        c = -2
                    else:
                        # asymmetric integer pair for bond orders 4 and 6;
                        # the orientation does not affect the group
                        big = 2 if m == 4 else 3
                        c = -1 if i < j else -big
                else:
                    if m == 3:
                        c = self.ring.scalar(-1)
                    elif m is INF:
                        c = self.ring.scalar(-2)
                    else:
                        c = -self.ring.two_cos_pi_over(m)
                row.append(c)
            rows.append(tuple(row))
        self._crow = tuple(rows)
        self._alpha = tuple(
            tuple(self._one if i == j else self._zero for j in range(n)) for i in range(n)
        )
        self._id_mat = self._alpha

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

    # -- vector / matrix primitives (index space) ---------------------------

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

    def _mat_vec(self, mat, x):
        out = [self._zero] * self.rank
        for j, xj in enumerate(x):
            if xj:
                col = mat[j]
                for i in range(self.rank):
                    out[i] = out[i] + xj * col[i]
        return tuple(out)

    def _mat_mul(self, a, b):
        return tuple(self._mat_vec(a, col) for col in b)

    def _mat_mul_gen(self, mat, s):
        """Matrix of w*s from the matrix of w, by a column update."""
        row = self._crow[s]
        col_s = mat[s]
        return tuple(
            tuple(
                col[i] - row[j] * col_s[i] if row[j] else col[i]
                for i in range(self.rank)
            )
            for j, col in enumerate(mat)
        )

    def _word_matrix(self, iword):
        """Matrix (tuple of columns) of the element with the given index word."""
        cols = []
        for j in range(self.rank):
            v = self._alpha[j]
            for t in reversed(iword):
                v = self._apply(t, v)
            cols.append(v)
        return tuple(cols)

    # -- word combinatorics -------------------------------------------------

    def _reduce(self, iword):
        """A reduced index word for the product of the given letters."""
        out = []
        for s in iword:
            v = self._alpha[s]
            pos = None
            for j in range(len(out) - 1, -1, -1):
                if v == self._alpha[out[j]]:
                    pos = j
                    break
                v = self._apply(out[j], v)
            if pos is None:
                out.append(s)
            else:
                del out[pos]
        return tuple(out)

    def _left_descent_delete(self, iword):
        """Smallest left descent s of a reduced word, with the word for s*w.

        Returns (s, shorter word) or (None, word) for the identity.
        """
        for s in range(self.rank):
            v = self._alpha[s]
            for j, t in enumerate(iword):
                if v == self._alpha[t]:
                    return s, iword[:j] + iword[j + 1 :]
                v = self._apply(t, v)
        if iword:
            raise AssertionError("nonempty reduced word without a left descent")
        return None, iword

    def _canonical(self, iword):
        """Lexicographically first reduced index word for the product."""
        w = self._reduce(iword)
        out = []
        while w:
            s, w = self._left_descent_delete(w)
            out.append(s)
        return tuple(out)

    def _element(self, canonical_iword) -> "Element":
        el = self._elements.get(canonical_iword)
        if el is None:
            el = Element(self, canonical_iword)
            self._elements[canonical_iword] = el
        return el

    # -- public element API -------------------------------------------------

    @property
    def identity(self) -> "Element":
        return self._element(())

    def generator(self, label) -> "Element":
        return self._element((self._idx[label],))

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
        return self._element(self._canonical(tuple(iword)))

    def multiply(self, w: "Element", v: "Element") -> "Element":
        if w.system is not self or v.system is not self:
            raise ValueError("elements from a different system")
        return self._element(self._canonical(w.iword + v.iword))

    def right_descents(self, w: "Element") -> frozenset:
        mat = w.matrix
        return frozenset(
            self.labels[s] for s in range(self.rank) if self._vec_sign(mat[s]) < 0
        )

    def left_descents(self, w: "Element") -> frozenset:
        out = []
        for s in range(self.rank):
            v = self._alpha[s]
            neg = False
            for j, t in enumerate(w.iword):
                if v == self._alpha[t]:
                    neg = True
                    break
                v = self._apply(t, v)
            if neg:
                out.append(self.labels[s])
        return frozenset(out)

    def is_reflection(self, w: "Element") -> bool:
        """True iff w is conjugate to a generator.

        Decided by the matrix test: w is an involution other than the
        identity whose representation matrix fixes a hyperplane
        (rank(M - I) = 1).
        """
        if w.length % 2 == 0:
            return False
        if w.inverse() is not w:
            return False
        mat = w.matrix
        n = self.rank
        diff = [
            [mat[j][i] - (self._one if i == j else self._zero) for i in range(n)]
            for j in range(n)
        ]
        if not any(x for col in diff for x in col):
            return False
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                for i1 in range(n):
                    for i2 in range(i1 + 1, n):
                        minor = diff[j1][i1] * diff[j2][i2] - diff[j1][i2] * diff[j2][i1]
                        if minor:
                            return False
        return True

    def support(self, w: "Element") -> frozenset:
        return frozenset(self.labels[s] for s in set(w.iword))

    def parabolic_factorize(self, w: "Element") -> tuple:
        """Factor w = x_1 ... x_n with x_k a minimal coset representative.

        x_k lies in the parabolic subgroup on the first k generators and has
        no left descent among the first k-1; concatenating the canonical
        words of the factors yields the canonical word of w.
        """
        factors = [None] * self.rank
        cur = w.iword
        for k in range(self.rank - 1, -1, -1):
            prefix = []
            x = cur
            while True:
                hit = None
                for s in range(k):
                    v = self._alpha[s]
                    for j, t in enumerate(x):
                        if v == self._alpha[t]:
                            hit = (s, x[:j] + x[j + 1 :])
                            break
                        v = self._apply(t, v)
                    if hit:
                        break
                if hit is None:
                    break
                prefix.append(hit[0])
                x = hit[1]
            factors[k] = self._element(self._canonical(x))
            cur = tuple(prefix)
        return tuple(factors)

    def longest_element(self) -> "Element":
        """The longest element of a finite system, by greedy ascent."""
        if self._longest is not None:
            return self._longest
        if not self.is_finite():
            raise ValueError("longest element requires a finite system")
        word = []
        mat = self._id_mat
        while True:
            free = None
            for s in range(self.rank):
                if self._vec_sign(mat[s]) > 0:
                    free = s
                    break
            if free is None:
                break
            word.append(free)
            mat = self._mat_mul_gen(mat, free)
        self._longest = self._element(self._canonical(tuple(word)))
        return self._longest

    def diagram_automorphism(self, permutation, w: "Element") -> "Element":
        """Apply a Coxeter-matrix-preserving relabeling to an element."""
        perm = dict(permutation)
        if sorted(perm) != list(self.labels) or sorted(perm.values()) != list(self.labels):
            raise ValueError("permutation must be a bijection on generator labels")
        for a in self.labels:
            for b in self.labels:
                if self.m(perm[a], perm[b]) != self.m(a, b):
                    raise ValueError("permutation is not a diagram automorphism")
        iword = tuple(self._idx[perm[self.labels[s]]] for s in w.iword)
        return self._element(self._canonical(iword))

    # -- Bruhat order -------------------------------------------------------

    def bruhat_leq(self, x: "Element", y: "Element") -> bool:
        """Decide x <= y in Bruhat order by the descent-lifting recursion."""
        if x.system is not self or y.system is not self:
            raise ValueError("elements from a different system")
        if x.length == 0:
            return True
        if x.length > y.length:
            return False
        key = (x.iword, y.iword)
        res = self._leq_cache.get(key)
        if res is None:
            s = min(self.right_descents(y))
            ys = self.multiply(y, self.generator(s))
            if s in self.right_descents(x):
                res = self.bruhat_leq(self.multiply(x, self.generator(s)), ys)
            else:
                res = self.bruhat_leq(x, ys)
            self._leq_cache[key] = res
        return res

    # -- reflections --------------------------------------------------------

    def reflections_up_to(self, depth: int) -> list:
        """All reflections t with ell(t) <= 2*depth - 1, as Elements."""
        return [t for t, _, _ in self._reflections(depth)]

    def _reflections(self, depth: int) -> list:
        """Triples (t, root id of t, key of t) for ell(t) <= 2*depth - 1.

        Enumerated by breadth-first search over positive root ids; the
        depth of a root equals (ell(t) + 1) / 2 for its reflection t.
        Results are cached and extended incrementally.
        """
        if not self._refl_ends:
            for s in range(self.rank):
                self._refl.append((self._element((s,)), s, self._key((s,))))
                self._refl_seen.add(s)
                self._refl_frontier.append((s, (s,)))
            self._refl_ends.append(len(self._refl))
        while len(self._refl_ends) < depth and self._refl_frontier:
            new_layer = []
            for rid, path in self._refl_frontier:
                for i in range(self.rank):
                    nr = self._act_id(i, rid)
                    if nr == rid or nr in self._refl_seen or self._root_sign[nr] < 0:
                        continue
                    npath = (i,) + path
                    self._refl_seen.add(nr)
                    new_layer.append((nr, npath))
                    tword = npath + tuple(reversed(npath[:-1]))
                    t = self._element(self._canonical(tword))
                    self._refl.append((t, nr, self._key(tword)))
            self._refl_frontier = new_layer
            self._refl_ends.append(len(self._refl))
        reached = min(depth, len(self._refl_ends))
        return self._refl[: self._refl_ends[reached - 1]] if reached > 0 else []

    # -- balls --------------------------------------------------------------

    def ball_layers(self, radius: int) -> list:
        """Elements grouped by length, for lengths 0..radius."""
        layers = [[self.identity]]
        seen = {self._id_mat}
        frontier = [((), self._id_mat)]
        for _ in range(radius):
            nxt = []
            layer = []
            for iword, mat in frontier:
                for s in range(self.rank):
                    if self._vec_sign(mat[s]) < 0:
                        continue
                    nmat = self._mat_mul_gen(mat, s)
                    if nmat in seen:
                        continue
                    seen.add(nmat)
                    nword = iword + (s,)
                    nxt.append((nword, nmat))
                    layer.append(nword)
            layers.append([self._element(self._canonical(wd)) for wd in sorted(layer)])
            frontier = nxt
            if not nxt:
                break
        while len(layers) < radius + 1:
            layers.append([])
        return layers

    def ball_layer_counts(self, radius: int) -> list:
        """Number of elements of each length 0..radius (no canonicalization)."""
        counts = [1]
        seen = {self._id_mat}
        frontier = [self._id_mat]
        for _ in range(radius):
            nxt = []
            for mat in frontier:
                for s in range(self.rank):
                    if self._vec_sign(mat[s]) < 0:
                        continue
                    nmat = self._mat_mul_gen(mat, s)
                    if nmat not in seen:
                        seen.add(nmat)
                        nxt.append(nmat)
            counts.append(len(nxt))
            frontier = nxt
            if not nxt:
                break
        while len(counts) < radius + 1:
            counts.append(0)
        return counts

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

    def components(self, labels=None) -> list:
        """Connected components of the Coxeter diagram (as label lists)."""
        labels = sorted(self.labels if labels is None else labels)
        remaining = set(labels)
        comps = []
        while remaining:
            start = min(remaining)
            comp = {start}
            stack = [start]
            while stack:
                a = stack.pop()
                for b in list(remaining - comp):
                    if self.m(a, b) != 2:
                        comp.add(b)
                        stack.append(b)
            comps.append(sorted(comp))
            remaining -= comp
        return comps

    def classify_component(self, comp) -> tuple | None:
        """Finite type of one connected diagram component, or None if infinite.

        Returns a tag such as ("A", 3), ("B", 4), ("I2", 7), ("H", 4).
        """
        comp = sorted(comp)
        n = len(comp)
        if n == 1:
            return ("A", 1)
        edges = [
            (a, b, self.m(a, b))
            for i, a in enumerate(comp)
            for b in comp[i + 1 :]
            if self.m(a, b) != 2
        ]
        if any(m is INF for _, _, m in edges):
            return None
        if n == 2:
            m = edges[0][2]
            return ("A", 2) if m == 3 else ("I2", m)
        if len(edges) != n - 1:
            return None  # a cycle
        adj = {a: [] for a in comp}
        for a, b, _ in edges:
            adj[a].append(b)
            adj[b].append(a)
        if any(len(v) > 3 for v in adj.values()):
            return None
        branch = [a for a in comp if len(adj[a]) == 3]
        high = [(a, b, m) for a, b, m in edges if m >= 4]
        if len(branch) > 1 or len(high) > 1 or (branch and high):
            return None
        if branch:
            arms = []
            b0 = branch[0]
            for nb in adj[b0]:
                length, prev, cur = 1, b0, nb
                while len(adj[cur]) == 2:
                    nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                    prev, cur = cur, nxt
                    length += 1
                arms.append(length)
            arms.sort()
            if arms[0] == 1 and arms[1] == 1:
                return ("D", n)
            if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
                return ("E", n)
            return None
        if not high:
            return ("A", n)
        a, b, m = high[0]
        at_end = len(adj[a]) == 1 or len(adj[b]) == 1
        if m == 4:
            if at_end:
                return ("B", n)
            if n == 4:
                return ("F", 4)
            return None
        if m == 5 and at_end and n in (3, 4):
            return ("H", n)
        return None

    def finite_type(self, labels=None) -> list | None:
        """Component type tags if the (sub)system is finite, else None."""
        tags = []
        for comp in self.components(labels):
            tag = self.classify_component(comp)
            if tag is None:
                return None
            tags.append(tag)
        return tags

    def is_finite(self) -> bool:
        return self.finite_type() is not None

    def __repr__(self):
        return f"CoxeterSystem({self.descriptor!r})"


# ---------------------------------------------------------------------------
# elements

class Element:
    """A group element, held as its lexicographically first reduced word."""

    __slots__ = ("system", "iword", "_matrix", "_word", "_inverse")

    def __init__(self, system: CoxeterSystem, iword: tuple):
        self.system = system
        self.iword = iword
        self._matrix = None
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

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = self.system._word_matrix(self.iword)
        return self._matrix

    def inverse(self) -> "Element":
        if self._inverse is None:
            inv = self.system._element(
                self.system._canonical(tuple(reversed(self.iword)))
            )
            self._inverse = inv
            inv._inverse = self
        return self._inverse

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.system.multiply(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.system is other.system and self.iword == other.iword

    def __hash__(self):
        return hash((id(self.system), self.iword))

    def sort_key(self):
        """Canonical total order: by length, then shortlex on the word."""
        return (len(self.iword), self.iword)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __repr__(self):
        if not self.iword:
            return "Element(e)"
        return "Element(" + "".join(f"s{a}" for a in self.word) + ")"
