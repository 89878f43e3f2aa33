"""Reference models of the groups the benchmark's jobs compute in.

Nothing here imports ``bruhat_cubulator``.  Elements are signed
permutations, permutations, affine permutations or affine maps of Z/m;
lengths come from counting inverted roots or inversions; reflections come
from their definition.  The program instead works with Coxeter-matrix
actions on simple-root coordinates and canonical words, so agreement
between the two is evidence about the program.

Polynomials are lists of integer coefficients, lowest degree first, with
no trailing zeros (the zero polynomial is ``[]``).

Generator labels follow the program: B_n has m(1, 2) = 4 on a path
1 - 2 - ... - n; D_n is a path 1 - ... - (n-1) with n attached to n-2;
the affine system on labels 0..n is a cycle; I2(m) has labels 1, 2.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

# ---------------------------------------------------------------------------
# integer polynomials


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pscale(a, c, shift=0):
    """c * q^shift * a."""
    return trim([0] * shift + [c * x for x in a]) if a and c else []


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def qproduct(degrees):
    """The product of the q-integers [d]_q = 1 + q + ... + q^(d-1)."""
    out = [1]
    for d in degrees:
        out = pmul(out, [1] * d)
    return out


def is_palindromic(a):
    return a == a[::-1]


def dihedral_r(d):
    """R_{x,y} in any dihedral group when l(y) - l(x) = d >= 1.

    sum_k C(d-1-k, k) q^k (q-1)^(d-2k), from the recursion
    R~_d = t R~_(d-1) + R~_(d-2) on R~ with q^(1/2) - q^(-1/2) = t.
    """
    total = []
    for k in range((d - 1) // 2 + 1):
        term = [comb(d - 1 - k, k)]
        for _ in range(d - 2 * k):
            term = pmul(term, [-1, 1])
        total = padd(total, pscale(term, 1, k))
    return total


def series_div(numer, denom, order):
    """Coefficients 0..order of numer/denom, for denom with constant term 1."""
    if denom[0] != 1:
        raise ValueError("denominator must have constant term 1")
    out = []
    rem = list(numer) + [0] * (order + 1)
    for i in range(order + 1):
        c = rem[i]
        out.append(c)
        if c:
            for j in range(1, len(denom)):
                if i + j < len(rem):
                    rem[i + j] -= c * denom[j]
    return out


def bott_series(exponents, order):
    """Bott's formula prod_e (1 - z^(e+1)) / ((1 - z)(1 - z^e)), truncated."""

    def one_minus(a):
        return [1] + [0] * (a - 1) + [-1]

    numer, denom = [1], [1]
    for e in exponents:
        numer = pmul(numer, one_minus(e + 1))
        denom = pmul(denom, pmul(one_minus(1), one_minus(e)))
    return series_div(numer, denom, order)


# ---------------------------------------------------------------------------
# finite groups: signed permutations of coordinates


class SignedPermutations:
    """A_n, B_n or D_n as signed permutations acting on R^dim.

    An element w is a tuple with w[i] = +-j meaning w(e_(i+1)) = +-e_j.
    Products are composition of maps, so the element of a word
    a_1 ... a_k is s_(a_1) o ... o s_(a_k).  The length of w is the number
    of positive roots it sends to negative roots.
    """

    def __init__(self, kind: str, n: int):
        self.kind, self.n = kind, n
        dim = n + 1 if kind == "A" else n
        self.dim = dim
        unit = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]

        def minus(a, b):
            return tuple(x - y for x, y in zip(a, b))

        def plus(a, b):
            return tuple(x + y for x, y in zip(a, b))

        if kind == "A":
            simple = {i: minus(unit[i - 1], unit[i]) for i in range(1, n + 1)}
            roots = [minus(unit[i], unit[j]) for i in range(dim) for j in range(i + 1, dim)]
        elif kind == "B":
            simple = {1: unit[0]}
            simple.update({i: minus(unit[i - 1], unit[i - 2]) for i in range(2, n + 1)})
            roots = list(unit)
            for i in range(dim):
                for j in range(i + 1, dim):
                    roots += [minus(unit[j], unit[i]), plus(unit[j], unit[i])]
        elif kind == "D":
            simple = {i: minus(unit[i - 1], unit[i]) for i in range(1, n)}
            simple[n] = plus(unit[n - 2], unit[n - 1])
            roots = []
            for i in range(dim):
                for j in range(i + 1, dim):
                    roots += [minus(unit[i], unit[j]), plus(unit[i], unit[j])]
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.simple_roots = simple
        self.positive_roots = roots
        self.identity = tuple(range(1, dim + 1))
        self.gens = {a: self.reflection(r) for a, r in simple.items()}
        self.reflections = frozenset(self.reflection(r) for r in roots)

    # B_n: the last nonzero coordinate decides; A_n and D_n: the first one
    def is_positive(self, v) -> bool:
        seq = reversed(v) if self.kind == "B" else v
        for x in seq:
            if x:
                return x > 0
        raise ValueError("zero vector")

    def apply(self, w, v):
        out = [0] * self.dim
        for i, c in enumerate(v):
            if c:
                j = w[i]
                out[abs(j) - 1] += c if j > 0 else -c
        return tuple(out)

    def reflection(self, root):
        """The signed permutation x -> x - 2 (x.root)/(root.root) root."""
        norm = sum(x * x for x in root)
        images = []
        for i in range(self.dim):
            coeff = 2 * root[i]
            if coeff % norm:
                raise ValueError("not a root of this system")
            k = coeff // norm
            img = [(1 if j == i else 0) - k * root[j] for j in range(self.dim)]
            (pos,) = [j for j, x in enumerate(img) if x]
            if abs(img[pos]) != 1:
                raise ValueError("reflection is not a signed permutation")
            images.append((pos + 1) * img[pos])
        return tuple(images)

    def compose(self, u, v):
        return tuple(u[abs(j) - 1] if j > 0 else -u[abs(j) - 1] for j in v)

    def inverse(self, w):
        out = [0] * self.dim
        for i, j in enumerate(w):
            out[abs(j) - 1] = (i + 1) if j > 0 else -(i + 1)
        return tuple(out)

    def from_word(self, word):
        w = self.identity
        for a in word:
            w = self.compose(w, self.gens[a])
        return w

    def length(self, w) -> int:
        return sum(1 for r in self.positive_roots if not self.is_positive(self.apply(w, r)))

    def is_reflection(self, w) -> bool:
        return w in self.reflections

    def order(self) -> int:
        n = self.n
        return {
            "A": factorial(n + 1),
            "B": 2**n * factorial(n),
            "D": 2 ** (n - 1) * factorial(n),
        }[self.kind]

    def degrees(self) -> tuple:
        n = self.n
        if self.kind == "A":
            return tuple(range(2, n + 2))
        if self.kind == "B":
            return tuple(range(2, 2 * n + 1, 2))
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))

    def elements(self):
        """Every element, by breadth-first search from the identity."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                for g in self.gens.values():
                    x = self.compose(w, g)
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return seen


def bruhat_below(model, elements):
    """For a lower interval given as a collection, the bitmask of x <= v for each v.

    Bruhat order is the transitive closure of x < x t for reflections t
    with l(x t) > l(x); every such x below v lies in the interval too.
    Returns (ordered element list, index map, list of masks).
    """
    lengths = {w: model.length(w) for w in elements}
    order = sorted(elements, key=lambda w: (lengths[w], w))
    index = {w: i for i, w in enumerate(order)}
    refl = list(model.reflections)
    below = []
    for i, v in enumerate(order):
        mask = 1 << i
        for t in refl:
            u = model.compose(v, t)
            j = index.get(u)
            if j is not None and lengths[u] < lengths[v]:
                mask |= below[j]
        below.append(mask)
    return order, index, below


# ---------------------------------------------------------------------------
# the symmetric group, with its own Bruhat test and Kazhdan-Lusztig recursion


class Permutations:
    """S_n in one-line notation; s_i swaps the values in positions i, i+1."""

    def __init__(self, n: int):
        self.n = n
        self.identity = tuple(range(1, n + 1))

    def times_gen(self, w, i):
        w = list(w)
        w[i - 1], w[i] = w[i], w[i - 1]
        return tuple(w)

    def from_word(self, word):
        w = self.identity
        for a in word:
            w = self.times_gen(w, a)
        return w

    def length(self, w) -> int:
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n) if w[i] > w[j])

    def leq(self, x, y) -> bool:
        """Tableau criterion: sorted prefixes of x lie entrywise below those of y."""
        for k in range(1, self.n):
            if any(a > b for a, b in zip(sorted(x[:k]), sorted(y[:k]))):
                return False
        return True

    def elements(self):
        return list(permutations(self.identity))

    def kl_polynomials(self):
        """P_{x,w} for every x <= w, by the Kazhdan-Lusztig recursion.

        For a right descent s of w and v = w s:
        P_{x,w} = q^(1-c) P_{xs,v} + q^c P_{x,v}
                  - sum over z in [x, v) with zs < z of mu(z,v) q^((l(w)-l(z))/2) P_{x,z},
        with c = 1 if xs < x and c = 0 otherwise.
        """
        elems = sorted(self.elements(), key=lambda w: (self.length(w), w))
        length = {w: self.length(w) for w in elems}
        P: dict = {}
        mu: dict = {}

        def get(x, w):
            if x == w:
                return [1]
            return P.get((x, w), [])

        for w in elems:
            mu[w] = []
            if w == self.identity:
                continue
            s = next(i for i in range(1, self.n) if w[i - 1] > w[i])
            v = self.times_gen(w, s)
            lower = [x for x in elems if length[x] < length[w] and self.leq(x, w)]
            for x in lower:
                xs = self.times_gen(x, s)
                c = 1 if length[xs] < length[x] else 0
                total = padd(pscale(get(xs, v), 1, 1 - c), pscale(get(x, v), 1, c))
                for z, m in mu[v]:
                    if length[self.times_gen(z, s)] < length[z] and (x == z or (x, z) in P):
                        total = padd(total, pscale(get(x, z), -m, (length[w] - length[z]) // 2))
                P[(x, w)] = total
            for z in lower:
                d = length[w] - length[z]
                p = P[(z, w)]
                if d % 2 and len(p) > (d - 1) // 2 and p[(d - 1) // 2]:
                    mu[w].append((z, p[(d - 1) // 2]))
        return P


# ---------------------------------------------------------------------------
# the affine symmetric group


class AffinePermutations:
    """The affine Weyl group of type A_(N-1) as bijections w of Z.

    w(i + N) = w(i) + N and w(1) + ... + w(N) = 1 + ... + N; an element is
    its window (w(1), ..., w(N)).  Generator s_i (1 <= i < N) swaps i and
    i + 1, and s_0 swaps 0 and 1, each extended periodically.
    """

    def __init__(self, N: int):
        self.N = N
        self.identity = tuple(range(1, N + 1))
        gens = {}
        for i in range(1, N):
            w = list(self.identity)
            w[i - 1], w[i] = w[i], w[i - 1]
            gens[i] = tuple(w)
        gens[0] = (0,) + tuple(range(2, N)) + (N + 1,)
        self.gens = gens

    def value(self, w, j):
        r = (j - 1) % self.N
        return w[r] + (j - 1 - r)

    def compose(self, u, v):
        return tuple(self.value(u, j) for j in v)

    def inverse(self, w):
        out = [0] * self.N
        for i, x in enumerate(w):
            r = (x - 1) % self.N
            out[r] = (i + 1) - (x - 1 - r)
        return tuple(out)

    def from_word(self, word):
        w = self.identity
        for a in word:
            w = self.compose(w, self.gens[a])
        return w

    def length(self, w) -> int:
        """Shi's inversion formula: sum over i < j in the window of |floor((w(j) - w(i)) / N)|."""
        N = self.N
        return sum(abs((w[j] - w[i]) // N) for i in range(N) for j in range(i + 1, N))

    def is_reflection(self, t) -> bool:
        """An involution that moves exactly two residue classes is a transposition."""
        if t == self.identity or self.compose(t, t) != self.identity:
            return False
        return sum(1 for i, x in enumerate(t) if x != i + 1) == 2

    def lower_interval(self, word):
        """[1, y] for a reduced word of y: all products of its subwords."""
        current = {self.identity}
        for a in word:
            g = self.gens[a]
            current |= {self.compose(x, g) for x in current}
        return current

    def ball(self, radius):
        """Elements of length <= radius, each with one reduced word."""
        words = {self.identity: ()}
        layer = [self.identity]
        for k in range(radius):
            nxt = []
            for w in layer:
                for a, g in self.gens.items():
                    x = self.compose(w, g)
                    if x not in words and self.length(x) == k + 1:
                        words[x] = words[w] + (a,)
                        nxt.append(x)
            layer = nxt
        return words


# ---------------------------------------------------------------------------
# dihedral groups


class Dihedral:
    """I2(m) as the maps x -> e*x + k of Z/m; s1 = x -> -x, s2 = x -> 1 - x."""

    def __init__(self, m: int):
        self.m = m
        self.identity = (1, 0)
        self.gens = {1: (-1, 0), 2: (-1, 1)}
        self._length = {self.identity: 0}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                for g in self.gens.values():
                    x = self.compose(w, g)
                    if x not in self._length:
                        self._length[x] = self._length[w] + 1
                        nxt.append(x)
            frontier = nxt

    def compose(self, u, v):
        return (u[0] * v[0], (u[0] * v[1] + u[1]) % self.m)

    def from_word(self, word):
        w = self.identity
        for a in word:
            w = self.compose(w, self.gens[a])
        return w

    def length(self, w) -> int:
        return self._length[w]

    def elements(self):
        return set(self._length)
