"""Checks of each job's output against the reference models in ``models``.

A check returns normally when the output is right.  It raises ``Failed``
when the operation did not complete (unexpected exit code, no JSON on
stdout): the benchmark counts such a job in ``failed``.  It raises
``Wrong`` when the job completed but its output is false: the benchmark
then reports ``correct: false``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import models


class Failed(Exception):
    """The operation did not complete."""


class Wrong(Exception):
    """The operation completed with a false result."""


def expect(cond, message):
    if not cond:
        raise Wrong(message)


def load(out, codes):
    """The JSON document a job printed, if it exited with one of ``codes``."""
    if out.code not in codes:
        raise Failed(f"exit code {out.code}, expected {codes}: {out.stderr.strip()[-300:]}")
    try:
        return json.loads(out.stdout)
    except ValueError:
        raise Failed("stdout is not a JSON document") from None


# ---------------------------------------------------------------------------
# models, built once per invocation


@lru_cache(maxsize=None)
def signed(kind, n):
    return models.SignedPermutations(kind, n)


@lru_cache(maxsize=None)
def symmetric_kl(n):
    S = models.Permutations(n)
    return S, S.kl_polynomials()


AFFINE = models.AffinePermutations(3)


def y_m_word(m):
    return ((1, 2, 1) + (0, 2, 1) * m)[: 3 + 2 * m]


# ---------------------------------------------------------------------------
# certificates


def check_certificate(model, cert, top_word, interval, params=None):
    """A Cubulation certificate maps the lattice box onto ``interval`` by rank
    and sends every lattice edge to a pair (u, u t) with t a reflection."""
    lattice = tuple(cert["lattice"])
    if params is not None:
        expect(
            tuple(sorted(k for k in lattice if k)) == tuple(sorted(params)),
            f"lattice {lattice} is not C{tuple(params)}",
        )
    box = set(product(*(range(k + 1) for k in lattice)))
    image = {}
    for entry in cert["assignment"]:
        coords, word = tuple(entry["coords"]), entry["word"]
        w = model.from_word(word)
        expect(coords in box and coords not in image, f"bad or repeated coords {coords}")
        expect(
            model.length(w) == len(word) == sum(coords),
            f"rank not preserved at {coords} (word {word})",
        )
        image[coords] = w
    expect(len(image) == len(box), "assignment does not cover the lattice")
    expect(len(set(image.values())) == len(box), "assignment is not injective")
    expect(set(image.values()) == interval, "assignment is not onto the interval")
    expect(image[lattice] == model.from_word(top_word), "lattice top is not the top element")
    for c, u in image.items():
        inv = model.inverse(u)
        for i, k in enumerate(lattice):
            if c[i] < k:
                v = image[c[:i] + (c[i] + 1,) + c[i + 1 :]]
                expect(
                    model.is_reflection(model.compose(inv, v)),
                    f"lattice edge at {c} along axis {i} is not a Bruhat edge",
                )


def check_w0_certificate(doc, kind, n):
    """A Found certificate for the longest element of A_n, B_n or D_n."""
    model = signed(kind, n)
    expect(doc["status"] == "Found", f"status {doc['status']}")
    top = model.from_word(doc["top"])
    expect(model.length(top) == len(model.positive_roots), "top is not the longest element")
    check_certificate(
        model,
        doc["certificate"],
        doc["top"],
        model.elements(),
        params=[d - 1 for d in model.degrees()],
    )


def stats_ok(doc):
    stats = doc["stats"]
    expect(stats["status"] == doc["status"], "stats status differs from status")
    expect(stats["budget_used"] == stats["nodes_expanded"], "budget_used != nodes_expanded")
    return stats


# ---------------------------------------------------------------------------
# search jobs


def cubulate_w0(kind, n):
    def check(out, outs):
        doc = load(out, (0,))
        stats_ok(doc)
        check_w0_certificate(doc, kind, n)

    return check


def exhausted(out, outs):
    doc = load(out, (1,))
    stats = stats_ok(doc)
    expect(doc["status"] == "Exhausted" and doc["certificate"] is None, "not Exhausted")
    expect(stats["shapes_tried"] >= 1, "Exhausted without trying a shape")
    expect(stats["nodes_expanded"] > 0, "Exhausted without expanding a node")


def budgeted(budget, full, kind, n):
    """The budgeted half of a split run: it stops after exactly ``budget``
    nodes, or it already decides with the uninterrupted run's certificate."""

    def check(out, outs):
        doc = load(out, (0, 3))
        stats = stats_ok(doc)
        if out.code == 3:
            expect(doc["status"] == "BudgetExceeded", f"status {doc['status']}")
            expect(stats["nodes_expanded"] == budget, "budget not spent exactly")
            expect(doc["checkpoint"] is not None, "no checkpoint reported")
        else:
            same_certificate(doc, load(outs[full], (0,)))
            check_w0_certificate(doc, kind, n)

    return check


def resumed(first, full, kind, n):
    """The resumed half: the uninterrupted certificate, node counts that add up."""

    def check(out, outs):
        doc = load(out, (0,))
        stats_ok(doc)
        whole = load(outs[full], (0,))
        part = load(outs[first], (0, 3))
        same_certificate(doc, whole)
        spent = part["stats"]["nodes_expanded"] if outs[first].code == 3 else 0
        expect(
            spent + doc["stats"]["nodes_expanded"] == whole["stats"]["nodes_expanded"],
            "split node counts do not sum to the uninterrupted count",
        )
        check_w0_certificate(doc, kind, n)

    return check


def same_certificate(doc, whole):
    expect(doc["status"] == "Found", f"status {doc['status']}")
    expect(doc["certificate"] == whole["certificate"], "certificate differs from the uninterrupted run")


def stale_budget(out, outs):
    doc = load(out, (3,))
    expect(doc["stats"]["nodes_expanded"] == 5, "budget of 5 not spent exactly")


def stale_resume(out, outs):
    """A checkpoint of another element must be refused (exit 2 with a
    message) or ignored (a verified Found for A3 w0)."""
    if out.code == 2:
        if not out.stderr.strip():
            raise Failed("exit 2 without a message")
        return
    if out.code != 0:
        raise Failed(f"exit code {out.code}: a stale checkpoint gave {out.stdout[:200]!r}")
    check_w0_certificate(load(out, (0,)), "A", 3)


# ---------------------------------------------------------------------------
# intervals


def interval_w0(kind, n):
    def check(out, outs):
        doc = load(out, (0,))
        model = signed(kind, n)
        verts = doc["vertices"]
        expect(len(verts) == model.order(), f"{len(verts)} vertices, expected {model.order()}")
        elems = []
        counts = [0] * (len(model.positive_roots) + 1)
        for i, v in enumerate(verts):
            w = model.from_word(v["word"])
            expect(v["id"] == i, "vertex ids are not 0..n-1")
            expect(model.length(w) == v["length"] == len(v["word"]), f"bad length at vertex {i}")
            counts[v["length"]] += 1
            elems.append(w)
        expect(len(set(elems)) == len(elems), "repeated vertex")
        expect(models.trim(counts) == models.qproduct(model.degrees()), "Poincare polynomial")
        top = model.from_word(doc["top"])
        expect(model.length(top) == len(model.positive_roots), "top is not w0")
        edges = doc["bruhat_edges"]
        expect(
            len(edges) == model.order() * len(model.positive_roots) // 2,
            f"{len(edges)} Bruhat edges",
        )
        refl = {}
        seen = set()
        for e in edges:
            u, v = e["source"], e["target"]
            key = tuple(e["reflection"])
            if key not in refl:
                refl[key] = model.from_word(key)
            t = refl[key]
            expect(model.is_reflection(t), f"edge label {key} is not a reflection")
            expect(model.compose(elems[u], t) == elems[v], f"edge {u}->{v}: u t != v")
            expect(verts[v]["length"] > verts[u]["length"], f"edge {u}->{v} goes down")
            seen.add((u, v))
        expect(len(seen) == len(edges), "repeated Bruhat edge")
        hasse = {(u, v) for u, v in seen if verts[v]["length"] == verts[u]["length"] + 1}
        expect({tuple(h) for h in doc["hasse_edges"]} == hasse, "Hasse edges")

    return check


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig tables

# Polynomials are compared through their values at q = 2^64.  Two integer
# polynomials with coefficients below 2^20 in absolute value give sums of
# at most a few thousand products, far below 2^63, so equal values mean
# equal polynomials.
_Q = 1 << 64
_BOUND = 1 << 20


def _value(p):
    v = 0
    for c in reversed(p):
        v = v * _Q + c
    return v


def kl_properties(doc):
    """Identities every KL table satisfies, read off the table alone."""
    verts = doc["vertices"]
    n = len(verts)
    lengths = [v["length"] for v in verts]
    P, R, below, above = {}, {}, [0] * n, [0] * n
    for e in doc["pairs"]:
        x, y = e["x"], e["y"]
        expect((x, y) not in P, f"pair {(x, y)} listed twice")
        expect(all(abs(c) < _BOUND for c in e["P"] + e["R"]), "coefficient too large")
        P[(x, y)], R[(x, y)] = e["P"], e["R"]
        below[y] |= 1 << x
        above[x] |= 1 << y
    top = max(range(n), key=lambda i: lengths[i])
    for x in range(n):
        expect((x, x) in P and P[(x, x)] == [1] and R[(x, x)] == [1], f"diagonal at {x}")
        expect((x, top) in P, f"vertex {x} is not below the top")
    for (x, y), p in P.items():
        d = lengths[y] - lengths[x]
        if x != y:
            expect(d > 0, f"pair {(x, y)} does not go up in length")
            expect(p and p[0] == 1, f"P({x},{y})(0) != 1")
            expect(all(c >= 0 for c in p), f"negative coefficient in P({x},{y})")
            expect(len(p) - 1 <= (d - 1) // 2, f"degree bound fails for P({x},{y})")
    pv = {k: _value(p) for k, p in P.items()}
    rv = {k: _value(r) for k, r in R.items()}
    for (x, y), p in P.items():
        d = lengths[y] - lengths[x]
        lhs = sum(c * _Q ** (d - i) for i, c in enumerate(p))
        rhs = 0
        inverse = 0
        m = above[x] & below[y]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            rhs += rv[(x, w)] * pv[(w, y)]
            term = rv[(x, w)] * rv[(w, y)]
            inverse += term if (lengths[w] - lengths[x]) % 2 == 0 else -term
        expect(lhs == rhs, f"q^d P(1/q) != sum R P at {(x, y)}")
        expect(inverse == (1 if x == y else 0), f"R is not an involution's kernel at {(x, y)}")
    report = doc["report"]
    flags = {report[k] for k in ("all_trivial", "edge_count_ok", "average_length_ok", "palindromic")}
    expect(len(flags) == 1, f"report flags disagree: {report}")
    counts = [0] * (lengths[top] + 1)
    for l in lengths:
        counts[l] += 1
    expect(report["palindromic"] == models.is_palindromic(counts), "palindromic flag")
    expect(Fraction(*report["a_y"]) == Fraction(sum(lengths), n), "a_y")
    expect(
        report["all_trivial"] == all(P[(x, top)] == [1] for x in range(n)),
        "all_trivial flag",
    )
    return P, R, lengths


def kl_properties_only(out, outs):
    kl_properties(load(out, (0,)))


def kl_signed_w0(kind, n):
    """Properties, plus the order relation of the whole group from the model."""

    def check(out, outs):
        doc = load(out, (0,))
        P, _, lengths = kl_properties(doc)
        model = signed(kind, n)
        elems = [model.from_word(v["word"]) for v in doc["vertices"]]
        expect(set(elems) == model.elements(), "vertices are not the whole group")
        expect(all(model.length(w) == l for w, l in zip(elems, lengths)), "lengths")
        order, index, below = models.bruhat_below(model, elems)
        pairs = {
            (i, j)
            for j, y in enumerate(elems)
            for i, x in enumerate(elems)
            if below[index[y]] >> index[x] & 1
        }
        expect(set(P) == pairs, "listed pairs are not the Bruhat order")

    return check


def kl_symmetric(n, extra=None):
    """Every P against the S_(n+1) model's own recursion and Bruhat test."""

    def check(out, outs):
        doc = load(out, (0,))
        P, _, lengths = kl_properties(doc)
        S, ref = symmetric_kl(n + 1)
        elems = [S.from_word(v["word"]) for v in doc["vertices"]]
        expect(len(set(elems)) == len(elems), "repeated vertex")
        expect(all(S.length(w) == l for w, l in zip(elems, lengths)), "lengths")
        top = S.from_word(doc["top"])
        expect(
            set(elems) == {x for x in S.elements() if S.leq(x, top)},
            "vertices are not the interval [1, top]",
        )
        pairs = {
            (i, j)
            for j, y in enumerate(elems)
            for i, x in enumerate(elems)
            if S.leq(x, y)
        }
        expect(set(P) == pairs, "listed pairs are not the Bruhat order")
        for (i, j), p in P.items():
            want = [1] if i == j else ref[(elems[i], elems[j])]
            expect(p == want, f"P({i},{j}) = {p}, the model gives {want}")
        if extra:
            extra(S, elems, P)

    return check


def a3_2132_values(S, elems, P):
    """P_{e,y} = P_{s2,y} = 1 + q for y = s2 s1 s3 s2."""
    y = elems.index(S.from_word([2, 1, 3, 2]))
    for word in ([], [2]):
        x = elems.index(S.from_word(word))
        expect(P[(x, y)] == [1, 1], f"P({word}, 2132) = {P[(x, y)]}, expected 1 + q")


def kl_dihedral(m):
    def check(out, outs):
        doc = load(out, (0,))
        P, R, lengths = kl_properties(doc)
        model = models.Dihedral(m)
        elems = [model.from_word(v["word"]) for v in doc["vertices"]]
        expect(set(elems) == model.elements(), "vertices are not the whole group")
        expect(all(model.length(w) == l for w, l in zip(elems, lengths)), "lengths")
        pairs = {
            (i, j)
            for i in range(len(elems))
            for j in range(len(elems))
            if i == j or lengths[i] < lengths[j]
        }
        expect(set(P) == pairs, "listed pairs are not the dihedral Bruhat order")
        for (i, j), r in R.items():
            want = [1] if i == j else models.dihedral_r(lengths[j] - lengths[i])
            expect(r == want, f"R({i},{j}) = {r}, the closed form gives {want}")
            expect(P[(i, j)] == [1], f"P({i},{j}) != 1 in a dihedral group")

    return check


# ---------------------------------------------------------------------------
# the affine rank-3 system


def affine_certificate(doc, m):
    word = y_m_word(m)
    top = AFFINE.from_word(doc["top"])
    expect(top == AFFINE.from_word(word), f"top is not y_{m}")
    expect(AFFINE.length(top) == len(word), f"y_{m} is not reduced")
    interval = AFFINE.lower_interval(word)
    expect(len(interval) == 3 * (m + 1) * (m + 2), f"|[1, y_{m}]| = {len(interval)}")
    check_certificate(AFFINE, doc["certificate"], doc["top"], interval)


def construct_atilde2(m):
    def check(out, outs):
        doc = load(out, (0,))
        expect(doc["tag"] == "atilde2", f"tag {doc['tag']}")
        expect(doc["lattice"] == [2, m, m + 1], f"lattice {doc['lattice']}")
        expect(doc["certificate"]["lattice"] == doc["lattice"], "certificate lattice")
        affine_certificate(doc, m)

    return check


def cubulate_y_m(m):
    def check(out, outs):
        doc = load(out, (0,))
        stats_ok(doc)
        expect(doc["status"] == "Found", f"status {doc['status']}")
        affine_certificate(doc, m)

    return check


def growth_atilde(n, order):
    """Series from Bott's formula; the probe finds F(z) = 1 - z^(n+1)."""

    def check(out, outs):
        doc = load(out, (0,))
        expect(doc["system"] == f"Atilde{n}" and doc["order"] == order, "system or order")
        series = models.bott_series(range(1, n + 1), order)
        balls = [sum(series[: k + 1]) for k in range(order + 1)]
        expect(doc["poincare"] == series, "Poincare series differs from Bott's formula")
        expect(doc["bott"] == series, "bott field differs from Bott's formula")
        expect(doc["ball_sizes"] == balls, "ball sizes differ from Bott's formula")
        expect(doc["volume_growth"] == balls, "volume growth differs from Bott's formula")
        expect(doc["minimal_nonspherical_L"] == 1 + n * (n + 1) // 2, "minimal_nonspherical_L")
        f = [1] + [0] * order
        if n + 1 <= order:
            f[n + 1] = -1
        probe = doc["probe"]
        expect(probe["f_coeffs"] == f, "probe F(z) is not 1 - z^(n+1)")
        expect(probe["stabilized_shape"] == [n + 1], f"stabilized shape {probe['stabilized_shape']}")
        expect(isinstance(probe["stabilization_index"], int), "no stabilization index")

    return check


_REPS = ([], [1], [1, 2], [1, 2, 0], [1, 2, 1, 0], [0, 1, 2, 1])


def enumeration(max_length):
    """The listed trivial elements are those whose subword interval has a
    palindromic Poincare polynomial, each matched to a relabeled class
    representative."""

    def check(out, outs):
        doc = load(out, (0,))
        expect(doc["max_length"] == max_length, "max_length")
        trivial = set()
        for w, word in AFFINE.ball(max_length).items():
            counts = [0] * (len(word) + 1)
            for x in AFFINE.lower_interval(word):
                counts[AFFINE.length(x)] += 1
            if models.is_palindromic(counts):
                trivial.add(w)
        listed = [AFFINE.from_word(e["y"]) for e in doc["trivial"]]
        expect(len(set(listed)) == len(listed), "repeated element")
        expect(set(listed) == trivial, f"{len(listed)} listed, the model finds {len(trivial)}")
        reps = {AFFINE.from_word(w) for w in _REPS}
        reps |= {AFFINE.from_word(y_m_word(m)) for m in range((max_length - 3) // 2 + 1)}
        relabelings = [dict(zip((0, 1, 2), p)) for p in permutations((0, 1, 2))]
        for e in doc["trivial"]:
            rep = AFFINE.from_word(e["rep"])
            expect(rep in reps, f"{e['rep']} is not a class representative")
            expect(
                any(AFFINE.from_word([p[a] for a in e["y"]]) == rep for p in relabelings),
                f"{e['y']} is not a relabeling of {e['rep']}",
            )

    return check
