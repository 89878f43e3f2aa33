"""Backtracking search for cubical-lattice spanning subgraphs of Bruhat graphs.

Lattice vertices are processed in (rank, lexicographic) order, so every
lattice predecessor of a vertex is assigned before it.  The search names a
vertex by its position in that order and reads positions off integer
mixed-radix codes (``_positions``): the order, each vertex's predecessors
and the unit vectors come by arithmetic, and coordinate tuples are made
only for a Found certificate.  A lattice edge
raises the rank by one, so it must land on a Hasse edge of [1, y], and
the candidate set for a vertex is a bitset intersection: unused interval
vertices that cover the image of every predecessor.  That intersection
is formed once, when the vertex's last predecessor is assigned, and an
assignment that leaves such a vertex with no candidate is undone at once
(forward checking; Ullmann, J. ACM 23, 1976).
A cubulation is a rank-preserving bijection, and each lattice rank has
as many vertices as its length band has ids, so each rank maps
bijectively onto its band, and every bitset is local to one band.  The
search keeps a perfect matching of the current rank's unassigned
vertices onto the band's free ids, each within its candidate set,
repairs it by one alternating path per assignment and undoes an
assignment that leaves none (Regin's all-different filter, AAAI 1994).
Candidates are consumed in increasing vertex id, which makes runs
deterministic, makes a Found certificate the lexicographically least
one, and lets a checkpoint consist of just the chosen-id path, which
replays through the search's one loop.  The symmetry rules (equal
lattice parameters, diagram-automorphism orbits) keep that certificate;
``search`` gives the argument.  An element has at most one candidate
shape, so ``search`` is a single serial search, and the one entry point:
it binds a checkpoint to its job before replay.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, pairwise, product, repeat
from math import prod
from typing import NamedTuple

from .bruhat import BruhatInterval, interval, poincare_polynomial
from .coxeter import Element
from .cube import CubicalLattice
from .polynomials import quantum_factorizations

FOUND = "Found"
EXHAUSTED = "Exhausted"
BUDGET_EXCEEDED = "BudgetExceeded"
# the version of the pruning rules: node counts, and so the point a
# checkpoint resumes from, depend on them; bump it when a rule changes
SEARCH_RULES = 2


class Cubulation(NamedTuple):
    """A certified isomorphism from a cubical lattice onto a spanning subgraph."""

    lattice: CubicalLattice
    assignment: dict  # lattice vertex (coordinate tuple) -> interval vertex id


class SearchOutcome(NamedTuple):
    status: str
    certificate: Cubulation | None
    stats: dict
    checkpoint: dict | None = None


def candidate_shapes(iv: BruhatInterval) -> list[tuple]:
    """Quantum factorizations of p_y with exactly |support(y)| factors.

    An empty list proves that [1, y] has no cubulation: any cubulating
    lattice forces such a factorization.  The list has at most one entry,
    since a quantum factorization is unique.
    """
    p = poincare_polynomial(iv)
    n = len(iv.system.support(iv.top))
    return sorted(s for s in quantum_factorizations(p) if len(s) == n)


def _shape_lattice(shape) -> CubicalLattice:
    if not shape:
        return CubicalLattice((0,))
    return CubicalLattice(tuple(a - 1 for a in shape))


def _positions(params: tuple[int, ...]) -> tuple[list[int], list[tuple], list[tuple], list[int]]:
    """The lattice C(params) on its positions, its vertices in (rank,
    lexicographic) order: the tables (code, ready, others, unit).

    Vertex v has the mixed-radix code sum_i v_i * radix_i, radix_i =
    prod_{j > i} (k_j + 1), so lexicographic order is numeric order of the
    codes, and position order is the codes stably sorted by digit sum:
    ``code[p]`` is position p's.  The predecessors of v are the v - e_i,
    codes c - radix_i, one per nonzero digit v_i, and the last of them in
    position order is the one at v's last nonzero digit, the least radix.
    ``ready[p]`` holds the positions whose last predecessor is p, and
    ``others[r]`` r's other predecessors.  ``unit[i]`` is the position of
    e_i, code radix_i, or -1 if k_i = 0.

    The last predecessor never decreases along the positions, so each
    ``ready[p]`` is a run of them: if u precedes v in one rank and they
    first differ at axis a, then u_a < v_a and u has a nonzero digit past
    a, so u's last predecessor agrees with u up to a, and v's agrees with v
    before a and holds v_a, or v_a - 1 with only zeros after it, at a;
    either way u's is at most v's.
    """
    n = len(params)
    radix = [prod(k + 1 for k in params[i + 1 :]) for i in range(n)]
    # nonzero[c]: the bitset of the axes of c's nonzero digits, and
    # rank[c]: c's digit sum, for c in code order, built from the last axis
    nonzero, rank = [0], [0]
    for i in reversed(range(n)):
        nonzero += [z | 1 << i for z in nonzero] * params[i]
        rank = [r + d for d in range(params[i] + 1) for r in rank]
    # steps[z]: the radices of the axes in bitset z, least first
    steps = [[radix[i] for i in reversed(range(n)) if z >> i & 1] for z in range(1 << n)]
    rest = [tuple(s[1:]) for s in steps]
    ids = tuple(range(len(rank)))  # one int object per position, shared by every table
    code = sorted(ids, key=rank.__getitem__)
    pos = sorted(ids, key=code.__getitem__)
    # the positions r >= 1 by their last predecessor: first[p] <= r < first[p + 1]
    count = Counter(pos[c - steps[nonzero[c]][0]] for c in code[1:])
    first = list(accumulate(map(count.get, ids, repeat(0)), initial=1))
    ready = [ids[a:b] for a, b in pairwise(first)]
    others = [tuple([pos[c - step] for step in rest[nonzero[c]]]) for c in code]
    return code, ready, others, [pos[step] if k else -1 for step, k in zip(radix, params)]


def _assignment(params: tuple[int, ...], code: list[int], assigned: list[int]) -> dict:
    """A certificate's assignment: the vertex of each position, as its
    coordinate tuple, to the position's id.  ``product`` lists the vertices
    in lexicographic order, which is the order of their codes."""
    verts = list(product(*(range(k + 1) for k in params)))
    return dict(zip(map(verts.__getitem__, code), assigned))


def _orbit_minima(iv: BruhatInterval) -> int:
    """Bitset, local to length band 1 (bit id - 1), of the generator ids in
    [1, y] least in their orbit under the diagram automorphisms that fix y."""
    sys, y = iv.system, iv.top
    group = [s for s in sys.diagram_automorphisms() if sys.diagram_automorphism(s, y) is y]
    mask = 0
    for a in sys.support(y):
        ids = [iv.id_of(sys.generator(s[a]).iword) for s in group]
        if ids[0] == min(ids):  # group[0] is the identity
            mask |= 1 << (ids[0] - 1)
    return mask


def bind(iv: BruhatInterval, checkpoint: dict | None = None) -> dict:
    """The job of ``search(iv)``: the system, the top element's word, the
    pruning rules and the candidate shape (None if there is none).  A
    checkpoint must carry each of these fields with this job's value, or
    ValueError names the first that is missing or differs.
    """
    shapes = candidate_shapes(iv)
    job = {
        "system": iv.system.descriptor,
        "top": list(iv.top.word),
        "search_rules": SEARCH_RULES,
        "shape": list(shapes[0]) if shapes else None,
    }
    if checkpoint is not None:
        for key, value in job.items():
            if key not in checkpoint:
                raise ValueError(f"checkpoint lacks {key}; it cannot be bound to this job")
            if checkpoint[key] != value:
                raise ValueError(
                    f"checkpoint {key} {checkpoint[key]!r} differs from this job's {value!r}; "
                    "the checkpoint belongs to another job or to other pruning rules"
                )
    return job


def _stats(nodes: int, shapes: int, prunes_forward: int, prunes_matching: int) -> dict:
    return {
        "nodes_expanded": nodes,
        "shapes_tried": shapes,
        "prunes_forward": prunes_forward,
        "prunes_matching": prunes_matching,
    }


def _augment(o: int, goal: int, domains, blocked: int, match, owner, via) -> int:
    """Rematch vertex o along a shortest alternating path that ends on an id
    in ``goal``, an id no vertex holds; return that id, or -1 if none exists.

    Vertex q may take the ids of ``domains[q] & ~blocked``; ``match[q]`` is
    q's id and ``owner`` inverts ``match`` on the held ids.  The path is
    searched breadth first, with no recursion, and no match is written
    unless it is found.  ``via`` is scratch space with an entry per id:
    via[i] is set to the vertex whose domain reached i.
    """
    seen = blocked
    level = [o]
    while level:
        nxt = []
        for q in level:
            m = domains[q] & ~seen
            hit = m & goal
            if hit:
                i = (hit & -hit).bit_length() - 1
                reached = i
                while True:
                    j = match[q]
                    match[q] = i
                    owner[i] = q
                    if q == o:
                        return reached
                    i, q = j, via[j]
            seen |= m
            while m:
                b = m & -m
                i = b.bit_length() - 1
                via[i] = q
                nxt.append(owner[i])
                m ^= b
        level = nxt
    return -1


def _match_rank(lo: int, hi: int, domains, match, owner, via) -> bool:
    """Match each vertex lo..hi-1 to its own id in ``domains``: greedily by
    least id, then by augmenting paths.  False if no such matching exists."""
    taken = 0
    for q in range(lo, hi):
        m = domains[q] & ~taken
        if m:
            i = (m & -m).bit_length() - 1
            match[q] = i
            owner[i] = q
        else:
            i = _augment(q, ~taken, domains, 0, match, owner, via)
            if i < 0:
                return False
        taken |= 1 << i
    return True


def search(
    iv: BruhatInterval,
    budget: int | None = None,
    checkpoint: dict | None = None,
) -> SearchOutcome:
    """Exhaustive depth-first search of the candidate shape of [1, y].

    An element has at most one candidate shape; with none, the outcome is
    Exhausted with ``shapes_tried`` 0.  The search returns the
    lexicographically least valid assignment L (in search order, by id),
    or proves that none exists.  Four rules cut the tree, and each holds
    for L, so none moves a Found certificate and an Exhausted verdict stays
    sound:

    - forward checking: once the last predecessor of a lattice vertex is
      assigned, the vertex must keep a candidate, or the assignment is
      undone at once; this removes only subtrees with no completion;
    - perfect matching: the unassigned vertices of the current rank must
      have a perfect matching onto the free ids of their length band, each
      vertex r matched within ``base[r] & ~used``.  A completion maps each
      rank bijectively onto its band, and each vertex into its candidate
      set, so it is such a matching; a subtree where none exists has no
      completion.  The matching is built when the previous rank is
      complete and repaired by one alternating path per assignment;
    - equal adjacent parameters k_i = k_{i+1}: the image of e_i exceeds that
      of e_{i+1}, which is searched first.  Swapping the two axes of L gives
      a valid assignment that agrees with L before e_{i+1} and sends it to
      L(e_i), so L(e_{i+1}) < L(e_i);
    - orbit minima: a diagram automorphism sigma with sigma(y) = y is an
      automorphism of the Bruhat graph of [1, y], so sigma o L is valid and
      agrees with L at the origin.  Hence L sends position 1, the first
      rank-1 lattice vertex, to a generator id least in its orbit.

    ``budget`` bounds the number of node expansions (assignments tried,
    those undone by a rule included); exceeding it returns BudgetExceeded
    with a resumable checkpoint.  ``nodes_expanded`` counts this call's
    expansions only.  A checkpoint is bound to this job (``bind``), then
    replays its path, each entry a candidate at its depth that passes the
    rules, and then its ``min_id``, a candidate at the next depth; one
    that does not raises ValueError.
    """
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    job = bind(iv, checkpoint)
    if job["shape"] is None:
        return SearchOutcome(EXHAUSTED, None, _stats(0, 0, 0, 0))
    lattice = _shape_lattice(job["shape"])
    par = lattice.params
    code, ready, others, unit = _positions(par)
    nv = len(code)
    # lattice rank k has as many positions as band k has ids, so position p
    # has rank band[p], and bit i of its masks stands for id lo[p] + i
    starts, band = iv.starts, iv.lengths
    lo = [starts[k] for k in band]
    end = [starts[k + 1] for k in band]
    # up[u]: the interval vertices that cover u, in band ell(u) + 1 (id v
    # has band band[v] too, so lo[v] is its band's first id)
    up = [0] * nv
    covers = iv.covers
    for v, low in enumerate(lo):
        bit = 1 << (v - low)
        for u in covers(v):
            up[u] |= bit
    # gt[e_i] = e_{i+1} for equal adjacent parameters: L(e_i) > L(e_{i+1})
    gt = [-1] * nv
    for i in range(len(par) - 1):
        if par[i] == par[i + 1] > 0:
            gt[unit[i]] = unit[i + 1]

    assigned = [-1] * nv
    masks = [0] * nv
    # upa[q]: up[assigned[q]], the covers of q's image
    upa = [0] * nv
    # base[p]: the covers of the images of p's predecessors (at position 1,
    # orbit minima only), filled when the last of them is assigned.
    # Position 0 holds the identity, so rank 1 is filled here and the loop
    # checks no vertex when position 0 is assigned.
    base = [0] * nv
    base[0] = 1
    for r in ready[0]:
        base[r] = up[0]
    if nv > 1:
        base[1] &= _orbit_minima(iv)
    ready[0] = ()
    # used[k]: the ids of band k held by assigned positions
    used = [0] * (len(starts) - 1)
    # match[q], for the unassigned q of the current rank: a perfect matching
    # onto the band's free ids, match[q] in base[q] & ~used; owners[k]
    # inverts it on band k.  An assigned p keeps match[p] = its id, which
    # nothing reads until p is undone and which then restores the matching.
    # Rank 0 starts matched: position 0 holds id 0, the identity.
    match = [0] * nv
    owners = [[0] * (hi - a) for a, hi in zip(starts, starts[1:])]
    via = [0] * max(map(len, owners))
    prunes_forward = prunes_matching = 0

    # a checkpoint replays its path, then min_id, through the loop below:
    # positions up to ``replay`` take only those ids, one node each, and
    # ``nodes`` counts those of the path, which the budget does not
    path, min_id = (checkpoint["path"], checkpoint["min_id"]) if checkpoint else ([], 0)
    replay = len(path) if checkpoint else -1
    nodes = 0
    limit = len(path) + budget if budget is not None else sys.maxsize
    stale = ValueError(
        "checkpoint does not replay against this interval: it was written by another "
        "job, or by an older version of the search whose pruning rules differ"
    )
    # an id outside its position's band is stale before any mask is shifted by it
    if len(path) >= nv or not all(lo[d] <= i < end[d] for d, i in enumerate((*path, min_id))):
        raise stale

    status, cert, cp = EXHAUSTED, None, None
    p = 0
    while p >= 0:
        # p is entered: its candidates are the unused ids of base[p], past L(gt[p])
        k, low = band[p], lo[p]
        m = base[p] & ~used[k]
        g = gt[p]
        if g >= 0:
            m &= -1 << (assigned[g] - low + 1)
        if p <= replay:
            i = (path[p] if p < replay else min_id) - low
            m &= -1 << i
            if not m >> i & 1:
                raise stale
            if p == replay:
                replay = -1  # replayed: the search goes on from min_id
        # try p's candidates in turn, m holding those left, until one leads
        # to p + 1; when none is left, back up to p - 1's next
        while True:
            if not m:
                p -= 1
                if p < 0:
                    break
                k, low = band[p], lo[p]
                used[k] ^= 1 << (assigned[p] - low)
                m = masks[p]
                continue
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            cid = low + i
            if nodes >= limit:
                status, cp = BUDGET_EXCEEDED, {**job, "path": assigned[:p], "min_id": cid}
                p = -1
                break
            nodes += 1
            assigned[p] = cid
            used[k] |= b
            upa[p] = u = up[cid]
            # forward checking: each vertex whose last predecessor is p keeps a
            # candidate.  It lies in band k + 1, where no id is used yet, since
            # the search runs in rank order, so base[r] itself must be nonzero.
            for r in ready[p]:
                x = u
                for q in others[r]:
                    x &= upa[q]
                base[r] = x
                if not x:
                    prunes_forward += 1
                    break
            else:
                owner = owners[k]
                o = owner[i]
                # i's holder o must move to p's old id j: directly if its
                # domain holds j, else along an alternating path
                if o != p:
                    j = match[p]
                    if base[o] >> j & 1:
                        match[o] = j
                        owner[j] = o
                    elif _augment(o, 1 << j, base, used[k], match, owner, via) < 0:
                        o = -1
                if o >= 0:
                    match[p] = i
                    owner[i] = p
                    # p + 1 is entered if it is in p's rank, or if it starts
                    # a rank that has a perfect matching; after the last
                    # position, L is complete
                    e = end[p]
                    if e > p + 1 or e < nv and _match_rank(e, end[e], base, match, owners[k + 1], via):
                        masks[p] = m
                        p += 1
                        break
                    if e == nv:
                        status = FOUND
                        cert = Cubulation(lattice, _assignment(par, code, assigned))
                        p = -1
                        break
                prunes_matching += 1
            used[k] ^= b
            if p < replay:
                raise stale
    stats = _stats(nodes - len(path), 1, prunes_forward, prunes_matching)
    return SearchOutcome(status, cert, stats, cp)


def cubulate(y: Element, budget: int | None = None, checkpoint: dict | None = None) -> SearchOutcome:
    """``search`` on [1, y]."""
    return search(interval(y), budget=budget, checkpoint=checkpoint)


def verify_certificate(iv: BruhatInterval, cert: Cubulation) -> bool:
    ok, _ = verify_certificate_detailed(iv, cert)
    return ok


def verify_certificate_detailed(iv: BruhatInterval, cert: Cubulation) -> tuple[bool, str]:
    """Re-check a certificate using only group-level primitives.

    Verifies bijectivity, that lengths match coordinate sums, and that each
    lattice edge maps to a pair (u, v) with l(v) > l(u) and u^-1 v a
    reflection, the last tested on the keys of u and v alone
    (``CoxeterSystem.differ_by_reflection``), with no word made.
    Deliberately avoids the interval's precomputed edge data.
    """
    lattice = cert.lattice
    verts = lattice.vertices()
    assignment = cert.assignment
    if set(assignment) != set(verts):
        return False, "assignment keys are not exactly the lattice vertices"
    ids = sorted(assignment.values())
    if ids != list(range(len(iv.vertices))):
        return False, "assignment is not a bijection onto the interval"
    sys = iv.system
    for v in verts:
        if iv.vertices[assignment[v]].length != sum(v):
            return False, f"rank not preserved at {v}"
    for u, v in lattice.edges():
        eu = iv.vertices[assignment[u]]
        ev = iv.vertices[assignment[v]]
        if ev.length <= eu.length:
            return False, f"edge {u}->{v} does not increase length"
        if not sys.differ_by_reflection(eu, ev):
            return False, f"edge {u}->{v} label is not a reflection"
    return True, "ok"
