"""Backtracking search for cubical-lattice spanning subgraphs of Bruhat graphs.

Lattice vertices are processed in (rank, lexicographic) order, so every
lattice predecessor of a vertex is assigned before it.  A lattice edge
raises the rank by one, so it must land on a Hasse edge of [1, y], and
the candidate set for a vertex is a bitset intersection: unused interval
vertices that cover the image of every predecessor.  That intersection
is formed once, when the vertex's last predecessor is assigned, and an
assignment that leaves such a vertex with no candidate is undone at once
(forward checking; Ullmann, J. ACM 23, 1976).
A cubulation is a rank-preserving bijection, and each lattice rank has
as many vertices as its length band has ids, so each rank maps
bijectively onto its band.  The search therefore keeps a perfect matching
of the current rank's unassigned vertices onto the band's free ids, each
within its candidate set, repairs it by one alternating path per
assignment and undoes an assignment that leaves none (Regin's
all-different filter, AAAI 1994).
Candidates are consumed in increasing vertex id, which makes runs
deterministic, makes a Found certificate the lexicographically least
one, and lets a checkpoint consist of just the chosen-id path.  The
symmetry rules (equal lattice parameters, diagram-automorphism orbits)
keep that certificate; ``search`` gives the argument.  An element has at
most one candidate shape, so ``search`` is a single serial search, and
the one entry point: it binds a checkpoint to its job before replay.
"""

from __future__ import annotations

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


def _orbit_minima(iv: BruhatInterval) -> int:
    """Bitset of the generator ids in [1, y] least in their orbit under the
    diagram automorphisms that fix y."""
    sys, y = iv.system, iv.top
    group = [s for s in sys.diagram_automorphisms() if sys.diagram_automorphism(s, y) is y]
    mask = 0
    for a in sys.support(y):
        ids = [iv.index[sys.generator(s[a])] for s in group]
        if ids[0] == min(ids):  # group[0] is the identity
            mask |= 1 << ids[0]
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


def _augment(o: int, goal: int, domains, blocked: int, match, owner) -> int:
    """Rematch vertex o along a shortest alternating path that ends on an id
    in ``goal``, an id no vertex holds; return that id, or -1 if none exists.

    Vertex q may take the ids of ``domains[q] & ~blocked``; ``match[q]`` is
    q's id and ``owner`` inverts ``match`` on the held ids.  The path is
    searched breadth first, with no recursion, and nothing is written
    unless it is found.
    """
    seen = blocked
    via = {}  # id -> the vertex whose domain reached it
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


def _match_rank(lo: int, hi: int, domains, match, owner) -> bool:
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
            i = _augment(q, ~taken, domains, 0, match, owner)
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
    verts = lattice.vertices()
    nv = len(verts)
    vert_pos = {v: i for i, v in enumerate(verts)}
    preds = [[vert_pos[u] for u in lattice.predecessors(v)] for v in verts]
    # up[u]: the interval vertices that cover u
    n = len(iv)
    up = [0] * n
    for u, v in iv.hasse_edges:
        up[u] |= 1 << v
    minima = _orbit_minima(iv)
    # ready[p]: the vertices whose last predecessor in search order is p
    ready: list[list[int]] = [[] for _ in range(nv)]
    for r in range(1, nv):
        ready[max(preds[r])].append(r)
    # end[p]: one past the last position of p's rank
    end = [nv] * nv
    for q in range(nv - 2, -1, -1):
        end[q] = q + 1 if sum(verts[q]) < sum(verts[q + 1]) else end[q + 1]

    # sym_gt[e_i] = e_{i+1} for equal adjacent parameters: L(e_i) > L(e_{i+1})
    sym_gt: dict[int, int] = {}
    params = lattice.params
    for i in range(len(params) - 1):
        if params[i] == params[i + 1] and params[i] > 0:
            e_i = tuple(1 if j == i else 0 for j in range(len(params)))
            e_next = tuple(1 if j == i + 1 else 0 for j in range(len(params)))
            sym_gt[vert_pos[e_i]] = vert_pos[e_next]

    assigned = [-1] * nv
    masks = [0] * nv
    # base[p]: the covers of the images of p's predecessors (at position 1,
    # orbit minima only), filled when the last of them is assigned
    base = [0] * nv
    base[0] = 1  # the identity
    used = 0
    # match[q], for the unassigned q of the current rank: a perfect matching
    # onto the band's free ids, match[q] in base[q] & ~used; owner inverts
    # it.  An assigned p keeps match[p] = assigned[p], which nothing reads
    # until p is undone and which then restores the matching.  Rank 0 starts
    # matched: position 0 holds id 0, the identity.
    match = [0] * nv
    owner = [0] * n
    expansions = 0
    prunes_forward = 0
    prunes_matching = 0

    def candidates(p: int) -> int:
        m = base[p] & ~used
        g = sym_gt.get(p)
        if g is not None:
            m &= -1 << (assigned[g] + 1)
        return m

    def forward(p: int) -> bool:
        """Fill base for ready[p]; False if one of them has no candidate left."""
        free = ~used
        for r in ready[p]:
            m = minima if r == 1 else -1
            for q in preds[r]:
                m &= up[assigned[q]]
            base[r] = m
            if not m & free:
                return False
        return True

    def assign(p: int, cid: int) -> bool:
        """Assign cid to p, or undo it at once if a rule prunes it."""
        nonlocal used, prunes_forward, prunes_matching
        b = 1 << cid
        assigned[p] = cid
        used |= b
        if not forward(p):
            prunes_forward += 1
        else:
            o = owner[cid]
            # cid's holder o must move, along an alternating path, to p's old id
            if o == p or _augment(o, 1 << match[p], base, used, match, owner) >= 0:
                match[p] = cid
                owner[cid] = p
                e = end[p]
                if e > p + 1 or e == nv or _match_rank(e, end[e], base, match, owner):
                    return True
            prunes_matching += 1
        used ^= b
        return False

    p = 0
    if checkpoint is not None:
        path, min_id = checkpoint["path"], checkpoint["min_id"]
        stale = ValueError(
            "checkpoint does not replay against this interval: it was written by another "
            "job, or by an older version of the search whose pruning rules differ"
        )
        # an id past the interval is stale before any mask is shifted by it
        if len(path) >= nv or not all(0 <= i < n for i in (*path, min_id)):
            raise stale
        for depth, cid in enumerate(path):
            m = candidates(depth)
            if not (m >> cid) & 1 or not assign(depth, cid):
                raise stale
            masks[depth] = m & (-1 << (cid + 1))
        p = len(path)
        # min_id replays like one more path entry, still to be tried
        masks[p] = candidates(p) & (-1 << min_id)
        if not (masks[p] >> min_id) & 1:
            raise stale
    else:
        masks[0] = candidates(0)

    status, cert, cp = EXHAUSTED, None, None
    while p >= 0:
        m = masks[p]
        if m:
            b = m & -m
            cid = b.bit_length() - 1
            if budget is not None and expansions >= budget:
                status, cp = BUDGET_EXCEEDED, {**job, "path": assigned[:p], "min_id": cid}
                break
            masks[p] = m ^ b
            expansions += 1
            if not assign(p, cid):
                continue
            if p + 1 == nv:
                status = FOUND
                cert = Cubulation(lattice, {v: assigned[i] for i, v in enumerate(verts)})
                break
            p += 1
            masks[p] = candidates(p)
        else:
            p -= 1
            if p >= 0:
                used &= ~(1 << assigned[p])
    stats = _stats(expansions, 1, prunes_forward, prunes_matching)
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
    reflection.  Deliberately avoids the interval's precomputed edge data.
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
        t = eu.inverse() * ev
        if not sys.is_reflection(t):
            return False, f"edge {u}->{v} label is not a reflection"
    return True, "ok"
