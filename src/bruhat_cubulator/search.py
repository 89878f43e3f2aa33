"""Backtracking search for cubical-lattice spanning subgraphs of Bruhat graphs.

Lattice vertices are processed in (rank, lexicographic) order, so every
lattice predecessor of a vertex is assigned before it.  The candidate set
for a vertex is a bitset intersection: interval vertices of the right
length, unused, and Bruhat-successors of every assigned predecessor.
Candidates are consumed in increasing vertex id, which makes runs
deterministic and lets a checkpoint consist of just the chosen-id path.
An element has at most one candidate shape, so ``cubulate`` is a single
serial search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bruhat import BruhatInterval, interval, poincare_polynomial
from .coxeter import Element
from .cube import CubicalLattice
from .polynomials import quantum_factorizations

FOUND = "Found"
EXHAUSTED = "Exhausted"
BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass(frozen=True)
class Cubulation:
    """A certified isomorphism from a cubical lattice onto a spanning subgraph."""

    lattice: CubicalLattice
    assignment: dict  # lattice vertex (coordinate tuple) -> interval vertex id


@dataclass
class SearchOutcome:
    status: str
    certificate: Cubulation | None = None
    stats: dict = field(default_factory=dict)
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


def search(
    iv: BruhatInterval,
    shape,
    budget: int | None = None,
    checkpoint: dict | None = None,
) -> SearchOutcome:
    """Exhaustive depth-first search for one candidate lattice shape.

    ``budget`` bounds the number of node expansions (assignments tried);
    exceeding it returns BudgetExceeded with a resumable checkpoint.  A
    checkpoint replays its path and then its ``min_id``, each a candidate
    at its depth; one that does not raises ValueError.
    """
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    shape = tuple(shape)
    if sum(a - 1 for a in shape) != iv.top.length:
        raise ValueError("shape degree sum must equal l(y)")
    t0 = time.monotonic()
    lattice = _shape_lattice(shape)
    verts = lattice.vertices()
    nv = len(verts)
    vert_pos = {v: i for i, v in enumerate(verts)}
    preds = [[vert_pos[u] for u in lattice.predecessors(v)] for v in verts]
    ranks = [sum(v) for v in verts]
    length_mask = iv.length_masks()
    succ = iv.succ_masks

    # symmetry breaking: for equal adjacent parameters, the images of the
    # two unit vectors must come in increasing id order
    sym_gt: dict[int, int] = {}
    params = lattice.params
    for i in range(len(params) - 1):
        if params[i] == params[i + 1] and params[i] > 0:
            e_lo = tuple(1 if j == i else 0 for j in range(len(params)))
            e_hi = tuple(1 if j == i + 1 else 0 for j in range(len(params)))
            sym_gt[vert_pos[e_hi]] = vert_pos[e_lo]

    assigned = [-1] * nv
    masks = [0] * nv
    used = 0
    expansions = 0

    def candidates(p: int) -> int:
        m = length_mask.get(ranks[p], 0) & ~used
        for q in preds[p]:
            m &= succ[assigned[q]]
        g = sym_gt.get(p)
        if g is not None:
            m &= -1 << (assigned[g] + 1)
        return m

    p = 0
    if checkpoint is not None:
        path, min_id = checkpoint["path"], checkpoint["min_id"]
        stale = ValueError("checkpoint does not replay against this interval")
        if len(path) >= nv:
            raise stale
        for depth, cid in enumerate(path):
            m = candidates(depth)
            if not (m >> cid) & 1:
                raise stale
            masks[depth] = m & (-1 << (cid + 1))
            assigned[depth] = cid
            used |= 1 << cid
        p = len(path)
        # min_id replays like one more path entry, still to be tried
        masks[p] = candidates(p) & (-1 << min_id)
        if not (masks[p] >> min_id) & 1:
            raise stale
    else:
        masks[0] = candidates(0)

    def stats(status):
        return {
            "nodes_expanded": expansions,
            "shapes_tried": 1,
            "wall_time": time.monotonic() - t0,
            "budget_used": expansions,
            "status": status,
        }

    while p >= 0:
        m = masks[p]
        if m:
            b = m & -m
            cid = b.bit_length() - 1
            if budget is not None and expansions >= budget:
                cp = {"shape": list(shape), "path": assigned[:p], "min_id": cid}
                return SearchOutcome(BUDGET_EXCEEDED, None, stats(BUDGET_EXCEEDED), cp)
            masks[p] = m ^ b
            expansions += 1
            assigned[p] = cid
            used |= b
            if p + 1 == nv:
                cert = Cubulation(lattice, {v: assigned[i] for i, v in enumerate(verts)})
                return SearchOutcome(FOUND, cert, stats(FOUND))
            p += 1
            masks[p] = candidates(p)
        else:
            p -= 1
            if p >= 0 and assigned[p] >= 0:
                used &= ~(1 << assigned[p])
                assigned[p] = -1
    return SearchOutcome(EXHAUSTED, None, stats(EXHAUSTED))


def cubulate(
    y: Element,
    budget: int | None = None,
    checkpoint: dict | None = None,
    iv: BruhatInterval | None = None,
) -> SearchOutcome:
    """Search the candidate shape of y, of which there is at most one.

    Returns the search's outcome: Found, Exhausted when the shape's tree
    was fully explored, or BudgetExceeded with a checkpoint naming the
    shape.  With no candidate shape, Exhausted with ``shapes_tried`` 0.
    The search is serial.
    """
    t0 = time.monotonic()
    if iv is None:
        iv = interval(y)
    shapes = candidate_shapes(iv)
    if checkpoint is not None and tuple(checkpoint["shape"]) not in shapes:
        raise ValueError(
            f"checkpoint shape {list(checkpoint['shape'])} is not a candidate shape "
            f"of {y!r} (candidates: {[list(s) for s in shapes]}); "
            "the checkpoint belongs to another job"
        )
    if not shapes:
        stats = {
            "nodes_expanded": 0,
            "shapes_tried": 0,
            "wall_time": time.monotonic() - t0,
            "budget_used": 0,
            "status": EXHAUSTED,
        }
        return SearchOutcome(EXHAUSTED, None, stats)
    out = search(iv, shapes[0], budget=budget, checkpoint=checkpoint)
    out.stats["wall_time"] = time.monotonic() - t0
    return out


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
