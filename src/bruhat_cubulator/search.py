"""Backtracking search for cubical-lattice spanning subgraphs of Bruhat graphs.

Lattice vertices are processed in (rank, lexicographic) order, so every
lattice predecessor of a vertex is assigned before it.  The candidate set
for a vertex is a bitset intersection: interval vertices of the right
length, unused, and Bruhat-successors of every assigned predecessor.
Candidates are consumed in increasing vertex id, which makes runs
deterministic and lets a checkpoint consist of just the chosen-id path.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from .bruhat import BruhatInterval, interval, poincare_polynomial
from .coxeter import Element, build_system
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
    lattice forces such a factorization.
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
    exceeding it returns BudgetExceeded with a resumable checkpoint.
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
        for depth, cid in enumerate(checkpoint["path"]):
            m = candidates(depth)
            if not (m >> cid) & 1:
                raise ValueError("checkpoint does not replay against this interval")
            masks[depth] = m & (-1 << (cid + 1))
            assigned[depth] = cid
            used |= 1 << cid
        p = len(checkpoint["path"])
        if p < nv:
            masks[p] = candidates(p) & (-1 << checkpoint["min_id"])
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
    workers: int = 1,
    checkpoint: dict | None = None,
    iv: BruhatInterval | None = None,
) -> SearchOutcome:
    """Try every candidate shape in lexicographic order.

    Returns the first Found outcome; Exhausted when every shape's tree was
    fully explored; BudgetExceeded (with a checkpoint naming the pending
    shape) otherwise.  ``budget`` is a shared node-expansion budget.
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
    if workers > 1 and checkpoint is None and len(shapes) > 1:
        return _cubulate_parallel(y, iv, shapes, budget, workers, t0)
    total = 0
    tried = 0
    start_shape = tuple(checkpoint["shape"]) if checkpoint else None
    exceeded = None
    for shape in shapes:
        if start_shape is not None:
            if shape != start_shape:
                continue
            inner_cp = checkpoint
            start_shape = None
        else:
            inner_cp = None
        remaining = None if budget is None else budget - total
        if remaining is not None and remaining <= 0:
            exceeded = SearchOutcome(
                BUDGET_EXCEEDED,
                None,
                {},
                {"shape": list(shape), "path": [], "min_id": 0},
            )
            break
        out = search(iv, shape, budget=remaining, checkpoint=inner_cp)
        tried += 1
        total += out.stats["nodes_expanded"]
        if out.status == FOUND:
            out.stats.update(self_stats(total, tried, t0, FOUND))
            return out
        if out.status == BUDGET_EXCEEDED:
            exceeded = out
            break
    if exceeded is not None:
        exceeded.stats = self_stats(total, tried, t0, BUDGET_EXCEEDED)
        return exceeded
    return SearchOutcome(EXHAUSTED, None, self_stats(total, tried, t0, EXHAUSTED))


def self_stats(total, tried, t0, status):
    return {
        "nodes_expanded": total,
        "shapes_tried": tried,
        "wall_time": time.monotonic() - t0,
        "budget_used": total,
        "status": status,
    }


def _search_job(descriptor, y_word, shape, budget):
    system = build_system(descriptor)
    iv = interval(system.element(y_word))
    out = search(iv, tuple(shape), budget=budget)
    cert = None
    if out.certificate is not None:
        cert = (out.certificate.lattice.params, sorted(out.certificate.assignment.items()))
    return out.status, cert, out.stats, out.checkpoint


def _cubulate_parallel(y, iv, shapes, budget, workers, t0):
    """Shape-level parallelism: first Found wins, Exhausted needs all done."""
    system = y.system
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_search_job, system.descriptor, y.word, shape, budget): shape
            for shape in shapes
        }
        pending = set(futures)
        found = None
        while pending and found is None:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                results.append(fut.result())
                if results[-1][0] == FOUND:
                    found = results[-1]
            if found:
                for fut in pending:
                    fut.cancel()
    total = sum(r[2]["nodes_expanded"] for r in results)
    tried = len(results)
    if found is not None:
        params, items = found[1]
        cert = Cubulation(CubicalLattice(params), dict(items))
        return SearchOutcome(FOUND, cert, self_stats(total, tried, t0, FOUND))
    if any(r[0] == BUDGET_EXCEEDED for r in results):
        cp = next(r[3] for r in results if r[0] == BUDGET_EXCEEDED)
        return SearchOutcome(
            BUDGET_EXCEEDED, None, self_stats(total, tried, t0, BUDGET_EXCEEDED), cp
        )
    return SearchOutcome(EXHAUSTED, None, self_stats(total, tried, t0, EXHAUSTED))


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
