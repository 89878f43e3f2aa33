"""JSON and DOT serialization with a versioned, byte-stable schema.

Documents carry a top-level ``schema`` key.  Words are arrays of integer
generator labels, never digit strings.  Timing statistics are excluded
from serialized search outcomes so identical jobs produce byte-identical
output.
"""

from __future__ import annotations

import json

from .bruhat import BruhatInterval, interval
from .coxeter import CoxeterSystem, build_system
from .cube import CubicalLattice
# carrell_peterson_report stays importable from here: bench/tracing.py wraps it by this name
from .kl import CPReport, KLTable, carrell_peterson_report, table_report  # noqa: F401
from .search import Cubulation, SearchOutcome

SCHEMA = "bruhat-cubulator/1"

_STABLE_STATS = ("status", "nodes_expanded", "shapes_tried", "budget_used")


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _system_field(system: CoxeterSystem):
    return system.descriptor


def interval_doc(iv: BruhatInterval) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "interval",
        "system": _system_field(iv.system),
        "top": list(iv.top.word),
        "vertices": [
            {"id": i, "word": list(el.word), "length": el.length}
            for i, el in enumerate(iv.vertices)
        ],
        "hasse_edges": [[u, v] for u, v in iv.hasse_edges],
        "bruhat_edges": [
            {"source": u, "target": v, "reflection": list(t.word)}
            for u, v, t in iv.bruhat_edges
        ],
    }


def interval_dot(iv: BruhatInterval) -> str:
    """Bruhat graph in DOT, with vertices rank-aligned by length."""
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for i, el in enumerate(iv.vertices):
        label = "e" if not el.word else "".join(f"s{a}" for a in el.word)
        lines.append(f'  v{i} [label="{label}"];')
    by_length: dict[int, list[int]] = {}
    for i, l in enumerate(iv.lengths):
        by_length.setdefault(l, []).append(i)
    for l in sorted(by_length):
        row = " ".join(f"v{i};" for i in by_length[l])
        lines.append(f"  {{ rank=same; {row} }}")
    for u, v, _ in iv.bruhat_edges:
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_doc(report: CPReport) -> dict:
    return {
        "all_trivial": report.all_trivial,
        "edge_count_ok": report.edge_count_ok,
        "average_length_ok": report.average_length_ok,
        "palindromic": report.palindromic,
        "a_y": [report.a_y.numerator, report.a_y.denominator],
    }


def kl_doc(table: KLTable) -> dict:
    iv = table.interval
    pairs = []
    n = len(iv.vertices)
    for y_id in range(n):
        for x_id in range(n):
            if iv.leq_ids(x_id, y_id):
                pairs.append(
                    {
                        "x": x_id,
                        "y": y_id,
                        "P": list(table.P(x_id, y_id).coeffs),
                        "R": list(table.R(x_id, y_id).coeffs),
                    }
                )
    return {
        "schema": SCHEMA,
        "kind": "kl-table",
        "system": _system_field(iv.system),
        "top": list(iv.top.word),
        "vertices": [
            {"id": i, "word": list(el.word), "length": el.length}
            for i, el in enumerate(iv.vertices)
        ],
        "pairs": pairs,
        "report": report_doc(table_report(table)),
    }


def certificate_doc(iv: BruhatInterval, cert: Cubulation) -> dict:
    return {
        "lattice": list(cert.lattice.params),
        "assignment": [
            {
                "coords": list(coords),
                "id": vid,
                "word": list(iv.vertices[vid].word),
            }
            for coords, vid in sorted(cert.assignment.items())
        ],
    }


def certificate_from_doc(doc: dict) -> Cubulation:
    lattice = CubicalLattice(tuple(doc["lattice"]))
    assignment = {tuple(e["coords"]): e["id"] for e in doc["assignment"]}
    return Cubulation(lattice, assignment)


def outcome_doc(iv: BruhatInterval, outcome: SearchOutcome) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "search-outcome",
        "system": _system_field(iv.system),
        "top": list(iv.top.word),
        "status": outcome.status,
        "stats": {k: outcome.stats[k] for k in _STABLE_STATS if k in outcome.stats},
        "certificate": None,
        "checkpoint": None,
    }
    if outcome.certificate is not None:
        doc["certificate"] = certificate_doc(iv, outcome.certificate)
    if outcome.checkpoint is not None:
        doc["checkpoint"] = checkpoint_doc(outcome.checkpoint)
    return doc


def checkpoint_doc(checkpoint: dict) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "checkpoint",
        "shape": list(checkpoint["shape"]),
        "path": list(checkpoint["path"]),
        "min_id": checkpoint["min_id"],
    }


def checkpoint_from_doc(doc: dict) -> dict:
    """The checkpoint in a document written by ``checkpoint_doc``; ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError("checkpoint document is not a JSON object")
    if doc.get("schema") != SCHEMA or doc.get("kind") != "checkpoint":
        raise ValueError(
            f"not a checkpoint document: schema {doc.get('schema')!r}, kind {doc.get('kind')!r}"
        )
    missing = [k for k in ("shape", "path", "min_id") if k not in doc]
    if missing:
        raise ValueError(f"checkpoint document lacks {', '.join(missing)}")
    return {
        "shape": list(doc["shape"]),
        "path": list(doc["path"]),
        "min_id": doc["min_id"],
    }


def construction_doc(result) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "construction",
        "system": _system_field(result.interval.system),
        "top": list(result.interval.top.word),
        "tag": result.tag,
        "lattice": list(result.lattice.params),
        "certificate": certificate_doc(result.interval, result.certificate),
    }


def load_interval(doc: dict) -> BruhatInterval:
    """Rebuild the interval named by a serialized document and cross-check it."""
    system = build_system(doc["system"])
    iv = interval(system.element(doc["top"]))
    words = [tuple(v["word"]) for v in doc["vertices"]]
    if words != [el.word for el in iv.vertices]:
        raise ValueError("serialized interval does not match a fresh enumeration")
    return iv
