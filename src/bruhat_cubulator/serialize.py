"""JSON and DOT serialization with a versioned, byte-stable schema.

Documents carry a top-level ``schema`` key.  Words are arrays of integer
generator labels, never digit strings.  A serialized search outcome
carries its status and node counts, so identical jobs produce
byte-identical output.

``dumps(doc)`` equals ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``
byte for byte on every input; that standard-library call stays the test
oracle.  With an ``indent`` the standard library encodes in pure Python and
lists every token before it joins them, so ``dumps`` encodes a list one
column at a time instead:
- a list of ints or of strs in one C-speed ``map``;
- a list of lists of ints (words, pairs) in one ``join`` per list;
- a list of records (dicts with one shared set of str keys) one key's
  column at a time, the rows filled in through one ``%`` template.
Any other value takes a per-node path, and a scalar that path does not
know (a float, say) gets the standard library's own text.  A document the
encoder cannot encode goes whole to the standard library, so that the
errors stay the standard library's.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .bruhat import BruhatInterval
# bench/tracing.py wraps interval and carrell_peterson_report as attributes
# of this module and then restores what it found, so both stay real imports:
# a lazy module __getattr__ would leave them in the module after the pass.
# Loading kl here is cheap, since it imports neither dataclasses nor fractions.
from .bruhat import interval  # noqa: F401
from .kl import CPReport, KLTable, carrell_peterson_report, table_report  # noqa: F401

SCHEMA = "bruhat-cubulator/1"

_CHECKPOINT_FIELDS = ("system", "top", "search_rules", "shape", "path", "min_id")


def dumps(doc) -> str:
    try:
        return _value(doc, 0) + "\n"
    except (TypeError, ValueError, RecursionError):
        # the standard library raises its own error for the first fault in
        # document order (the columns may meet another one first), names a
        # circular document, and encodes one nested deeper than this
        # encoder's recursion reaches
        return _stdlib(doc) + "\n"


def _stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def _value(value, level: int) -> str:
    """The text of ``value`` at nesting ``level``, in the standard library's order of tests."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        opening, closing, texts = "[", "]", _column(value, level + 1)
    elif isinstance(value, dict):
        if not value:
            return "{}"
        opening, closing = "{", "}"
        texts = [f"{_key(k)}: {_value(v, level + 1)}" for k, v in sorted(value.items())]
    else:  # a float, or a value the standard library refuses
        return _stdlib(value)
    # the brackets join the first and last texts, so the text is copied once
    inner = "\n" + "  " * (level + 1)
    texts[0] = opening + inner + texts[0]
    texts[-1] += "\n" + "  " * level + closing
    return ("," + inner).join(texts)


def _key(key) -> str:
    """A dict key's text, coerced to a string as the standard library does."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:  # a bool is an int
        return encode_basestring_ascii(_stdlib(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _column(items, level: int) -> list[str]:
    """The text of each of ``items``, all at nesting ``level``."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return list(map(int.__repr__, items))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, items))
    if kinds == {list} and set(map(type, chain.from_iterable(items))) == {int}:
        # words and pairs: one join per list, and no str per int outlives it
        inner = "\n" + "  " * (level + 1)
        head, sep, tail = "[" + inner, "," + inner, "\n" + "  " * level + "]"
        return [head + sep.join(map(int.__repr__, item)) + tail if item else "[]" for item in items]
    if kinds == {dict}:
        shapes = set(map(tuple, items))
        if len(shapes) == 1:
            (keys,) = shapes
            if keys and set(map(type, keys)) == {str}:
                return _records(items, sorted(keys), level)
    return [_value(item, level) for item in items]


def _records(items, keys: list[str], level: int) -> list[str]:
    """The text of each dict of ``items``, all with the str ``keys``, one column per key."""
    fields, columns = [], []
    for key in keys:
        values = list(map(itemgetter(key), items))
        if set(map(type, values)) == {int}:
            # "%d" formats an int as int.__repr__ does, with no str per cell
            fields.append(_key(key).replace("%", "%%") + ": %d")
            columns.append(values)
        else:
            fields.append(_key(key).replace("%", "%%") + ": %s")
            columns.append(_column(values, level + 1))
    inner = "\n" + "  " * (level + 1)
    template = "{" + inner + ("," + inner).join(fields) + "\n" + "  " * level + "}"
    return list(map(template.__mod__, zip(*columns)))


def interval_doc(iv: BruhatInterval) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "interval",
        "system": iv.system.descriptor,
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
    for y_id, below in enumerate(iv.below_masks):
        while below:
            low = below & -below
            x_id = low.bit_length() - 1
            below ^= low
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
        "system": iv.system.descriptor,
        "top": list(iv.top.word),
        "vertices": [
            {"id": i, "word": list(el.word), "length": el.length}
            for i, el in enumerate(iv.vertices)
        ],
        "pairs": pairs,
        "report": report_doc(table_report(table)),
    }


def certificate_doc(iv: BruhatInterval, cert) -> dict:
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


def outcome_doc(iv: BruhatInterval, outcome) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "search-outcome",
        "system": iv.system.descriptor,
        "top": list(iv.top.word),
        "status": outcome.status,
        "stats": {
            "status": outcome.status,
            "nodes_expanded": outcome.stats["nodes_expanded"],
            "shapes_tried": outcome.stats["shapes_tried"],
            "budget_used": outcome.stats["nodes_expanded"],
        },
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
        "system": checkpoint["system"],
        "top": list(checkpoint["top"]),
        "search_rules": checkpoint["search_rules"],
        "shape": list(checkpoint["shape"]),
        "path": list(checkpoint["path"]),
        "min_id": checkpoint["min_id"],
    }


def checkpoint_from_doc(doc: dict) -> dict:
    """The checkpoint in a document written by ``checkpoint_doc``; ValueError,
    naming the field, otherwise.  ``search`` binds it to its job."""
    if not isinstance(doc, dict):
        raise ValueError("checkpoint document is not a JSON object")
    if doc.get("schema") != SCHEMA or doc.get("kind") != "checkpoint":
        raise ValueError(
            f"not a checkpoint document: schema {doc.get('schema')!r}, kind {doc.get('kind')!r}"
        )
    missing = [k for k in _CHECKPOINT_FIELDS if k not in doc]
    if missing:
        raise ValueError(f"checkpoint document lacks {', '.join(missing)}")
    for key in ("top", "shape", "path"):
        if not isinstance(doc[key], list) or not all(map(_is_count, doc[key])):
            raise ValueError(f"checkpoint {key} must be a list of non-negative integers")
    if not _is_count(doc["min_id"]):
        raise ValueError("checkpoint min_id must be a non-negative integer")
    return {k: doc[k] for k in _CHECKPOINT_FIELDS}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def construction_doc(result) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "construction",
        "system": result.interval.system.descriptor,
        "top": list(result.interval.top.word),
        "tag": result.tag,
        "lattice": list(result.lattice.params),
        "certificate": certificate_doc(result.interval, result.certificate),
    }

