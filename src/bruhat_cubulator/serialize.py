"""JSON and DOT serialization with a versioned, byte-stable schema.

Documents carry a top-level ``schema`` key.  Words are arrays of integer
generator labels, never digit strings.  A serialized search outcome
carries its status and node counts, so identical jobs produce
byte-identical output.  A document's long lists (vertices, edges, KL
pairs, certificate entries) are each a ``Table``: parallel columns, with
no dict per row.  Few distinct values fill the largest columns, so the
interval document holds one list per distinct reflection label and the
KL document one per distinct P or R coefficient tuple.  The vertex words
of the vertex tables and of a certificate's ``assignment`` are made one
slice at a time, read along the interval's ``letter`` and ``below`` arrays.

``chunks(doc)`` yields the text of ``json.dumps(doc, sort_keys=True,
indent=2) + "\n"``, a table standing for its rows, in pieces, and is the
one encoder: the CLI writes each piece as it is made, so no command holds
the whole text, and ``dumps(doc)`` joins the pieces.  The standard-library
call stays the test oracle.  One generator lays out every level: a dict,
whose keys are strs, goes key by key, and a list or table ``SLICE`` items
a piece.  With an ``indent`` the standard library encodes in pure Python
and lists every token before it joins them, so a slice is encoded one
column at a time instead:
- a list of ints in one C-speed ``map``;
- a list of lists or tuples of ints (words, pairs, coordinates) in one
  ``join`` per list;
- a table one column at a time, the rows filled in through one ``%``
  template, and each distinct object of a non-int column encoded once.
Any other value is the standard library's own text, or its own error.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterator, Sequence
from itertools import chain, compress
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

# list items encoded into one piece by ``chunks``
SLICE = 512


class Table(Sequence):
    """Rows held as parallel columns, which reads as the list of its rows.

    ``Table({"a": xs, "b": ys})`` reads as [{"a": xs[0], "b": ys[0]}, ...],
    for str keys; ``Table([xs, ys])`` reads as [[xs[0], ys[0]], ...].  The
    columns, one or more of one length, are lists, ranges, int arrays or a
    word column (``_Words``); a slice of a table is the table of the
    columns' slices.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, columns):
        self.keys = tuple(columns) if isinstance(columns, dict) else None
        self.columns = tuple(columns.values()) if self.keys is not None else tuple(columns)

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        row = self._row([c[i] for c in self.columns])
        return Table(row) if isinstance(i, slice) else row

    def __iter__(self):
        return map(self._row, zip(*self.columns))

    def _row(self, cells):
        return list(cells) if self.keys is None else dict(zip(self.keys, cells))


def chunks(doc) -> Iterator[str]:
    """The text of ``doc`` in pieces of at most about ``SLICE`` list items."""
    yield from _pieces(doc, 0)
    yield "\n"


def dumps(doc) -> str:
    """The whole text of ``doc``, for a caller that needs one string."""
    return "".join(chunks(doc))


def _pieces(value, level: int) -> Iterator[str]:
    """The text of ``value`` at nesting ``level``: a dict key by key, a list
    or table ``SLICE`` items a piece, and any other value as the standard
    library writes it."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict) and value:
        head = "{" + inner
        for key, item in sorted(value.items()):
            yield head + encode_basestring_ascii(key) + ": "
            yield from _pieces(item, level + 1)
            head = "," + inner
        yield "\n" + "  " * level + "}"
    elif isinstance(value, (list, Table)) and value:
        head = "[" + inner
        for start in range(0, len(value), SLICE):
            yield head + ("," + inner).join(_column(value[start : start + SLICE], level + 1))
            head = "," + inner
        yield "\n" + "  " * level + "]"
    elif isinstance(value, Table):
        yield "[]"
    else:
        # JSON text breaks lines only between tokens, so indenting each line
        # is the text at this level
        yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def _column(items, level: int) -> list[str]:
    """The text of each of ``items``, all at nesting ``level``."""
    if isinstance(items, Table):
        return _records(items, level)
    kinds = set(map(type, items))
    if kinds == {int}:
        return list(map(int.__repr__, items))
    if kinds <= {list, tuple} and set(map(type, chain.from_iterable(items))) == {int}:
        # words, pairs and coordinates: one join per sequence, and no str per
        # int outlives it
        inner = "\n" + "  " * (level + 1)
        head, sep, tail = "[" + inner, "," + inner, "\n" + "  " * level + "]"
        return [head + sep.join(map(int.__repr__, item)) + tail if item else "[]" for item in items]
    return ["".join(_pieces(item, level)) for item in items]


def _records(table: Table, level: int) -> list[str]:
    """The text of each row of ``table`` at nesting ``level``, one column at a time."""
    keys, columns = table.keys, table.columns
    if keys is not None:
        keys, columns = zip(*sorted(zip(keys, columns), key=itemgetter(0)))
    fields, texts = [], []
    for column in columns:
        values = list(column)
        if set(map(type, values)) == {int}:
            # "%d" formats an int as int.__repr__ does, with no str per cell
            fields.append("%d")
            texts.append(values)
        else:
            # one text per distinct object, such as a word shared by many edges
            fields.append("%s")
            distinct = dict(zip(map(id, values), values))
            encoded = dict(zip(distinct, _column(list(distinct.values()), level + 1)))
            texts.append(list(map(encoded.__getitem__, map(id, values))))
    opening, closing = "[]"
    if keys is not None:
        opening, closing = "{}"
        fields = [encode_basestring_ascii(k).replace("%", "%%") + ": " + f for k, f in zip(keys, fields)]
    inner = "\n" + "  " * (level + 1)
    template = opening + inner + ("," + inner).join(fields) + "\n" + "  " * level + closing
    return list(map(template.__mod__, zip(*texts)))


class _Words(Sequence):
    """The label words of the vertex ids ``ids``, a column made a slice at a
    time: the word of v is letter[v], then the word of below[v].  It holds
    the interval's ``letter`` and ``below`` arrays and the system's labels,
    not the interval, so the interval is freed before the text is made."""

    __slots__ = ("ids", "letter", "below", "labels")

    def __init__(self, iv: BruhatInterval, ids):
        self.ids, self.letter, self.below, self.labels = ids, iv.letter, iv.below, iv.system.labels

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._word, self.ids[i]))
        return self._word(self.ids[i])

    def _word(self, v: int) -> list:
        letter, below, labels = self.letter, self.below, self.labels
        word = []
        while v:
            word.append(labels[letter[v]])
            v = below[v]
        return word


def _vertices(iv: BruhatInterval) -> Table:
    ids = range(len(iv))
    return Table({"id": ids, "word": _Words(iv, ids), "length": iv.lengths})


def interval_doc(iv: BruhatInterval) -> dict:
    sources, targets, labels = iv.edges()
    # few reflections label many edges: one word list per reflection
    words = [list(t.word) for t in iv.labels[0]]
    lengths = iv.lengths
    covers = [lengths[u] + 1 == lengths[v] for u, v in zip(sources, targets)]
    hasse = [array("i", compress(sources, covers)), array("i", compress(targets, covers))]
    reflections = list(map(words.__getitem__, labels))
    return {
        "schema": SCHEMA,
        "kind": "interval",
        "system": iv.system.descriptor,
        "top": list(iv.top.word),
        "vertices": _vertices(iv),
        "hasse_edges": Table(hasse),
        "bruhat_edges": Table({"source": sources, "target": targets, "reflection": reflections}),
    }


def interval_dot(iv: BruhatInterval) -> Iterator[str]:
    """Bruhat graph in DOT, with vertices rank-aligned by length, line by line."""
    yield "digraph bruhat {\n  rankdir=BT;\n"
    for i, word in enumerate(_Words(iv, range(len(iv)))):
        label = "".join(f"s{a}" for a in word) or "e"
        yield f'  v{i} [label="{label}"];\n'
    starts = iv.starts
    for a, b in zip(starts, starts[1:]):
        row = " ".join(f"v{i};" for i in range(a, b))
        yield f"  {{ rank=same; {row} }}\n"
    sources, targets, _ = iv.edges()
    for u, v in zip(sources, targets):
        yield f"  v{u} -> v{v};\n"
    yield "}\n"


def report_doc(report: CPReport) -> dict:
    return {
        "all_trivial": report.all_trivial,
        "edge_count_ok": report.edge_count_ok,
        "average_length_ok": report.average_length_ok,
        "palindromic": report.palindromic,
        "a_y": [report.a_y.numerator, report.a_y.denominator],
    }


def kl_doc(table: KLTable) -> dict:
    """The table's P and R at every pair x <= y; few distinct polynomials
    fill the pairs, so each coefficient tuple gets one list."""
    iv = table.interval
    lists = {}
    xs, ys, ps, rs = array("i"), array("i"), [], []
    for x_id, y_id, p, r in table.pairs():
        xs.append(x_id)
        ys.append(y_id)
        ps.append(lists.get(p) or lists.setdefault(p, list(p)))
        rs.append(lists.get(r) or lists.setdefault(r, list(r)))
    return {
        "schema": SCHEMA,
        "kind": "kl-table",
        "system": iv.system.descriptor,
        "top": list(iv.top.word),
        "vertices": _vertices(iv),
        "pairs": Table({"x": xs, "y": ys, "P": ps, "R": rs}),
        "report": report_doc(table_report(table)),
    }


def certificate_doc(iv: BruhatInterval, cert) -> dict:
    coords = sorted(cert.assignment)
    ids = array("i", map(cert.assignment.__getitem__, coords))
    return {
        "lattice": list(cert.lattice.params),
        "assignment": Table({"coords": coords, "id": ids, "word": _Words(iv, ids)}),
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
    """The document of a checkpoint: its fields are ``search.bind``'s job plus
    the path and min_id, and ``_CHECKPOINT_FIELDS`` are those the reader checks."""
    return {"schema": SCHEMA, "kind": "checkpoint", **checkpoint}


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

