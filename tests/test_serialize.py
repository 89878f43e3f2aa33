from __future__ import annotations

import json
import math
import tracemalloc
import weakref
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruhat_cubulator import constructions, serialize
from bruhat_cubulator.bruhat import interval
from bruhat_cubulator.cli import main
from bruhat_cubulator.coxeter import build_system
from bruhat_cubulator.cube import CubicalLattice
from bruhat_cubulator.kl import KLTable
from bruhat_cubulator.search import (
    SEARCH_RULES,
    Cubulation,
    cubulate,
    search,
    verify_certificate,
)

from conftest import system
from oracles import stdlib_dumps


class TestStability:
    def test_dumps_is_byte_stable(self, a3):
        iv = interval(a3.element((2, 1, 3, 2)))
        doc = serialize.interval_doc(iv)
        assert serialize.dumps(doc) == serialize.dumps(serialize.interval_doc(iv))
        assert serialize.dumps(doc).endswith("\n")

    def test_outcome_doc_excludes_timing(self, a2):
        out = cubulate(a2.longest_element())
        doc = serialize.outcome_doc(interval(a2.longest_element()), out)
        assert "wall_time" not in serialize.dumps(doc)
        assert doc["stats"]["status"] == "Found"
        # two runs of the same job serialize identically
        out2 = cubulate(a2.longest_element())
        doc2 = serialize.outcome_doc(interval(a2.longest_element()), out2)
        assert serialize.dumps(doc) == serialize.dumps(doc2)

    def test_schema_tag_present(self, a2):
        iv = interval(a2.longest_element())
        for doc in (
            serialize.interval_doc(iv),
            serialize.kl_doc(KLTable(iv)),
            serialize.outcome_doc(iv, cubulate(a2.longest_element())),
        ):
            assert doc["schema"] == "bruhat-cubulator/1"


class TestIntervalDoc:
    def test_roundtrip(self, b3):
        iv = interval(b3.element((1, 2, 1, 3)))
        doc = json.loads(serialize.dumps(serialize.interval_doc(iv)))
        fresh = interval(build_system(doc["system"]).element(doc["top"]))
        assert [v["word"] for v in doc["vertices"]] == [list(el.word) for el in fresh.vertices]

    def test_words_are_integer_arrays(self, atilde2):
        doc = serialize.interval_doc(interval(atilde2.element((0, 1))))
        for v in doc["vertices"]:
            assert all(isinstance(a, int) for a in v["word"])


class TestDot:
    def test_structure(self, a2):
        iv = interval(a2.longest_element())
        dot = "".join(serialize.interval_dot(iv))
        assert dot.startswith("digraph bruhat {")
        assert dot.count("->") == len(iv.bruhat_edges)
        assert dot.count("[label=") == len(iv.vertices)
        assert '[label="e"]' in dot
        assert '[label="s1s2s1"]' in dot
        assert "rank=same" in dot


def _cubulation(doc: dict) -> Cubulation:
    """The Cubulation that a certificate document describes."""
    assignment = {tuple(e["coords"]): e["id"] for e in doc["assignment"]}
    return Cubulation(CubicalLattice(tuple(doc["lattice"])), assignment)


class TestCertificates:
    def test_roundtrip_and_verify(self, a3):
        iv = interval(a3.longest_element())
        out = search(iv)
        doc = json.loads(serialize.dumps(serialize.certificate_doc(iv, out.certificate)))
        cert = _cubulation(doc)
        assert cert.lattice.params == (1, 2, 3)
        assert cert.assignment == out.certificate.assignment
        assert verify_certificate(iv, cert)

    def test_construction_doc(self, atilde2):
        from bruhat_cubulator.constructions import atilde2_cubulation

        res = atilde2_cubulation(atilde2, 1)
        doc = serialize.construction_doc(res)
        assert doc["tag"] == "atilde2"
        assert doc["lattice"] == [2, 1, 2]
        cert = _cubulation(doc["certificate"])
        assert verify_certificate(res.interval, cert)


class TestCheckpoints:
    def test_roundtrip(self, b3):
        out = cubulate(b3.longest_element(), budget=5)
        assert out.status == "BudgetExceeded"
        doc = json.loads(serialize.dumps(serialize.checkpoint_doc(out.checkpoint)))
        restored = serialize.checkpoint_from_doc(doc)
        resumed = cubulate(b3.longest_element(), checkpoint=restored)
        assert resumed.status == "Found"

    @pytest.mark.parametrize(
        "change",
        [
            {"schema": "bruhat-cubulator/0"},
            {"kind": "search-outcome"},
            {"shape": None},
            {"path": None},
            {"min_id": None},
            {"shape": "2 3 4"},
            {"path": 0},
            {"path": ["a"]},
            {"path": [-1]},
            {"shape": [2, 3.5, 4]},
            {"min_id": -3},
            {"min_id": "1"},
            {"min_id": True},
            {"system": None},
            {"top": None},
            {"search_rules": None},
            {"top": "3 2 1"},
        ],
        ids=[
            "schema", "kind", "no-shape", "no-path", "no-min_id", "shape-not-list",
            "path-not-list", "path-not-int", "path-negative", "shape-not-int",
            "min_id-negative", "min_id-not-int", "min_id-bool",
            "no-system", "no-top", "no-search_rules", "top-not-list",
        ],
    )
    def test_rejects_malformed(self, change):
        doc = serialize.checkpoint_doc({
            "system": "A3", "top": [1, 2, 1, 3, 2, 1], "search_rules": SEARCH_RULES,
            "shape": [2, 3, 4], "path": [0], "min_id": 1,
        })
        for key, value in change.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        field = next(iter(change))
        with pytest.raises(ValueError, match=field):
            serialize.checkpoint_from_doc(doc)


class TestKLDoc:
    def test_pairs_cover_comparable_ids(self, a3):
        iv = interval(a3.element((2, 1, 3, 2)))
        doc = serialize.kl_doc(KLTable(iv))
        n = len(iv.vertices)
        expected = sum(
            1 for y in range(n) for x in range(n) if iv.leq_ids(x, y)
        )
        assert len(doc["pairs"]) == expected
        top = n - 1
        spot = [p for p in doc["pairs"] if p["x"] == 0 and p["y"] == top]
        assert spot[0]["P"] == [1, 1]
        assert doc["report"]["a_y"] == [29, 14]
        assert doc["report"]["all_trivial"] is False


class TestSharedValues:
    """Few distinct values fill the edge and pair columns: one list object each."""

    def test_one_list_per_reflection(self):
        iv = interval(system("D4").longest_element())
        labels = [e["reflection"] for e in serialize.interval_doc(iv)["bruhat_edges"]]
        reflections = {t for _, _, t in iv.bruhat_edges}
        assert len(labels) == len(iv.bruhat_edges) > len(reflections)
        assert len(set(map(id, labels))) == len(set(map(tuple, labels))) == len(reflections)

    def test_one_list_per_coefficient_tuple(self):
        doc = serialize.kl_doc(KLTable(interval(system("A4").longest_element())))
        lists = [p[key] for p in doc["pairs"] for key in ("P", "R")]
        assert len(set(map(id, lists))) == len(set(map(tuple, lists))) < len(lists)

    @pytest.mark.parametrize(
        "argv,make_doc,held",
        [
            (("interval", "--system", "B3", "--element", "w0"), "interval_doc", lambda iv: [iv]),
            (("kl", "--system", "B3", "--element", "w0"), "kl_doc", lambda t: [t, t.interval]),
        ],
        ids=["interval", "kl"],
    )
    def test_source_is_freed_before_encoding(self, capsys, monkeypatch, argv, make_doc, held):
        """The command drops the interval or table before ``chunks`` makes the text."""
        refs, alive = [], []
        build, chunks = getattr(serialize, make_doc), serialize.chunks

        def recording(source):
            refs.extend(map(weakref.ref, held(source)))
            return build(source)

        def checking(doc):
            # a generator: the check runs when the first piece is asked for
            alive.extend(ref() is not None for ref in refs)
            yield from chunks(doc)

        monkeypatch.setattr(serialize, make_doc, recording)
        monkeypatch.setattr(serialize, "chunks", checking)
        assert main(list(argv)) == 0
        assert capsys.readouterr().out
        assert refs and alive == [False] * len(refs)


# the CLI jobs whose documents the encoder must print as the standard library
# does: every document kind, each search status, an affine growth probe, and
# the identity's interval and certificate, whose edge tables are empty
_JOBS = [
    ("interval", "--system", "B3", "--element", "w0"),
    ("interval", "--system", "A3", "--word", ""),
    ("kl", "--system", "B3", "--element", "w0"),
    ("cubulate", "--system", "B3", "--element", "w0"),
    ("cubulate", "--system", "A3", "--word", "2 1 3 2"),
    ("cubulate", "--system", "A3", "--word", ""),
    ("construct", "--system", "B3", "--construction", "path-forest"),
    ("construct", "--system", "Atilde2", "--construction", "atilde2", "--m", "3"),
    ("growth", "--system", "H3", "--order", "6"),
    ("growth", "--system", "Atilde2", "--order", "10"),
    ("suite", "smoke"),
]


_KEYS = st.text(max_size=3) | st.sampled_from(["%", "%s", "a%d", "%%(x)s", "\u00e9", '"\\\n'])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -0.0, 1e300])
    | st.text(max_size=4)
    | st.sampled_from(["\u2603", "\ud800", "\x00\t", "%d"])
)


def _place(pool, picks):
    """``picks`` with each int i replaced by the list object ``pool[i % len(pool)]``."""
    return [pool[p % len(pool)] if isinstance(p, int) else p for p in picks]


def _sharing(children):
    """Columns that hold one list object at several places among distinct lists,
    as items and as one key's column of records; the shared lists hold ints
    (empty ones too) or any values."""
    pool = st.lists(
        st.lists(st.integers(), max_size=3) | st.lists(children, max_size=2), min_size=1, max_size=3
    )
    picks = st.lists(st.integers(0, 2) | st.lists(st.integers(), max_size=3), max_size=6)
    column = st.builds(_place, pool, picks)
    return column | column.map(lambda items: [{"k": item, "n": 0} for item in items])


def _containers(children):
    uniform = st.lists(_KEYS, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=4)
    )
    return (
        st.lists(children, max_size=4)
        | _sharing(children)
        | st.lists(st.integers() | st.booleans(), max_size=4)
        | uniform
        | st.lists(st.dictionaries(_KEYS, children, max_size=3), max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
    )


@st.composite
def _tables(draw):
    """Tables of one to three columns of one length: ints in a list, an int
    array or a range; strs; bools; and words, each row's its own list or one
    of a few shared ones.  Str keys, or rows read as lists."""
    n = draw(st.integers(0, 5))

    def cells(values):
        return st.lists(values, min_size=n, max_size=n)

    word = st.lists(st.integers(0, 9), max_size=3)
    shared = st.lists(word, min_size=1, max_size=3).flatmap(lambda pool: cells(st.sampled_from(pool)))
    column = (
        cells(st.integers())
        | cells(st.integers(-(2**31), 2**31 - 1)).map(lambda xs: array("i", xs))
        | st.integers(-3, 3).map(lambda a: range(a, a + n))
        | cells(st.text(max_size=3))
        | cells(st.booleans())
        | cells(word)
        | shared
    )
    columns = draw(st.lists(column, min_size=1, max_size=3))
    keys = draw(st.none() | st.lists(_KEYS, min_size=len(columns), max_size=len(columns), unique=True))
    return serialize.Table(columns if keys is None else dict(zip(keys, columns)))


# documents holding tables: sliced under a top-level key, and nested in a
# list and in a dict
_table_documents = st.fixed_dictionaries(
    {
        "a": _tables(),
        "b": st.lists(_tables() | st.integers(), max_size=2),
        "c": _tables().map(lambda t: {"t": t}),
    }
)

# nested JSON values, with the kinds that the encoder's paths tell apart
_json = st.recursive(_SCALARS, _containers, max_leaves=12)
# documents: ``chunks`` slices the lists under a top-level key
_documents = _json | st.dictionaries(_KEYS, _json, min_size=1, max_size=4)


def _outcome(encode, doc):
    """What ``encode(doc)`` gives: ("ok", text), or the error's type and message."""
    try:
        return "ok", encode(doc)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


class TestEncoderOracle:
    @pytest.fixture
    def printed(self, monkeypatch):
        """(document, text) for every document ``serialize.chunks`` encodes to
        its end, in the order the encodings end."""
        seen = []
        chunks = serialize.chunks

        def recording(doc):
            pieces = []
            for piece in chunks(doc):
                pieces.append(piece)
                yield piece
            seen.append((doc, "".join(pieces)))

        monkeypatch.setattr(serialize, "chunks", recording)
        return seen

    def test_every_cli_document(self, capsys, printed):
        outs = []
        for argv in _JOBS:
            main(list(argv))
            outs.append(capsys.readouterr())
        assert [out.err for out in outs] == [""] * len(_JOBS)
        kinds = [doc.get("kind", doc.get("suite")) for doc, _ in printed]
        assert kinds == [
            "interval", "interval", "kl-table", "search-outcome", "search-outcome",
            "search-outcome", "construction", "construction", "growth", "growth", "smoke",
        ]
        assert [doc["status"] for doc, _ in printed[3:6]] == ["Found", "Exhausted", "Found"]
        identity = printed[1][0]
        assert len(identity["vertices"]) == 1 and len(identity["bruhat_edges"]) == 0
        assert len(printed[5][0]["certificate"]["assignment"]) == 1
        assert printed[9][0]["probe"] is not None
        for (doc, text), out in zip(printed, outs):
            assert text == stdlib_dumps(doc)
            assert out.out == text

    def test_budget_exceeded_with_checkpoint(self, capsys, printed, tmp_path):
        cp = tmp_path / "cp.json"
        argv = ["cubulate", "--system", "B3", "--element", "w0", "--budget", "5"]
        assert main(argv + ["--checkpoint", str(cp)]) == 3
        (checkpoint, written), (outcome, shown) = printed
        assert checkpoint["kind"] == "checkpoint"
        assert outcome["status"] == "BudgetExceeded"
        assert outcome["checkpoint"] == checkpoint
        for doc, text in printed:
            assert text == stdlib_dumps(doc)
        assert cp.read_text(encoding="utf-8") == written
        assert capsys.readouterr().out == shown

    def test_enumeration_document(self):
        # the document that bench/enumerate_job.py prints
        pairs = constructions.atilde2_trivial_enumeration(system("Atilde2"), 6)
        doc = {
            "schema": serialize.SCHEMA,
            "kind": "atilde2-trivial-enumeration",
            "max_length": 6,
            "trivial": [{"y": list(y.word), "rep": list(r.word)} for y, r in pairs],
        }
        assert doc["trivial"]
        assert serialize.dumps(doc) == stdlib_dumps(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param([{"a": 1, "b": set()}, {"a": {1: 2, "x": 1}, "b": 1}], id="first-fault"),
            pytest.param([{"a": object()}], id="unencodable"),
            pytest.param([{"n": 10**5000}], id="long-int"),
        ],
    )
    def test_errors_are_the_standard_librarys(self, doc):
        assert _outcome(serialize.dumps, doc) == _outcome(stdlib_dumps, doc)
        assert _outcome(stdlib_dumps, doc)[0] != "ok"

    @pytest.mark.parametrize(
        "tail",
        [
            pytest.param({1: 0, "x": 0}, id="mixed-keys"),
            pytest.param([object()], id="unencodable"),
        ],
    )
    def test_a_fault_after_the_first_pieces(self, monkeypatch, tail):
        """Pieces already made are the standard library's text, and the fault
        raises the standard library's error."""
        monkeypatch.setattr(serialize, "SLICE", 1)
        doc = {"a": [1, 2], "b": tail}
        pieces = serialize.chunks(doc)
        first = next(pieces)
        assert first == '{\n  "a": '
        assert _outcome(lambda _: first + "".join(pieces), doc) == _outcome(stdlib_dumps, doc)

    def test_lists_go_a_slice_at_a_time(self, monkeypatch):
        monkeypatch.setattr(serialize, "SLICE", 2)
        doc = {"a": [1, 2, 3], "b": {"c": [4]}, "d": []}
        # every level alike: a dict key by key, a list a slice at a time
        assert list(serialize.chunks(doc)) == [
            '{\n  "a": ', '[\n    1,\n    2', ',\n    3', '\n  ]',
            ',\n  "b": ', '{\n    "c": ', '[\n      4', '\n    ]', '\n  }',
            ',\n  "d": ', '[]', '\n}', '\n',
        ]
        # a list inside a slice is part of that slice's text
        assert list(serialize.chunks([[1], None])) == ["[\n  [\n    1\n  ],\n  null", "\n]", "\n"]

    @staticmethod
    def _built_and_encoded_peak(make_doc) -> int:
        """The ``tracemalloc`` peak of building D5 w0's interval, then its
        document, and encoding it; a fresh system, so that any element the
        job makes is made under the trace too."""
        w0 = build_system("D5").longest_element()
        tracemalloc.start()
        try:
            for _ in serialize.chunks(make_doc(interval(w0))):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_d5_interval_document_is_built_and_encoded_in_little_memory(self):
        # the edges go from the interval's arrays to the text as columns, with
        # no tuple, pair or dict per edge
        peak = self._built_and_encoded_peak(serialize.interval_doc)
        assert peak < 3e6, peak

    def test_d5_cubulate_document_is_built_and_encoded_in_little_memory(self):
        # the cubulate job: the search and the certificate's words read ids
        # and the letter and below arrays, with no Element per vertex
        peak = self._built_and_encoded_peak(lambda iv: serialize.outcome_doc(iv, search(iv)))
        assert peak < 2.1e6, peak

    @pytest.mark.parametrize(
        "make_doc,streamed_max,whole_min",
        [
            (serialize.interval_doc, 1.5e6, 6e6),
            # the certificate, nested in the document, goes a slice at a time too
            (lambda iv: serialize.outcome_doc(iv, search(iv)), 0.8e6, 1.0e6),
        ],
        ids=["interval", "search-outcome"],
    )
    def test_d5_interval_document_streams_in_little_memory(self, make_doc, streamed_max, whole_min):
        # the whole text, as dumps makes it, against one slice at a time
        doc = make_doc(interval(system("D5").longest_element()))
        tracemalloc.start()
        try:
            for _ in serialize.chunks(doc):
                pass
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            serialize.dumps(doc)
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed < streamed_max and whole > whole_min, (streamed, whole)

    @settings(max_examples=60, deadline=None)
    @given(_json)
    @example(_place([[], [1, 2]], [0, [3], 1, 0, [1, 2], 1]))
    @example({"edges": [{"k": word, "n": 0} for word in _place([[], [1, 2]], [1, 0, 1, [], 0])]})
    @example(_place([[], ["a", None]], [0, 1, 1, [2]]))
    def test_matches_the_standard_library(self, doc):
        assert _outcome(serialize.dumps, doc) == _outcome(stdlib_dumps, doc)

    @pytest.mark.parametrize("size", [1, 2, serialize.SLICE])
    @settings(max_examples=60, deadline=None)
    @given(_table_documents)
    @example({"a": serialize.Table({"%d": [[1]] * 3, "n": array("i", [5, 6, 7])}), "b": [], "c": {}})
    @example(
        {
            "a": serialize.Table({"id": range(0), "word": []}),
            "b": [serialize.Table([array("i"), array("i")])],
            "c": {"t": serialize.Table({"x": []})},
        }
    )
    def test_tables_match_the_standard_library(self, size, doc):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "SLICE", size)
            joined = "".join(serialize.chunks(doc))
        assert joined == stdlib_dumps(doc)

    def test_a_table_reads_as_its_rows(self):
        word = [1, 2]
        table = serialize.Table({"id": range(3), "word": [word, [], word]})
        rows = [{"id": 0, "word": [1, 2]}, {"id": 1, "word": []}, {"id": 2, "word": [1, 2]}]
        assert list(table) == rows and len(table) == 3
        assert table[1] == rows[1] and list(table[1:]) == rows[1:]
        assert table[0]["word"] is table[2]["word"] is word
        pairs = serialize.Table([array("i", [0, 0]), array("i", [1, 2])])
        assert list(pairs) == [[0, 1], [0, 2]] and pairs[-1] == [0, 2]

    @pytest.mark.parametrize("size", [1, 2, serialize.SLICE])
    @settings(max_examples=60, deadline=None)
    @given(_documents)
    @example({"a": [1, 2, 3], "b": [[], [4]], "c": {"d": [5]}})
    @example({"a": [0], "b": [{"k": [1], "n": 0}, {"k": [1], "n": 1}], "c": {1: 0, "x": 0}})
    def test_pieces_match_the_standard_library(self, size, doc):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "SLICE", size)
            joined = _outcome(lambda doc: "".join(serialize.chunks(doc)), doc)
        assert joined == _outcome(stdlib_dumps, doc)
