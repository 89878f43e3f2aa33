from __future__ import annotations

import json

import pytest

from bruhat_cubulator import serialize
from bruhat_cubulator.bruhat import interval
from bruhat_cubulator.kl import KLTable
from bruhat_cubulator.search import SEARCH_RULES, cubulate, search, verify_certificate


class TestStability:
    def test_dumps_is_byte_stable(self, a3):
        iv = interval(a3.element((2, 1, 3, 2)))
        doc = serialize.interval_doc(iv)
        assert serialize.dumps(doc) == serialize.dumps(serialize.interval_doc(iv))
        assert serialize.dumps(doc).endswith("\n")

    def test_outcome_doc_excludes_timing(self, a2):
        out = cubulate(a2.longest_element())
        doc = serialize.outcome_doc(interval(a2.longest_element()), out)
        assert "wall_time" not in json.dumps(doc)
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
        doc = serialize.interval_doc(iv)
        rebuilt = serialize.load_interval(json.loads(serialize.dumps(doc)))
        assert [el.word for el in rebuilt.vertices] == [el.word for el in iv.vertices]

    def test_load_rejects_tampered_vertices(self, a2):
        iv = interval(a2.longest_element())
        doc = serialize.interval_doc(iv)
        doc["vertices"][1]["word"] = [2]
        doc["vertices"][2]["word"] = [1]
        with pytest.raises(ValueError):
            serialize.load_interval(doc)

    def test_words_are_integer_arrays(self, atilde2):
        doc = serialize.interval_doc(interval(atilde2.element((0, 1))))
        for v in doc["vertices"]:
            assert all(isinstance(a, int) for a in v["word"])


class TestDot:
    def test_structure(self, a2):
        iv = interval(a2.longest_element())
        dot = serialize.interval_dot(iv)
        assert dot.startswith("digraph bruhat {")
        assert dot.count("->") == len(iv.bruhat_edges)
        assert dot.count("[label=") == len(iv.vertices)
        assert '[label="e"]' in dot
        assert '[label="s1s2s1"]' in dot
        assert "rank=same" in dot


class TestCertificates:
    def test_roundtrip_and_verify(self, a3):
        iv = interval(a3.longest_element())
        out = search(iv)
        doc = json.loads(serialize.dumps(serialize.certificate_doc(iv, out.certificate)))
        cert = serialize.certificate_from_doc(doc)
        assert cert.lattice.params == (1, 2, 3)
        assert cert.assignment == out.certificate.assignment
        assert verify_certificate(iv, cert)

    def test_construction_doc(self, atilde2):
        from bruhat_cubulator.constructions import atilde2_cubulation

        res = atilde2_cubulation(atilde2, 1)
        doc = serialize.construction_doc(res)
        assert doc["tag"] == "atilde2"
        assert doc["lattice"] == [2, 1, 2]
        cert = serialize.certificate_from_doc(doc["certificate"])
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
