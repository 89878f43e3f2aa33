from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import bruhat_cubulator
from bruhat_cubulator import cli, suites
from bruhat_cubulator.cli import main, parse_budget
from bruhat_cubulator.coxeter import build_system
from bruhat_cubulator.search import SEARCH_RULES

from oracles import stdlib_dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBudgetParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("17", 17),
            ("10^9", 10**9),
            ("3*10^8", 3 * 10**8),
            ("2^10", 1024),
            ("2^62", 2**62),
            ("1^1000000", 1),
            ("9223372036854775807", 2**63 - 1),
        ],
    )
    def test_accepted(self, text, value):
        assert parse_budget(text) == value

    @pytest.mark.parametrize("text", ["", "0", "-5", "ten", "10^", "1e9", "10**3", "0^1000000"])
    def test_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_budget(text)

    @pytest.mark.parametrize(
        "text",
        [
            "10^1000000",
            "2^63",
            "9223372036854775808",
            "1*2^64",
            pytest.param("1" * 5000, id="5000-digits"),
            pytest.param("1" * 5000 + "^1", id="5000-digit-base"),
        ],
    )
    def test_too_large_is_refused_unevaluated(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="below 2\\^63"):
            parse_budget(text)

    def test_too_large_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cubulate", "--system", "A2", "--element", "w0", "--budget", "10^100"])
        assert exc.value.code == 2
        assert "below 2^63" in capsys.readouterr().err


class TestInterval:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "interval", "--system", "A2", "--element", "w0")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "interval"
        assert len(doc["vertices"]) == 6

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "interval", "--system", "A2", "--element", "w0", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph bruhat {")
        assert out.count("->") == 9

    def test_word_input(self, capsys):
        code, out, _ = run(capsys, "interval", "--system", "A3", "--word", "2 1 3 2")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 14

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "iv.json"
        argv = ("interval", "--system", "A3", "--element", "w0")
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "interval"
        # the file holds the bytes the same job prints
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")

    def test_named_family_element(self, capsys):
        code, out, _ = run(capsys, "interval", "--system", "Atilde2", "--element", "y_m:1")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 18


class _ShortWriter(io.RawIOBase):
    """A raw stream that takes at most 4,096 bytes per write, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), 4096)
        self.data += bytes(b[:n])
        return n


class TestStdout:
    ARGV = ("interval", "--system", "A4", "--element", "w0")

    def test_short_writes_deliver_the_whole_document(self, capsys, monkeypatch):
        # under PYTHONUNBUFFERED stdout's buffer is the raw file
        raw = _ShortWriter()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        code = main(list(self.ARGV))
        monkeypatch.undo()
        expected = run(capsys, *self.ARGV)[1].encode("utf-8")
        assert code == 0
        assert len(expected) > 4096
        assert bytes(raw.data) == expected

    def test_reader_that_closes_early_exits_2(self):
        src = os.path.dirname(os.path.dirname(bruhat_cubulator.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "bruhat_cubulator.cli", *self.ARGV],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        proc.stdout.read(10)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2


class TestKL:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "kl", "--system", "A3", "--word", "2 1 3 2")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "kl-table"
        assert doc["report"]["all_trivial"] is False
        top = len(doc["vertices"]) - 1
        spot = [p for p in doc["pairs"] if p["x"] == 0 and p["y"] == top]
        assert spot[0]["P"] == [1, 1]

    def test_empty_word_is_the_identity(self, capsys):
        code, out, _ = run(capsys, "kl", "--system", "A3", "--word", "")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 1
        assert len(doc["pairs"]) == 1


class TestCubulate:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "cubulate", "--system", "A3", "--element", "w0")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Found"
        assert doc["certificate"]["lattice"] == [1, 2, 3]

    def test_exhausted(self, capsys):
        code, out, _ = run(capsys, "cubulate", "--system", "A3", "--word", "2 1 3 2")
        assert code == 1
        assert json.loads(out)["status"] == "Exhausted"

    def test_empty_word_is_the_identity(self, capsys):
        code, out, _ = run(capsys, "cubulate", "--system", "A3", "--word", "")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Found"
        assert doc["certificate"]["lattice"] == [0]

    def test_budget_writes_checkpoint_and_resumes(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        code, out, _ = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0",
            "--budget", "5", "--checkpoint", str(cp),
        )
        assert code == 3
        assert json.loads(out)["status"] == "BudgetExceeded"
        assert cp.read_bytes() == stdlib_dumps(json.loads(out)["checkpoint"]).encode("utf-8")
        code2, out2, _ = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0", "--checkpoint", str(cp),
        )
        assert code2 == 0
        assert json.loads(out2)["status"] == "Found"

    def test_checkpoint_of_another_element_is_refused(self, capsys, tmp_path):
        # a B3 checkpoint names a shape A3 w0 does not have; resuming from
        # it must not report Exhausted
        cp = tmp_path / "cp.json"
        code, _, _ = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0",
            "--budget", "5", "--checkpoint", str(cp),
        )
        assert code == 3
        code2, out2, err2 = run(
            capsys,
            "cubulate", "--system", "A3", "--element", "w0", "--checkpoint", str(cp),
        )
        assert code2 == 2
        assert out2 == ""
        assert err2.startswith("error:") and "checkpoint" in err2

    def test_checkpoint_of_the_inverse_is_refused(self, capsys, tmp_path):
        # 1 2 and its inverse 2 1 have the same candidate shape, (2, 2); the
        # checkpoint names its top element, so it resumes only its own job
        cp = tmp_path / "cp.json"
        code, _, _ = run(
            capsys,
            "cubulate", "--system", "A3", "--word", "1 2", "--budget", "1", "--checkpoint", str(cp),
        )
        assert code == 3
        code2, out2, err2 = run(
            capsys, "cubulate", "--system", "A3", "--word", "2 1", "--checkpoint", str(cp)
        )
        assert code2 == 2
        assert out2 == ""
        assert err2.startswith("error: checkpoint top")

    def test_checkpoint_without_search_rules_is_refused(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        code, _, _ = run(
            capsys,
            "cubulate", "--system", "A3", "--word", "1 2", "--budget", "1", "--checkpoint", str(cp),
        )
        assert code == 3
        doc = json.loads(cp.read_text())
        del doc["search_rules"]
        cp.write_text(json.dumps(doc))
        code2, out2, err2 = run(
            capsys, "cubulate", "--system", "A3", "--word", "1 2", "--checkpoint", str(cp)
        )
        assert code2 == 2
        assert out2 == ""
        assert "search_rules" in err2

    def test_checkpoint_of_older_search_rules_is_refused(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        code, _, _ = run(
            capsys,
            "cubulate", "--system", "A3", "--word", "1 2", "--budget", "1", "--checkpoint", str(cp),
        )
        assert code == 3
        doc = json.loads(cp.read_text())
        doc["search_rules"] = 1
        cp.write_text(json.dumps(doc))
        code2, out2, err2 = run(
            capsys, "cubulate", "--system", "A3", "--word", "1 2", "--checkpoint", str(cp)
        )
        assert code2 == 2
        assert out2 == ""
        assert err2.startswith("error: checkpoint search_rules 1")

    def test_truncated_checkpoint_names_itself(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        code, _, _ = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0",
            "--budget", "5", "--checkpoint", str(cp),
        )
        assert code == 3
        cp.write_bytes(cp.read_bytes()[:60])
        code2, out2, err2 = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0", "--checkpoint", str(cp),
        )
        assert code2 == 2
        assert out2 == ""
        assert f"checkpoint file {cp} is not valid JSON" in err2

    def test_unwritable_checkpoint_prints_nothing(self, capsys, tmp_path):
        # the checkpoint is written before the outcome, so a job whose
        # checkpoint is lost does not also print a complete document
        cp = tmp_path / "missing" / "cp.json"
        code, out, err = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0",
            "--budget", "5", "--checkpoint", str(cp),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_failed_checkpoint_write_keeps_the_old_one(self, capsys, tmp_path, monkeypatch):
        cp = tmp_path / "cp.json"
        argv = ("cubulate", "--system", "B3", "--element", "w0")
        argv += ("--budget", "5", "--checkpoint", str(cp))
        code, _, _ = run(capsys, *argv)
        assert code == 3
        before = cp.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        # the resumed run stops 5 nodes later and replaces the checkpoint
        monkeypatch.setattr(os, "replace", interrupted)
        code2, out2, err2 = run(capsys, *argv)
        assert code2 == 2
        assert out2 == ""
        assert "interrupted" in err2
        assert cp.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["cp.json"]

    def test_checkpoint_min_id_out_of_range_is_refused(self, capsys, tmp_path):
        # B3 w0 has a cubulation; a checkpoint whose min_id skips every
        # candidate must not make it look Exhausted
        cp = tmp_path / "c.json"
        cp.write_text(json.dumps({
            "schema": "bruhat-cubulator/1", "kind": "checkpoint",
            "system": "B3", "top": list(build_system("B3").longest_element().word),
            "search_rules": SEARCH_RULES, "shape": [2, 4, 6], "path": [0], "min_id": 1000,
        }))
        code, out, err = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0", "--checkpoint", str(cp),
        )
        assert code == 2
        assert out == ""
        assert "checkpoint does not replay" in err
        assert "older version of the search" in err

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_bad_worker_count(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["cubulate", "--system", "A2", "--element", "w0", "--workers", workers])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"bad worker count {workers!r}" in captured.err

    def test_malformed_checkpoint_is_refused(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        cp.write_text(json.dumps({"schema": "bruhat-cubulator/1", "kind": "interval"}))
        code, out, err = run(
            capsys,
            "cubulate", "--system", "A3", "--element", "w0", "--checkpoint", str(cp),
        )
        assert code == 2
        assert out == ""
        assert "not a checkpoint document" in err


class TestConstruct:
    def test_path_forest(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--system", "B3", "--construction", "path-forest"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tag"] == "nff-B"
        assert doc["lattice"] == [1, 3, 5]

    def test_atilde2(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--system", "Atilde2", "--construction", "atilde2", "--m", "2"
        )
        assert code == 0
        assert json.loads(out)["lattice"] == [2, 2, 3]

    def test_dihedral(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "--system", "I2(7)", "--construction", "dihedral",
            "--word", "1 2 1 2 1",
        )
        assert code == 0
        assert json.loads(out)["lattice"] == [1, 4]

    def test_missing_m(self, capsys):
        code, _, err = run(
            capsys, "construct", "--system", "Atilde2", "--construction", "atilde2"
        )
        assert code == 2
        assert "error:" in err


class TestGrowth:
    def test_affine_doc(self, capsys):
        code, out, _ = run(capsys, "growth", "--system", "Atilde2", "--order", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["ball_sizes"] == [1, 4, 10, 19, 31]
        assert doc["poincare"] == [1, 3, 6, 9, 12]
        assert doc["bott"] == doc["poincare"]
        assert doc["minimal_nonspherical_L"] == 4
        assert doc["probe"] is not None

    def test_affine_order_zero(self, capsys):
        code, out, _ = run(capsys, "growth", "--system", "Atilde2", "--order", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["ball_sizes"] == [1]
        assert doc["poincare"] == [1]
        assert doc["bott"] == [1]
        assert doc["probe"] is None

    def test_finite_doc(self, capsys):
        code, out, _ = run(capsys, "growth", "--system", "A2", "--order", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["bott"] is None
        assert doc["probe"] is None


class TestErrorsAndSuites:
    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "interval", "--system", "Q9", "--element", "w0")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_named_element(self, capsys):
        code, _, err = run(capsys, "interval", "--system", "A2", "--element", "nope")
        assert code == 2
        assert "error:" in err

    def test_word_with_unknown_label(self, capsys):
        code, out, err = run(capsys, "kl", "--system", "A3", "--word", "2132")
        assert code == 2
        assert out == ""
        assert "unknown generator label 2132" in err
        assert "the labels are 1 2 3" in err
        assert "space-separated generator labels" in err

    @pytest.mark.parametrize("label", ["1_2", "+1", "\u0661"])
    def test_word_label_must_be_ascii_digits(self, capsys, label):
        # int() takes each of these; on A12, "1_2" would mean s_12
        code, out, err = run(capsys, "interval", "--system", "A3", "--word", f"2 {label} 3")
        assert code == 2
        assert out == ""
        assert f"bad generator label {label!r}" in err
        assert "space-separated generator labels" in err

    def test_error_without_message_names_its_class(self, capsys, monkeypatch):
        def no_memory(args):
            raise MemoryError()

        def refused(args):
            raise ValueError("order too large")

        monkeypatch.setitem(cli._COMMANDS, "growth", no_memory)
        code, out, err = run(capsys, "growth", "--system", "A2", "--order", "5")
        assert (code, out, err) == (2, "", "error: MemoryError\n")
        monkeypatch.setitem(cli._COMMANDS, "growth", refused)
        code, out, err = run(capsys, "growth", "--system", "A2", "--order", "5")
        assert (code, out, err) == (2, "", "error: order too large\n")

    def test_family_element_on_another_system(self, capsys):
        code, out, err = run(capsys, "interval", "--system", "B3", "--element", "y_m:2")
        assert code == 2
        assert out == ""
        assert "y_m" in err and "Atilde2" in err and "B3" in err

    def test_smoke_suite(self, capsys):
        code, out, _ = run(capsys, "suite", "smoke")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_suite_check_names(self):
        # the checks themselves run in test_acceptance.py; this pins what
        # each suite lists, in order, without running anything
        names = {name: [n for n, _ in checks] for name, checks in suites.SUITES.items()}
        assert names == {
            "smoke": [
                "interval_counts", "kl_spot", "dihedral_r", "small_search",
                "boolean_construction", "growth_coefficients",
            ],
            "classical": [
                *(f"search_{t}_w0" for t in ("A1", "A2", "A3", "A4", "B2", "B3")),
                *(f"path_forest_{t}" for t in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4")),
            ],
            "atilde2": ["interval_sizes", "recursive_constructions", "independent_searches"],
            "growth": [
                "bott_agreement", "growth_identity", "affine_coefficients",
                "ball_in_interval_samples",
            ],
            "negative": ["f4_w0_exhausted"],
        }
        assert suites.SUITE_NAMES == tuple(names)
        # the parser lists them without loading suites
        assert cli._SUITE_NAMES == suites.SUITE_NAMES

    def test_failing_check_is_reported(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("boom")

        checks = [("fine", lambda: None), ("broken", broken)]
        monkeypatch.setitem(suites.SUITES, "smoke", checks)
        report = suites.run_suite("smoke")
        assert report["passed"] is False
        assert report["checks"] == [
            {"name": "fine", "status": "pass", "error": None},
            {"name": "broken", "status": "fail", "error": "AssertionError: boom"},
        ]
        code, out, _ = run(capsys, "suite", "smoke")
        assert code == 1
        assert json.loads(out) == report

    def test_suite_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "suite", "smoke")
        _, second, _ = run(capsys, "suite", "smoke")
        assert first == second
