from __future__ import annotations

import argparse
import json

import pytest

from bruhat_cubulator.cli import main, parse_budget


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBudgetParsing:
    @pytest.mark.parametrize(
        "text,value",
        [("17", 17), ("10^9", 10**9), ("3*10^8", 3 * 10**8), ("2^10", 1024)],
    )
    def test_accepted(self, text, value):
        assert parse_budget(text) == value

    @pytest.mark.parametrize("text", ["", "0", "-5", "ten", "10^", "1e9", "10**3"])
    def test_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_budget(text)


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
        code, out, _ = run(
            capsys, "interval", "--system", "A2", "--element", "w0", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "interval"

    def test_named_family_element(self, capsys):
        code, out, _ = run(capsys, "interval", "--system", "Atilde2", "--element", "y_m:1")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 18


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

    def test_budget_writes_checkpoint_and_resumes(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        code, out, _ = run(
            capsys,
            "cubulate", "--system", "B3", "--element", "w0",
            "--budget", "5", "--checkpoint", str(cp),
        )
        assert code == 3
        assert json.loads(out)["status"] == "BudgetExceeded"
        assert cp.exists()
        assert json.loads(cp.read_text())["kind"] == "checkpoint"
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

    def test_smoke_suite(self, capsys):
        code, out, _ = run(capsys, "suite", "smoke")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_suite_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "suite", "smoke")
        _, second, _ = run(capsys, "suite", "smoke")
        assert first == second
