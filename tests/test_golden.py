"""Golden outputs: the SHA-256 of the stdout of a few fast CLI jobs.

Serialized documents are byte-stable, so a refactor must leave every digest
and exit code unchanged.  The set covers each subcommand that prints a
document, the integer, ring (H3) and affine tiers, and budgeted searches
that stop with BudgetExceeded (exit 3).  A deliberate output change updates
the digest here and names the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import bruhat_cubulator
from bruhat_cubulator.bruhat import BruhatInterval
from bruhat_cubulator.cli import main

GOLDEN = [
    (
        ("interval", "--system", "A3", "--element", "w0"),
        0,
        "c1a82c8b156c20361a5eda068dc18c890329f10c70f8c1ce2e9bb2ffbf87a777",
    ),
    (
        # the interval documents are encoded one column at a time
        ("interval", "--system", "D4", "--element", "w0"),
        0,
        "9d451971d7467bbb65d22c946c1e0cd1cf627da468d92f3e02c2494f10e071f6",
    ),
    (
        ("interval", "--system", "H3", "--element", "w0"),
        0,
        "c3427a3cc14949f03586711c174708118a55b42d297b054fd3bf32cf9f3f8d94",
    ),
    (
        # affine edge labels
        ("interval", "--system", "Atilde2", "--element", "y_m:4"),
        0,
        "4cf355a51e48497635bf25bb4ee50bef54af50fefa2b3c6e5c95a907aece08fb",
    ),
    (
        # dihedral edge labels in the ring tier
        ("interval", "--system", "I2(7)", "--element", "w0"),
        0,
        "34ed5e3724c6937abe74fe9274f6b9c6204f9b52cbdcc2585275a7be1380f6dd",
    ),
    (
        ("kl", "--system", "A3", "--word", "2 1 3 2"),
        0,
        "b2435b017f44bce20f06512d230965fff7ff85875e24a138b593f4e0c14afaa8",
    ),
    (
        ("kl", "--system", "H3", "--word", "1 2 1 2 1 3 2 1 2 1"),
        0,
        "3641c145ed5ee599c2d5b0ed99f7be39d7ba5cf5a764241070da4c28ab7ca165",
    ),
    (
        # P coefficients up to 4
        ("kl", "--system", "D4", "--element", "w0"),
        0,
        "5a6411a0ccdcdc6999c7e112f3b6353540153c2f71f02c49df7f06e7be343822",
    ),
    (
        ("cubulate", "--system", "B3", "--element", "w0"),
        0,
        "a5351eff7aaf832968365d51e78065b450d585e4364a5caf31c27ab7ea3c9677",
    ),
    (
        ("cubulate", "--system", "B3", "--element", "w0", "--workers", "2"),
        0,
        "a5351eff7aaf832968365d51e78065b450d585e4364a5caf31c27ab7ea3c9677",
    ),
    (
        ("construct", "--system", "B3", "--construction", "path-forest"),
        0,
        "a4b4ed0fecbd8bc6e18caadcd3169b350404ce30366792a3fc506edef78e260b",
    ),
    (
        # the verifier's edge test in the ring tier
        ("construct", "--system", "I2(7)", "--construction", "dihedral", "--element", "w0"),
        0,
        "558ac6c64bf1e92e6db8b969bd0ce03602c75f8456c3264273e7596c3639395f",
    ),
    (
        ("construct", "--system", "A4", "--construction", "path-forest"),
        0,
        "b0bf23310eca2a288bda69ffe68084274acfbe8060718a852a1cef1777b59363",
    ),
    (
        ("construct", "--system", "Atilde2", "--construction", "atilde2", "--m", "3"),
        0,
        "f45dcbe097273ceaa69142617402fc3dc1d399bf55d2278202f6453c97495fee",
    ),
    (
        # a finite system: no probe and no minimal nonspherical L
        ("growth", "--system", "H3", "--order", "6"),
        0,
        "b1b2c29af10bfb4f443b1c484fb09fd1628a70dd477b65c07e2a92c7f3d21211",
    ),
    (
        ("growth", "--system", "Atilde2", "--order", "10"),
        0,
        "60db1c54e5144340c2f020d6dcf00beaeaee97f7ff8ccb27359a6a489f81e697",
    ),
    (
        ("growth", "--system", "Atilde4", "--order", "13"),
        0,
        "954e32ed0ec4654dc493acce2f2af2671c76d28eaae07b08bbac7f01fb68a14c",
    ),
    (
        # the quantum-shape probe does not stabilize here
        ("growth", "--system", "Gtilde2", "--order", "16"),
        0,
        "230649ab1480301e4c5299171d4c7cfcfa9c556e6085dae493c1cf3746f9daf3",
    ),
    (
        ("suite", "smoke"),
        0,
        "6e8b00a3fa5d9d050718acb53f0c15dd773be03eb959f8ddae8ff14fb662536a",
    ),
    (
        # the budget exceeds the 29,904-node tree
        ("cubulate", "--system", "B4", "--element", "w0", "--budget", "50000"),
        0,
        "fcc691dfbe878531cd0b68472260932dad7a173af5f969a428ab764f5065abf0",
    ),
    (
        ("cubulate", "--system", "B4", "--element", "w0", "--budget", "10000"),
        3,
        "6819c70dfa55a2345309d07b72348007f89abef7032741d2a74d57857c505ad6",
    ),
    (
        ("cubulate", "--system", "F4", "--element", "w0", "--budget", "20000"),
        3,
        "10a7c864e1c6b06051caeae196050ebc124622aa5df8776b3c608e83209c8345",
    ),
    (
        # the Bruhat out-degree condition holds at every vertex
        ("kl", "--system", "B3", "--element", "w0"),
        0,
        "03cc28ed203a531a1b1be3cf60d89571f05391843168a9b16888fd2526505e51",
    ),
    (
        # the two documents whose columns repeat one list object: reflection
        # labels here, P and R coefficient lists in the next
        ("interval", "--system", "D5", "--element", "w0"),
        0,
        "d33ac55381fbba218a06b88377cda33c49ad917fd65e2a917dd5bf8f0b141333",
    ),
    (
        ("kl", "--system", "A4", "--element", "w0"),
        0,
        "854ac56fc12aa52f69e948d66ae7d367a2876b2b65e588d5dfd2797a28a8a504",
    ),
    (
        ("interval", "--system", "B3", "--element", "w0", "--format", "dot"),
        0,
        "7766a9129ff430e2037790066723e963298648cde9243c8c49bbbb3c27eb1b9a",
    ),
    (
        # a certificate of 1,920 rows, each with its word
        ("cubulate", "--system", "D5", "--element", "w0"),
        0,
        "e243ac2847b4cbbb372709629684d9f426a62660bb88498ff2ac881b05476f7c",
    ),
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_stdout_digest(capsys, argv, exit_code, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_no_command_builds_an_edge_list_view(capsys, monkeypatch):
    """Every command reads the interval's edge arrays: none makes the labelled
    triples, and each still prints its GOLDEN bytes."""

    def refuse(self):
        raise AssertionError("an edge list view was built")

    monkeypatch.setattr(BruhatInterval, "bruhat_edges", property(refuse))
    jobs = [
        ("interval", "--system", "D4", "--element", "w0"),
        ("interval", "--system", "B3", "--element", "w0", "--format", "dot"),
        ("kl", "--system", "B3", "--element", "w0"),
        ("cubulate", "--system", "B3", "--element", "w0"),
        ("construct", "--system", "B3", "--construction", "path-forest"),
        ("construct", "--system", "Atilde2", "--construction", "atilde2", "--m", "3"),
        ("suite", "smoke"),
    ]
    for argv in jobs:
        code = main(list(argv))
        out = capsys.readouterr()
        digest = hashlib.sha256(out.out.encode("utf-8")).hexdigest()
        assert (code, digest, out.err) == next((c, d, "") for a, c, d in GOLDEN if a == argv)


def test_no_command_makes_a_vertex_element(capsys, monkeypatch):
    """The interval, kl and cubulate commands read ids, keys and the letter
    and below arrays: none reads the ``vertices`` view, which makes an
    Element per vertex, and each still prints its GOLDEN bytes."""

    def refuse(self):
        raise AssertionError("the vertex Elements were made")

    monkeypatch.setattr(BruhatInterval, "vertices", property(refuse))
    jobs = [
        ("interval", "--system", "D5", "--element", "w0"),
        ("interval", "--system", "B3", "--element", "w0", "--format", "dot"),
        ("kl", "--system", "A4", "--element", "w0"),
        ("cubulate", "--system", "D5", "--element", "w0"),
    ]
    for argv in jobs:
        code = main(list(argv))
        out = capsys.readouterr()
        digest = hashlib.sha256(out.out.encode("utf-8")).hexdigest()
        assert (code, digest, out.err) == next((c, d, "") for a, c, d in GOLDEN if a == argv)


def run_without(argv, blocked):
    """Run the CLI in a fresh interpreter that cannot import ``blocked``; match its GOLDEN digest."""
    script = "\n".join(
        [
            "import hashlib, io, sys",
            "from contextlib import redirect_stdout",
            *(f"sys.modules[{name!r}] = None" for name in blocked),
            "from bruhat_cubulator.cli import main",
            "out = io.StringIO()",
            "with redirect_stdout(out):",
            f"    code = main({list(argv)!r})",
            "print(code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())",
        ]
    )
    src = os.path.dirname(os.path.dirname(bruhat_cubulator.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, digest = next((c, d) for a, c, d in GOLDEN if a == argv)
    assert proc.stdout.split() == [str(code), digest]


def test_ring_tier_without_mpmath():
    """The ring tier decides signs in integers, so it runs with mpmath unimportable."""
    run_without(("kl", "--system", "H3", "--word", "1 2 1 2 1 3 2 1 2 1"), ("mpmath",))


def test_suite_without_test_dependencies():
    """The suite checks live in the package: ``suite`` never imports a test dependency."""
    run_without(("suite", "smoke"), ("pytest", "hypothesis", "mpmath"))
