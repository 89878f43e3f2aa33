"""The benchmark's workloads: lists of jobs, each checked by ``checks``.

A job is one process: the ``bruhat-cubulator`` CLI, or a script in this
directory for a library function no subcommand exposes.  ``{work}`` in an
argument stands for the run's scratch directory.  Jobs in one unit run
back to back in that order; the seed shuffles the units.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks as c

WORKLOADS = ("search", "tables", "affine")
# the length of each workload's longest element (F4 w0, D5 w0, y_12): the
# coxeter probe canonicalizes random words this long
PROBE_WORD_LENGTH = {"search": 24, "tables": 20, "affine": 27}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable
    deps: tuple = ()
    counts_nodes: bool = False
    script: str | None = None


def _cubulate(system, *extra):
    return ("cubulate", "--system", system, "--element", "w0") + extra


def search_units(seed):
    # the budget cuts the B4 search at a seeded point; the two halves
    # always add up to the uninterrupted search
    budget = random.Random(seed).randrange(50_000, 300_001)
    split = "{work}/b4-split.json"
    stale = "{work}/stale.json"
    return [
        [Job("b4_w0", _cubulate("B4"), c.cubulate_w0("B", 4), counts_nodes=True)],
        [Job("d5_w0", _cubulate("D5"), c.cubulate_w0("D", 5), counts_nodes=True)],
        [
            Job(
                "b4_split_budget",
                _cubulate("B4", "--budget", str(budget), "--checkpoint", split),
                c.budgeted(budget, "b4_w0", "B", 4),
                deps=("b4_w0",),
                counts_nodes=True,
            ),
            Job(
                "b4_split_resume",
                _cubulate("B4", "--checkpoint", split),
                c.resumed("b4_split_budget", "b4_w0", "B", 4),
                deps=("b4_split_budget", "b4_w0"),
                counts_nodes=True,
            ),
        ],
        [Job("f4_w0_workers2", _cubulate("F4", "--workers", "2"), c.exhausted, counts_nodes=True)],
        [
            Job("stale_b3_budget", _cubulate("B3", "--budget", "5", "--checkpoint", stale), c.stale_budget),
            Job("stale_a3_resume", _cubulate("A3", "--checkpoint", stale), c.stale_resume),
        ],
    ]


def tables_units(seed):
    def kl(name, system, check, *, word=None):
        spec = ("--word", word) if word else ("--element", "w0")
        return [Job(name, ("kl", "--system", system) + spec, check)]

    return [
        [Job("interval_d5_w0", ("interval", "--system", "D5", "--element", "w0"), c.interval_w0("D", 5))],
        kl("kl_a4_w0", "A4", c.kl_symmetric(4)),
        kl("kl_b3_w0", "B3", c.kl_signed_w0("B", 3)),
        kl("kl_h3_10", "H3", c.kl_properties_only, word="1 2 1 2 1 3 2 1 2 1"),
        kl("kl_a3_2132", "A3", c.kl_symmetric(3, c.a3_2132_values), word="2 1 3 2"),
        kl("kl_i2_5_w0", "I2(5)", c.kl_dihedral(5)),
        [Job("cubulate_a4_w0", _cubulate("A4"), c.cubulate_w0("A", 4), counts_nodes=True)],
    ]


def affine_units(seed):
    return [
        [
            Job(
                "atilde2_m12",
                ("construct", "--system", "Atilde2", "--construction", "atilde2", "--m", "12"),
                c.construct_atilde2(12),
            )
        ],
        [
            Job(
                "cubulate_y6",
                ("cubulate", "--system", "Atilde2", "--element", "y_m:6"),
                c.cubulate_y_m(6),
                counts_nodes=True,
            )
        ],
        [Job("growth_atilde4_13", ("growth", "--system", "Atilde4", "--order", "13"), c.growth_atilde(4, 13))],
        [Job("growth_atilde2_30", ("growth", "--system", "Atilde2", "--order", "30"), c.growth_atilde(2, 30))],
        [Job("enumerate_10", ("10",), c.enumeration(10), script="enumerate_job.py")],
    ]


_UNITS = {"search": search_units, "tables": tables_units, "affine": affine_units}


def jobs(workload: str, seed: int) -> list[Job]:
    units = _UNITS[workload](seed)
    random.Random(seed).shuffle(units)
    return [job for unit in units for job in unit]


def all_job_names() -> list[str]:
    return [job.name for w in WORKLOADS for unit in _UNITS[w](0) for job in unit]
