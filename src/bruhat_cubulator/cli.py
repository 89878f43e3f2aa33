"""Command-line interface.

Subcommands: interval, kl, cubulate, construct, growth, suite.  Exit codes
for cubulate: 0 Found, 1 Exhausted, 3 BudgetExceeded; every command exits
2 on invalid input or internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import constructions as cx
from . import growth, serialize, suites
from .bruhat import interval
from .coxeter import CoxeterSystem, Element, build_system
from .kl import KLTable
from .search import BUDGET_EXCEEDED, EXHAUSTED, FOUND, cubulate

_EXIT = {FOUND: 0, EXHAUSTED: 1, BUDGET_EXCEEDED: 3}


def parse_budget(text: str) -> int:
    """Accept plain integers plus the power forms 10^9 and 3*10^8."""
    mm = re.fullmatch(r"(?:(\d+)\*)?(\d+)\^(\d+)", text)
    if mm:
        mant = int(mm.group(1)) if mm.group(1) else 1
        value = mant * int(mm.group(2)) ** int(mm.group(3))
    elif re.fullmatch(r"\d+", text):
        value = int(text)
    else:
        raise argparse.ArgumentTypeError(f"bad budget {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhat-cubulator",
        description="Exact Bruhat-interval computations and cubulation search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, element=True):
        p.add_argument("--system", required=True, help="type label such as A3 or Atilde2")
        if element:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--element", help='named element: "w0" or "y_m:3"')
            group.add_argument("--word", help='generator labels, e.g. "2 1 3 2"')
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("interval", help="serialize a Bruhat interval")
    common(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("kl", help="Kazhdan-Lusztig table over an interval")
    common(p)

    p = sub.add_parser("cubulate", help="search for a cubical-lattice spanning subgraph")
    common(p)
    p.add_argument("--budget", type=parse_budget, help="node-expansion budget, e.g. 10^9")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", help="checkpoint file to resume from / write to")

    p = sub.add_parser("construct", help="run a closed-form construction")
    common(p, element=False)
    p.add_argument(
        "--construction",
        required=True,
        choices=("path-forest", "boolean", "dihedral", "atilde2"),
    )
    p.add_argument("--element", help="target element for boolean/dihedral")
    p.add_argument("--word", help="target word for boolean/dihedral")
    p.add_argument("--m", type=int, help="family index for atilde2")

    p = sub.add_parser("growth", help="growth series truncations and probes")
    common(p, element=False)
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", choices=suites.SUITE_NAMES)
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _resolve_element(system: CoxeterSystem, args) -> Element:
    if getattr(args, "word", None):
        try:
            return system.element(int(a) for a in args.word.split())
        except ValueError as exc:
            raise ValueError(
                f'{exc}; --word takes space-separated generator labels, e.g. "2 1 3 2"'
            ) from exc
    name = getattr(args, "element", None)
    if not name:
        raise ValueError("an element is required (--element or --word)")
    if name == "w0":
        return system.longest_element()
    mm = re.fullmatch(r"y_m:(\d+)", name)
    if mm:
        return cx.y_m(system, int(mm.group(1)))
    raise ValueError(f'unknown named element {name!r}; use "w0" or "y_m:<m>"')


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_interval(args) -> int:
    system = build_system(args.system)
    iv = interval(_resolve_element(system, args))
    if args.format == "dot":
        _emit(serialize.interval_dot(iv), args.out)
    else:
        _emit(serialize.dumps(serialize.interval_doc(iv)), args.out)
    return 0


def _cmd_kl(args) -> int:
    system = build_system(args.system)
    table = KLTable(interval(_resolve_element(system, args)))
    _emit(serialize.dumps(serialize.kl_doc(table)), args.out)
    return 0


def _cmd_cubulate(args) -> int:
    system = build_system(args.system)
    y = _resolve_element(system, args)
    checkpoint = None
    if args.checkpoint and Path(args.checkpoint).exists():
        doc = json.loads(Path(args.checkpoint).read_text(encoding="utf-8"))
        checkpoint = serialize.checkpoint_from_doc(doc)
    iv = interval(y)
    outcome = cubulate(y, budget=args.budget, workers=args.workers, checkpoint=checkpoint, iv=iv)
    _emit(serialize.dumps(serialize.outcome_doc(iv, outcome)), args.out)
    if outcome.status == BUDGET_EXCEEDED and args.checkpoint:
        Path(args.checkpoint).write_text(
            serialize.dumps(serialize.checkpoint_doc(outcome.checkpoint)), encoding="utf-8"
        )
    return _EXIT[outcome.status]


def _cmd_construct(args) -> int:
    system = build_system(args.system)
    kind = args.construction
    if kind == "path-forest":
        result = cx.path_forest_cubulation(system)
    elif kind == "atilde2":
        if args.m is None:
            raise ValueError("atilde2 construction needs --m")
        result = cx.atilde2_cubulation(system, args.m)
    else:
        y = _resolve_element(system, args)
        if kind == "boolean":
            result = cx.standard_parabolic_coxeter_cubulation(y)
        else:
            result = cx.dihedral_cubulation(y)
    _emit(serialize.dumps(serialize.construction_doc(result)), args.out)
    return 0


def _cmd_growth(args) -> int:
    system = build_system(args.system)
    order = args.order
    doc = {
        "schema": serialize.SCHEMA,
        "kind": "growth",
        "system": system.descriptor,
        "order": order,
        "ball_sizes": growth.ball_sizes(system, order),
        "poincare": list(growth.poincare_truncation(system, order).coeffs),
        "volume_growth": list(growth.volume_growth_truncation(system, order).coeffs),
        "bott": None,
        "minimal_nonspherical_L": None,
        "probe": None,
    }
    try:
        doc["bott"] = list(growth.bott_truncation(system, order).coeffs)
    except ValueError:
        pass
    try:
        doc["minimal_nonspherical_L"] = growth.minimal_nonspherical_L(system)
    except ValueError:
        pass
    if not system.is_finite():
        report = growth.growth_quantum_probe(system, order)
        doc["probe"] = {
            "f_coeffs": list(report.f_coeffs),
            "stabilization_index": report.stabilization_index,
            "stabilized_shape": (
                list(report.stabilized_shape) if report.stabilized_shape is not None else None
            ),
            "caveat": report.caveat,
        }
    _emit(serialize.dumps(doc), args.out)
    return 0


def _cmd_suite(args) -> int:
    report = suites.run_suite(args.name)
    _emit(serialize.dumps(report), args.out)
    return 0 if report["passed"] else 1


_COMMANDS = {
    "interval": _cmd_interval,
    "kl": _cmd_kl,
    "cubulate": _cmd_cubulate,
    "construct": _cmd_construct,
    "growth": _cmd_growth,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
