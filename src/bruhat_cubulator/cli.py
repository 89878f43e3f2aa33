"""Command-line interface.

Subcommands: interval, kl, cubulate, construct, growth, suite.  Exit codes
for cubulate: 0 Found, 1 Exhausted, 3 BudgetExceeded; every command exits
2 on invalid input or internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
from collections.abc import Iterable
from itertools import accumulate
from pathlib import Path

# only what every command needs; each command imports the rest itself
from . import serialize
from .bruhat import interval
from .coxeter import CoxeterSystem, Element, build_system

# keyed on search's status strings, so that no other command loads search
_EXIT = {"Found": 0, "Exhausted": 1, "BudgetExceeded": 3}
# suites.SUITE_NAMES, written out so that building the parser loads no suite
_SUITE_NAMES = ("smoke", "classical", "atilde2", "growth", "negative")


def _natural(text: str, what: str, least: int = 0) -> int:
    """The integer >= least that text spells in the digits 0-9; int() alone would
    also take " 1_0", "+1" and "١", and raises ValueError past 4300 digits."""
    if not re.fullmatch(r"[0-9]+", text) or int(text) < least:
        raise argparse.ArgumentTypeError(
            f"bad {what} {text!r}; must be an integer >= {least} in the digits 0-9"
        )
    return int(text)


def parse_budget(text: str) -> int:
    """Accept plain integers below 2^63 plus the power forms 10^9 and 3*10^8."""
    too_large = argparse.ArgumentTypeError("budget must be below 2^63")
    head, caret, exp = text.partition("^")
    mant, star, base = head.rpartition("*") if caret else ("", "", text)
    try:
        # b^e >= 2^63 once b >= 2 and e >= 63, and 0^e, 1^e are the same
        # for every e >= 63, so capping e keeps the test without the power
        value = _natural(base, "budget") ** min(_natural(exp, "budget") if caret else 1, 63)
        value *= _natural(mant, "budget") if star else 1
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad budget {text!r}") from None
    except ValueError:  # int() refuses a string of more than 4300 digits
        raise too_large from None
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    if value >= 2**63:
        raise too_large
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
    p.add_argument("--budget", type=parse_budget, help="node-expansion budget below 2^63, e.g. 10^9")
    p.add_argument(
        "--workers",
        type=lambda t: _natural(t, "worker count", 1),
        default=1,
        help="accepted for compatibility; the search runs serially",
    )
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
    p.add_argument("--m", type=lambda t: _natural(t, "index"), help="family index for atilde2")

    p = sub.add_parser("growth", help="growth series truncations and probes")
    common(p, element=False)
    p.add_argument("--order", type=lambda t: _natural(t, "order"), default=10)

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", choices=_SUITE_NAMES)
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _resolve_element(system: CoxeterSystem, args) -> Element:
    if getattr(args, "word", None) is not None:
        usage = '--word takes space-separated generator labels, e.g. "2 1 3 2"'
        tokens = args.word.split()
        # int() would also take "1_2", "+1" and non-ASCII digits
        bad = [a for a in tokens if not re.fullmatch(r"[0-9]+", a)]
        if bad:
            raise ValueError(f"bad generator label {bad[0]!r}; {usage}")
        try:
            return system.element(map(int, tokens))
        except ValueError as exc:
            raise ValueError(f"{exc}; {usage}") from exc
    name = getattr(args, "element", None)
    if not name:
        raise ValueError("an element is required (--element or --word)")
    if name == "w0":
        return system.longest_element()
    if name.startswith("y_m:"):
        from .constructions import y_m

        return y_m(system, _natural(name.removeprefix("y_m:"), "--element y_m:<m> index"))
    raise ValueError(f'unknown named element {name!r}; use "w0" or "y_m:<m>"')


def _emit(pieces: Iterable[str], out: str | None):
    """Write each text piece as soon as it is made, to ``out`` or to stdout."""
    if out:
        _write_file(Path(out), pieces)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as a StringIO
        sys.stdout.writelines(pieces)
        return
    # under PYTHONUNBUFFERED the buffer is the raw file: its write may take
    # only part of the bytes, and the text layer ignores how many it took
    sys.stdout.flush()
    for piece in pieces:
        data = memoryview(piece.encode("utf-8"))
        while data:
            data = data[buffer.write(data) :]
    buffer.flush()


def _write_file(path: Path, pieces: Iterable[str]):
    """Write the text ``pieces`` to ``path`` so that a failed or interrupted
    write leaves the previous file whole: through a temp file beside the
    file a symlink names, renamed into place with the old file's mode.  A
    target that is not a plain file (a device such as /dev/null, a FIFO,
    /dev/fd/N) or that has other hard links cannot be replaced, and is
    written in place."""
    try:
        old = path.stat()
    except FileNotFoundError:
        old = None
    if old is not None and (not stat.S_ISREG(old.st_mode) or old.st_nlink > 1):
        with path.open("w", encoding="utf-8") as file:
            file.writelines(pieces)
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as file:
            file.writelines(pieces)
        if old is not None:
            tmp.chmod(stat.S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_interval(args) -> int:
    system = build_system(args.system)
    iv = interval(_resolve_element(system, args))
    if args.format == "dot":
        _emit(serialize.interval_dot(iv), args.out)
        return 0
    doc = serialize.interval_doc(iv)
    del iv  # so that its edge lists are freed before the text is made
    _emit(serialize.chunks(doc), args.out)
    return 0


def _cmd_kl(args) -> int:
    from .kl import KLTable

    system = build_system(args.system)
    table = KLTable(interval(_resolve_element(system, args)))
    doc = serialize.kl_doc(table)
    del table  # so that its memo tables and interval are freed before the text is made
    _emit(serialize.chunks(doc), args.out)
    return 0


def _read_checkpoint(path: Path, iv) -> dict:
    """The checkpoint in ``path``, bound to the search of ``iv``."""
    from . import search

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSON or a UTF-8 decoding error
        raise ValueError(f"checkpoint file {path} is not valid JSON: {exc}") from None
    checkpoint = serialize.checkpoint_from_doc(doc)
    # search binds it again; binding it here refuses another job's checkpoint
    # before a search starts, since bench/tracing.py counts every search's nodes
    search.bind(iv, checkpoint)
    return checkpoint


def _cmd_cubulate(args) -> int:
    from . import search

    system = build_system(args.system)
    iv = interval(_resolve_element(system, args))
    path = Path(args.checkpoint) if args.checkpoint else None
    checkpoint = _read_checkpoint(path, iv) if path and path.exists() else None
    outcome = search.search(iv, budget=args.budget, checkpoint=checkpoint)
    # the checkpoint first: a job whose checkpoint cannot be written prints nothing
    if outcome.status == search.BUDGET_EXCEEDED and path:
        _write_file(path, serialize.chunks(serialize.checkpoint_doc(outcome.checkpoint)))
    _emit(serialize.chunks(serialize.outcome_doc(iv, outcome)), args.out)
    return _EXIT[outcome.status]


def _cmd_construct(args) -> int:
    from . import constructions as cx

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
    _emit(serialize.chunks(serialize.construction_doc(result)), args.out)
    return 0


def _cmd_growth(args) -> int:
    from . import growth

    system = build_system(args.system)
    order = args.order
    w = growth.poincare_truncation(system, order)
    # the ball sizes are the coefficients of Gamma(z) = W(z) / (1 - z)
    balls = list(accumulate(w))
    doc = {
        "schema": serialize.SCHEMA,
        "kind": "growth",
        "system": system.descriptor,
        "order": order,
        "ball_sizes": balls,
        "poincare": list(w),
        "volume_growth": balls,
        "bott": None,
        "minimal_nonspherical_L": None,
        "probe": None,
    }
    try:
        doc["bott"] = list(growth.bott_truncation(system, order))
    except ValueError:
        pass
    try:
        doc["minimal_nonspherical_L"] = growth.minimal_nonspherical_L(system)
    except ValueError:
        pass
    # the probe reads shapes from order 1 on; at order 0 there is none
    if not system.is_finite() and order >= 1:
        report = growth.growth_quantum_probe(system, w)
        doc["probe"] = {
            "f_coeffs": list(report.f_coeffs),
            "stabilization_index": report.stabilization_index,
            "stabilized_shape": (
                list(report.stabilized_shape) if report.stabilized_shape is not None else None
            ),
            "caveat": report.caveat,
        }
    _emit(serialize.chunks(doc), args.out)
    return 0


def _cmd_suite(args) -> int:
    from .suites import run_suite

    report = run_suite(args.name)
    _emit(serialize.chunks(report), args.out)
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
        # an exception with no message, such as MemoryError(), is named by its class
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
