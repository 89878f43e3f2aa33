"""Print the trivial elements of Atilde2 up to a length, with their class representatives.

Usage: PYTHONPATH=src python3 bench/enumerate_job.py MAX_LENGTH

Runs ``constructions.atilde2_trivial_enumeration``, which no CLI
subcommand exposes, and prints the result as JSON in the CLI's format.
"""

from __future__ import annotations

import sys

from bruhat_cubulator import build_system, constructions, serialize


def main(argv=None) -> int:
    max_length = int((sys.argv[1:] if argv is None else argv)[0])
    pairs = constructions.atilde2_trivial_enumeration(build_system("Atilde2"), max_length)
    doc = {
        "schema": serialize.SCHEMA,
        "kind": "atilde2-trivial-enumeration",
        "max_length": max_length,
        "trivial": [{"y": list(y.word), "rep": list(rep.word)} for y, rep in pairs],
    }
    sys.stdout.write(serialize.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
