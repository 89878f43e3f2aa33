"""Print the SHA-256 of every benchmark job's stdout, one job per line.

Usage, from the root of a checkout:

    python3 bench/digests.py [--seed N]

Run it on two commits and diff the output: a change that keeps every
serialized document byte-identical prints the same lines.
"""

from __future__ import annotations

import argparse
import sys

import workloads
from run import RUN_DIR, Runner, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="sets the split search's budget")
    args = parser.parse_args(argv)
    work = RUN_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    runner.clear()
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, args.seed):
            out = runner.run(job.name, runner.command(job))
            print(f"{digest(out.stdout)}  exit {out.code}  {name}/{job.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
