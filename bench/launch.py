"""Run one job process; report its exit status, wall time and own peak RSS.

Usage: python3 bench/launch.py REPORT PROGRAM [ARG...]

``run.py`` starts every job through this small process.  On Linux the
peak resident set a process reports counts that of the process it was
started from, so a job started straight from ``run.py``, which by then
holds and parses the outputs it checks, would report ``run.py``'s memory.
Started from here it reports its own, as this process stays near the
interpreter's minimum.  REPORT gets one line: exit code, wall seconds from
spawn to exit, peak RSS in bytes.
"""

import os
import sys
import time


def main() -> int:
    report, command = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w") as out:
        out.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss * 1024}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
