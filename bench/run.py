"""Benchmark of whole bruhat-cubulator jobs, checked against reference models.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {search,tables,affine} --seed N --seconds S --trace {0,1}

Each job is a fresh process, started one at a time.  The run repeats whole
rounds of the workload's jobs until ``--seconds`` have passed, scales each
process's wall time by the host's speed measured around and during it
(``Runner``), checks every job's output (``checks.py``) and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
timed rounds are followed by an in-process untraced and traced pass
(``tracing.py``) and the metrics are the per-layer ones.  Job outputs,
a result file and the trace go to ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
# CLI starts timed before every round and after the last one, so that
# setup_s samples the host at several points of the run
STARTS_PER_ROUND = 3
STARTUP = [sys.executable, "-m", "bruhat_cubulator.cli", "interval", "--system", "A1", "--element", "w0"]
# no round starts that would end after this, so that a run ends well
# inside its 180 s allowance
RUN_LIMIT_S = 90.0
JOB_LIMIT_S = 150.0
# the pace loop: iterations in one sample, and a sample's time at the
# reference pace, to which process times are scaled
PACE_ITERATIONS = 20_000
REFERENCE_PACE_S = 0.01
# samples taken between two processes, and the gap between two samples
# taken while a process runs, during which the process is paused
EDGE_SAMPLES = 8
PACE_GAP_S = 0.25


def pace() -> float:
    """Time a fixed pure-Python loop: how fast the host runs Python just now.

    The loop does what the program does most (tuple keys, dict updates,
    short sorts) and calls no program code, so a change to the program
    leaves it alone while a slower or faster host moves it.
    """
    start = time.perf_counter()
    seen = {}
    row = []
    for i in range(PACE_ITERATIONS):
        key = (i * 7919 % 4093, i % 17)
        seen[key] = seen.get(key, 0) + 1
        row.append(key)
        if len(row) == 64:
            row.sort()
            row.clear()
    return time.perf_counter() - start


def edge_paces():
    return [pace() for _ in range(EDGE_SAMPLES)]


def signal_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def wait_stopped(pid) -> bool:
    """Wait until ``pid`` is stopped; False if it ended first."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:
        try:
            state = stat.read_text().rpartition(")")[2].split()[0]
        except (OSError, IndexError):
            return False
        if state in "tT":
            return True
        if state in "ZX":
            return False
    return False


@dataclass
class Output:
    code: int
    stdout: bytes
    stderr: str
    wall: float
    rss_mb: float
    # wall at the reference pace: wall * REFERENCE_PACE_S over the median
    # pace sample from just before the process to just after it; wall
    # leaves out the time the process was paused for samples
    scaled: float = 0.0
    paces: tuple = ()


class Runner:
    """Starts one job process at a time and records its wall time and peak RSS.

    Each job starts through ``launch.py``, which times it and reads its
    own peak RSS.

    The pace loop is sampled between two processes and every
    ``PACE_GAP_S`` while a process runs.  A sample taken while a process
    runs first stops the process's group with SIGSTOP and resumes it
    after, so that the loop never shares the CPU with the job; the
    paused time is left out of the job's wall time.  Every process is
    scaled by the host's speed around and during it.
    """

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.edge = edge_paces()

    def command(self, job):
        argv = [a.replace("{work}", str(self.work)) for a in job.argv]
        if job.script:
            return [sys.executable, str(HERE / job.script)] + argv
        return [sys.executable, "-m", "bruhat_cubulator.cli"] + argv

    def run(self, name, command) -> Output:
        out_path, err_path = self.work / f"{name}.out", self.work / f"{name}.err"
        report = self.work / f"{name}.launch"
        report.unlink(missing_ok=True)
        paces = list(self.edge)
        paused = 0.0
        done = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), str(report)] + command,
                stdout=out,
                stderr=err,
                cwd=ROOT,
                env=self.env,
                start_new_session=True,
            )

            def sample():
                nonlocal paused
                while not done.wait(PACE_GAP_S):
                    begin = time.perf_counter()
                    try:
                        signal_group(proc.pid, signal.SIGSTOP)
                        if not wait_stopped(proc.pid):
                            return
                        paces.append(pace())
                    finally:
                        signal_group(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - begin

            sampler = threading.Thread(target=sample)
            timer = threading.Timer(JOB_LIMIT_S, signal_group, (proc.pid, signal.SIGKILL))
            timer.start()
            sampler.start()
            try:
                proc.wait()
                elapsed = time.perf_counter() - start
            except BaseException:
                signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
                done.set()
                sampler.join()
                # whatever the job left running in its group
                signal_group(proc.pid, signal.SIGKILL)
        try:
            code, wall, rss = report.read_text().split()
        except FileNotFoundError:  # the launcher was killed with its job
            code, wall, rss = proc.returncode, elapsed, 0
        wall = float(wall) - paused
        self.edge = edge_paces()
        paces += self.edge
        return Output(
            int(code),
            out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
            wall,
            int(rss) / 1e6,
            wall * REFERENCE_PACE_S / statistics.median(paces),
            tuple(paces),
        )

    def clear(self):
        for path in self.work.glob("*.json"):
            path.unlink()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Judge:
    """Verdicts per job: "pass", "failed" or "wrong", with a reason.

    A verdict is reused for output byte-identical to output already
    checked.  A job whose stdout differs from its first round fails.
    """

    def __init__(self):
        self.cache = {}
        self.first = {}

    def verdict(self, job, outs):
        def fingerprint(name):
            o = outs[name]
            return (o.code, digest(o.stdout), digest(o.stderr.encode()))

        key = (job.name,) + tuple(fingerprint(n) for n in (job.name,) + job.deps)
        if key not in self.cache:
            self.cache[key] = self._check(job, outs)
        result = self.cache[key]
        first = self.first.setdefault(job.name, digest(outs[job.name].stdout))
        if first != digest(outs[job.name].stdout):
            result = ("failed", "stdout differs from the job's first round")
        return result

    @staticmethod
    def _check(job, outs):
        try:
            job.check(outs[job.name], outs)
        except checks.Failed as exc:
            return ("failed", str(exc))
        except checks.Wrong as exc:
            return ("wrong", str(exc))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return ("wrong", f"malformed output: {exc!r}")
        return ("pass", "")


def nodes(out):
    try:
        return json.loads(out.stdout)["stats"]["nodes_expanded"]
    except (ValueError, KeyError, TypeError):
        return 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bruhat_cubulator" / "cli.py").is_file():
        print(f"error: no bruhat_cubulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = RUN_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    jobs = workloads.jobs(args.workload, args.seed)

    starts = []

    def time_starts():
        for _ in range(STARTS_PER_ROUND):
            out = runner.run("startup", STARTUP)
            if out.code != 0:
                raise SystemExit(f"error: the CLI does not start: {out.stderr.strip()[-500:]}")
            starts.append(out)

    judge = Judge()
    rounds = []
    verdicts = []
    began = time.monotonic()
    while True:
        time_starts()
        runner.clear()
        outs = {job.name: runner.run(job.name, runner.command(job)) for job in jobs}
        rounds.append(outs)
        verdicts.append({job.name: judge.verdict(job, outs) for job in jobs})
        elapsed = time.monotonic() - began
        next_end = elapsed * (len(rounds) + 1) / len(rounds)
        if next_end > min(args.seconds, RUN_LIMIT_S):
            break
    time_starts()

    flat = [v for r in verdicts for v in r.values()]
    failed = sum(1 for kind, _ in flat if kind == "failed")
    wrong = [f"{name}: {why}" for r in verdicts for name, (kind, why) in r.items() if kind == "wrong"]
    node_sums = {
        sum(nodes(outs[job.name]) for job in jobs if job.counts_nodes) for outs in rounds
    }
    if len(node_sums) != 1:
        wrong.append(f"search node counts differ between rounds: {sorted(node_sums)}")
    job_wall = {job.name: statistics.median(r[job.name].scaled for r in rounds) for job in jobs}

    if args.trace == 0:
        metrics = {
            "setup_s": metric(statistics.median(o.scaled for o in starts), "s"),
            "wall_s": metric(sum(job_wall.values()), "s"),
            "peak_rss_mb": metric(max(o.rss_mb for r in rounds for o in r.values()), "MB"),
            "search_nodes": metric(node_sums.pop() if len(node_sums) == 1 else 0, "nodes"),
        }
        spans = None
    else:
        metrics, spans, trace_wrong = traced(args, runner, jobs, rounds[0], job_wall)
        wrong += trace_wrong

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "setup_starts_s": [o.wall for o in starts],
        "setup_starts_scaled_s": [o.scaled for o in starts],
        "jobs": {
            job.name: {
                "argv": list(job.argv),
                "sha256": digest(rounds[0][job.name].stdout),
                "exit": [r[job.name].code for r in rounds],
                "wall_s": [r[job.name].wall for r in rounds],
                "scaled_s": [r[job.name].scaled for r in rounds],
                "pace_s": [r[job.name].paces for r in rounds],
                "rss_mb": [r[job.name].rss_mb for r in rounds],
                "verdicts": [v[job.name] for v in verdicts],
            }
            for job in jobs
        },
        "wrong": wrong,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUN_DIR / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (RUN_DIR / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    for job in jobs:
        info = report["jobs"][job.name]
        print(
            f"{job.name:20s} {info['sha256'][:16]} wall {job_wall[job.name]:7.3f} s"
            f"  verdict {info['verdicts'][-1][0]} {info['verdicts'][-1][1]}",
            file=sys.stderr,
        )
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(flat),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def traced(args, runner, jobs, first_round, job_wall):
    """Per-layer metrics from one untraced and one traced in-process pass."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from bruhat_cubulator import cli  # noqa: F401  (import cost stays out of both passes)

    wrong = []
    startup = runner.run("startup", STARTUP)
    plain_s, plain = tracing.run_pass(jobs, runner.work, runner.clear)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_s, results = tracing.run_pass(jobs, runner.work, runner.clear, tracer)
    for job in jobs:
        want = (first_round[job.name].code, digest(first_round[job.name].stdout))
        for label, got in (("untraced", plain[job.name]), ("traced", results[job.name])):
            if got != want:
                wrong.append(f"{job.name}: the in-process {label} pass gives {got}, the CLI {want}")
    rates = tracing.probes(tracer, args.seed, workloads.PROBE_WORD_LENGTH[args.workload])
    layers = tracing.layer_metrics(tracer, rates)
    layers["cli.startup_s"] = (startup.scaled, "s")
    for name in workloads.all_job_names():
        layers[f"cli.{name}_s"] = (job_wall.get(name, 0.0), "s")
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
    return metrics, tracer.as_json(), wrong


if __name__ == "__main__":
    sys.exit(main())
