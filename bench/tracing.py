"""The in-process traced run that gives the per-layer numbers.

The workload's jobs run again inside this process through ``cli.main``
(or the job script's ``main``), first untraced and then traced.  Tracing
replaces, for the length of the traced pass, the public functions that
one layer calls in another with wrappers that record a span: name, start,
end, parent span and job.  Program code is not changed.  Spans stay in
memory until the pass ends.  A layer's number is the self time of its
spans: their duration minus the part covered by their child spans.

Seeded probes then time three operations that no job reaches directly:
``CoxeterSystem.element``, ``CoxeterSystem.bruhat_leq`` and
``RingScalar`` products.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

# probe sizes, chosen so that the element and ring probes take about
# 0.2 s each; the bruhat_leq probe covers all pairs of the D4 w0 interval
ELEMENT_WORDS = 2000
RING_PRODUCTS = 20_000

# the growth functions timed as growth.series, and the serialize
# functions timed as serialize.doc
_GROWTH_SERIES = (
    "ball_sizes",
    "poincare_truncation",
    "volume_growth_truncation",
    "bott_truncation",
    "minimal_nonspherical_L",
)
_DOCS = (
    "interval_doc",
    "outcome_doc",
    "construction_doc",
    "certificate_doc",
    "checkpoint_doc",
    "report_doc",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, count]
        self.stack = []
        self.job = None

    @contextmanager
    def open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.open(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec[5] = count(result, kwargs)
            return result

        return traced

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def counts(self, name):
        return [rec[5] for rec in self.spans if rec[0] == name]

    def as_json(self):
        keys = ("name", "start", "end", "parent", "job", "count")
        return [dict(zip(keys, rec)) for rec in self.spans]


def _interval_count(iv, kwargs):
    return (len(iv.vertices), len(iv.bruhat_edges))


def _search_count(outcome, kwargs):
    vertices = 0
    if outcome.certificate is not None:
        vertices = outcome.certificate.lattice.vertex_count()
    return (outcome.stats["nodes_expanded"], vertices, kwargs.get("checkpoint") is not None)


def _bytes_count(text, kwargs):
    return len(text.encode("utf-8"))


@contextmanager
def installed(tracer):
    """Replace the cross-layer calls by traced wrappers, and restore them."""
    from bruhat_cubulator import cli, constructions, growth, kl, search, serialize

    plan = [(m, "interval", "bruhat.interval", _interval_count) for m in (cli, kl, search, serialize, constructions)]
    plan += [
        (serialize, "carrell_peterson_report", "kl.report", None),
        (search, "candidate_shapes", "search.shapes", None),
        (search, "search", "search.search", _search_count),
        (constructions, "verify_certificate_detailed", "search.verify", None),
        (constructions, "atilde2_cubulation", "constructions.atilde2", None),
        (constructions, "atilde2_trivial_enumeration", "constructions.enumerate", None),
        (growth, "growth_quantum_probe", "growth.probe", None),
        (serialize, "dumps", "serialize.dumps", _bytes_count),
    ]
    plan += [(growth, name, "growth.series", None) for name in _GROWTH_SERIES]
    plan += [(serialize, name, "serialize.doc", None) for name in _DOCS]
    saved = [(m, attr, getattr(m, attr)) for m, attr, _, _ in plan]
    kl_doc = serialize.kl_doc
    doc_span = tracer.wrap("serialize.doc", kl_doc)

    def traced_kl_doc(table):
        # KLTable.P and R over every comparable pair, in kl_doc's own order;
        # kl_doc then finds them memoized and only builds the document
        with tracer.open("kl.table") as rec:
            iv = table.interval
            n = len(iv.vertices)
            pairs = 0
            for y in range(n):
                for x in range(n):
                    if iv.leq_ids(x, y):
                        table.P(x, y)
                        table.R(x, y)
                        pairs += 1
            rec[5] = pairs
        return doc_span(table)

    try:
        for m, attr, name, count in plan:
            setattr(m, attr, tracer.wrap(name, getattr(m, attr), count))
        serialize.kl_doc = traced_kl_doc
        yield
    finally:
        for m, attr, fn in saved:
            setattr(m, attr, fn)
        serialize.kl_doc = kl_doc


def call_job(job, work):
    """Run one job in this process; its exit code and the digest of its stdout."""
    from bruhat_cubulator import cli

    argv = [a.replace("{work}", str(work)) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if job.script:
                code = importlib.import_module(job.script.removesuffix(".py")).main(argv)
            else:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught exception ends a Python process with 1
            code = 1
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def run_pass(jobs, work, clear, tracer=None):
    """All jobs once; the summed job wall time and each job's result."""
    results = {}
    total = 0.0
    clear()
    for job in jobs:
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            results[job.name] = call_job(job, work)
        else:
            tracer.job = job.name
            with tracer.open(f"cli.{job.name}"):
                results[job.name] = call_job(job, work)
        total += time.perf_counter() - start
    return total, results


def probes(tracer, seed, word_length):
    from bruhat_cubulator import build_system, interval
    from bruhat_cubulator.rings import CosRing, RingScalar

    rng = random.Random(seed)
    tracer.job = "probes"
    rates = {}

    system = build_system("Atilde2")
    words = [[rng.choice((0, 1, 2)) for _ in range(word_length)] for _ in range(ELEMENT_WORDS)]
    with tracer.open("probe.coxeter.element") as rec:
        for word in words:
            system.element(word)
    rates["coxeter.element_per_s"] = len(words) / (rec[2] - rec[1])

    system = build_system("D4")
    verts = interval(system.longest_element()).vertices
    pairs = [(x, y) for x in verts for y in verts]
    rng.shuffle(pairs)
    with tracer.open("probe.coxeter.bruhat_leq") as rec:
        for x, y in pairs:
            system.bruhat_leq(x, y)
    rates["coxeter.bruhat_leq_per_s"] = len(pairs) / (rec[2] - rec[1])

    ring = CosRing(5)
    scalars = [
        RingScalar(ring, tuple(rng.randint(-9, 9) for _ in range(ring.degree)))
        for _ in range(200)
    ]
    operands = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(RING_PRODUCTS)]
    with tracer.open("probe.rings.mul") as rec:
        for a, b in operands:
            a * b
    rates["rings.mul_per_s"] = len(operands) / (rec[2] - rec[1])
    return rates


def layer_metrics(tracer, rates):
    """The per-layer numbers from the traced pass's spans and the probes."""
    st = tracer.self_times()

    def t(name):
        return st.get(name, 0.0)

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    intervals = tracer.counts("bruhat.interval")
    searches = tracer.counts("search.search")
    nodes = sum(s[0] for s in searches)
    found = [s for s in searches if s[1] and not s[2]]
    found_vertices = sum(s[1] for s in found)
    return {
        "bruhat.interval_s": (t("bruhat.interval"), "s"),
        "bruhat.vertices_per_s": (per_s(sum(v for v, _ in intervals), t("bruhat.interval")), "1/s"),
        "bruhat.edges": (sum(e for _, e in intervals), "count"),
        "kl.table_s": (t("kl.table"), "s"),
        "kl.pairs_per_s": (per_s(sum(tracer.counts("kl.table")), t("kl.table")), "1/s"),
        "kl.report_s": (t("kl.report"), "s"),
        "search.shapes_s": (t("search.shapes"), "s"),
        "search.search_s": (t("search.search"), "s"),
        "search.nodes_per_s": (per_s(nodes, t("search.search")), "1/s"),
        "search.nodes_per_vertex": (
            sum(s[0] for s in found) / found_vertices if found_vertices else 0.0,
            "ratio",
        ),
        "search.verify_s": (t("search.verify"), "s"),
        "constructions.atilde2_s": (t("constructions.atilde2"), "s"),
        "constructions.enumerate_s": (t("constructions.enumerate"), "s"),
        "growth.series_s": (t("growth.series"), "s"),
        "growth.probe_s": (t("growth.probe"), "s"),
        "serialize.doc_s": (t("serialize.doc"), "s"),
        "serialize.dumps_s": (t("serialize.dumps"), "s"),
        "serialize.mb": (sum(tracer.counts("serialize.dumps")) / 1e6, "MB"),
        "coxeter.element_per_s": (rates["coxeter.element_per_s"], "1/s"),
        "coxeter.bruhat_leq_per_s": (rates["coxeter.bruhat_leq_per_s"], "1/s"),
        "rings.mul_per_s": (rates["rings.mul_per_s"], "1/s"),
    }
