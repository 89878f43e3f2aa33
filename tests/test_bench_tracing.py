"""The benchmark's traced pass still sees the program's cross-layer calls.

``bench/tracing.py`` replaces module attributes such as ``search.search``
and ``search.candidate_shapes`` with wrappers for the length of the pass.
A refactor that calls them by another route, or renames them, would leave
the per-layer numbers empty or break the pass; this test notices either.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from bruhat_cubulator import cli, constructions, growth, kl, search, serialize

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_MODULES = (cli, constructions, growth, kl, search, serialize)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_jobs_record_their_spans_and_restore_the_program(tmp_path):
    tracing = load_tracing()
    before = [dict(vars(m)) for m in _MODULES]
    tracer = tracing.Tracer()
    stale = ("--checkpoint", "{work}/stale.json")
    jobs = [
        (("cubulate", "--system", "B3", "--element", "w0"), 0),
        (("cubulate", "--system", "A3", "--word", "2 1 3 2"), 1),
        # as in the search workload: a B3 checkpoint, then A3 refusing it
        (("cubulate", "--system", "B3", "--element", "w0", "--budget", "5") + stale, 3),
        (("cubulate", "--system", "A3", "--element", "w0") + stale, 2),
    ]
    with tracing.installed(tracer):
        assert search.search is not before[_MODULES.index(search)]["search"]
        for argv, expected in jobs:
            code, _ = tracing.call_job(SimpleNamespace(argv=argv, script=None), tmp_path)
            assert code == expected, argv
    names = {rec[0] for rec in tracer.spans}
    assert {"search.search", "search.shapes", "bruhat.interval"} <= names
    # every search span returned, so the layer metrics can read its count;
    # B3 w0 is Found in 800 nodes, and the refused checkpoint starts none
    assert [count[0] for count in tracer.counts("search.search")] == [800, 0, 5]
    for module, attrs in zip(_MODULES, before):
        assert vars(module) == attrs, module.__name__
