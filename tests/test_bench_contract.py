"""The end-to-end benchmark's binding contract with the analyzer.

``benchmarks/e2e`` times the analyzer from outside: ``spans.py`` wraps
named functions and methods at every module that binds them, and
``workloads.py`` generates its inputs with the corpus generator.  A
rename or move in ``src/`` breaks the benchmark without failing any
analyzer test, so this module loads both files by path, installs the
tracer, builds a tiny version of each input, and runs ``analyze``,
``corpus run`` and one request to an in-process ``serve`` under the
tracer to show the wrapped binding sites are the ones the analyzer
actually calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.server import ServiceConfig
from tests.test_service import ServiceHarness

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(stem):
    name = f"_bench_contract_{stem}"
    spec = importlib.util.spec_from_file_location(name, E2E / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


@pytest.fixture(scope="module")
def bench():
    spans, workloads = _load("spans"), _load("workloads")
    yield spans, workloads
    for stem in ("spans", "workloads"):
        sys.modules.pop(f"_bench_contract_{stem}", None)


def test_tracer_binds_and_inputs_build(bench, tmp_path, capsys):
    spans, workloads = bench
    tracer = spans.Tracer()
    tracer.install()
    try:
        # ``install`` raises on a target that no longer resolves; every
        # target must also have been patched at least once.
        patched = {(id(owner), attr) for owner, attr, _ in tracer._undo}
        assert len(patched) >= len(spans.WRAPPED)

        routines = workloads.dense_routines(1, 0.02)
        assert routines
        dense = tmp_path / "dense.f"
        dense.write_text("".join(source for _, source in routines))
        generated = workloads.write_idiom_tree(tmp_path / "tree", 1, 0.02)
        assert generated

        assert main(["analyze", str(dense)]) == 0
        assert main(["corpus", "run", str(tmp_path / "tree" / "gen")]) == 0
        capsys.readouterr()
    finally:
        tracer.uninstall()
    table = tracer.aggregate(0.0, 1.0)["spans"]
    for span in (
        "fortran.tokenize",
        "graph.build",
        "engine.prepare",
        "engine.resolve",
        "core.test_dependence",
        "corpus.walk",
    ):
        assert span in table, f"span {span} never recorded"
    counts = tracer.counts
    assert counts["graph.pairs"] > 0
    assert counts["engine.misses"] > 0
    assert counts["single.applications"] > 0


def test_tracer_binds_the_service_spans(bench):
    spans, workloads = bench
    (_, source), *_ = workloads.dense_routines(1, 0.02)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # As the service workload runs it: one in-process server on a
        # loop thread, its analyses on executor threads.
        with ServiceHarness(ServiceConfig(port=0)) as harness:
            reply = harness.client().analyze(source, name="contract")
    finally:
        tracer.uninstall()
    assert reply["status"] == "ok"
    table = tracer.aggregate(0.0, 1.0)["spans"]
    for span in (
        "service.decode",
        "service.serve_build",
        "service.handler",
        "service.encode",
    ):
        assert span in table, f"span {span} never recorded"
