"""The end-to-end benchmark at a tiny input size.

These tests start many analyzer processes and take about a minute, so
they run only when asked for::

    E2E_BENCH_TESTS=1 python -m pytest benchmarks/e2e/test_e2e.py -q

Each runs the benchmark in a child process, so this process imports none
of the benchmark's modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--scale", "0.02", "--seconds", "0.1"]
#: Every workload of ``run.py``; ``BENCHMARK.json`` lists a subset.
WORKLOADS = ["idiom-cold", "dense-analyze", "store-write", "store-edit", "service-mixed"]

pytestmark = pytest.mark.skipif(
    os.environ.get("E2E_BENCH_TESTS") != "1", reason="slow; set E2E_BENCH_TESTS=1"
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--trace", str(trace), "--work", str(tmp_path), *TINY],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: row["unit"] for name, row in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in wanted}
    assert all(isinstance(row["value"], (int, float)) for row in result["metrics"].values())


#: Poisons one replayed report in ``store-edit``'s warm store, then runs
#: the workload's samples and its final check against a no-store run.
POISONED_STORE_EDIT = """
import hashlib, json, shutil, sys
from pathlib import Path

import run as bench
from repro.corpus.stream import routine_token
from repro.engine.store import VerdictStore
from repro.fortran.parser import parse_program

workload = bench.StoreEdit(Path(sys.argv[1]), seed=1, scale=0.02)
workload.prepare()
# Kernel files are never edited, so their stored reports replay in every
# cycle; poison one routine's report and re-warm the snapshot.
victim = sorted((workload.snapshot_tree / "kernels").rglob("*.f"))[0]
data = victim.read_bytes()
name = parse_program(data.decode(), name=victim.stem).routines[0].name
shutil.rmtree(workload.snapshot_store)
with VerdictStore(workload.snapshot_store) as store:
    store.put_report(
        routine_token(hashlib.sha256(data).hexdigest(), 0, name),
        f"-- routine {name} --\\n(0 pairs tested, 0 independent)\\n\\n",
    )
bench.spawn(["corpus", "run", workload.snapshot_tree, "--store", workload.snapshot_store],
            workload.scratch)
bench.measure(workload, 0.1, trace=False)
print(json.dumps(workload.problems))
workload.finish()
print(json.dumps(workload.problems))
"""


def test_corrupted_report_fails_the_output_check(tmp_path):
    """A store replaying a wrong report must not pass as correct."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", POISONED_STORE_EDIT, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    after_samples, after_finish = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    assert after_samples == []  # replay is self-consistent...
    assert any("differs from a no-store run" in p for p in after_finish)  # ...but wrong
