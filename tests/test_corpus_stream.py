"""Tests for the streaming corpus driver (``repro.corpus.stream``).

Covers the walk (deterministic order, suffix filtering), the content
token scheme (file and routine tokens, schema qualification), skip/delta
semantics (cold → warm 100% skip, edit-one-file re-analyzes only that
file's routines, byte-identical output either way), report records in
the store (round trip, reopen, survival through compaction), fault
isolation (malformed files and crashed routines quarantine without
stopping the walk; strict mode aborts instead), backpressure (RSS
watermark shedding, store-rejection degradation), kill-at-file-boundary
and mid-file resume, and the ``corpus run`` CLI.

The walk runs two ways — in-process, or through the spawned worker pool
— so the ``...Pooled`` subclasses rerun those classes with the pool
forced on (:func:`force_pool`), and ``TestPool`` covers what only
the pool has: worker death, a pool that cannot start, faults crossing
the process boundary.
"""

import os
import shutil
import subprocess
import sys
import time
import uuid
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import stream, synthesize_corpus_tree
from repro.corpus.loader import KERNEL_ROOT, default_symbols
from repro.corpus.stream import (
    StreamingCorpusRunner,
    current_rss_mb,
    file_token,
    routine_token,
    run_token,
    stream_corpus,
    walk_tree,
)
from repro.delta.delta import DeltaOptions
from repro.engine import (
    DependenceEngine,
    FaultPolicy,
    VerdictStore,
)
from repro.engine.faultinject import InjectedFaultError
from repro.engine.store import CHECKPOINT_INTERVAL, _scan_segment

SRC_DIR = str(Path(__file__).parent.parent / "src")

#: How :func:`run_cli` starts the CLI: ``python -m repro``, or (after
#: :func:`force_pool`) the same CLI with the pool forced on.
CLI = ["-m", "repro"]
POOLED_CLI = [
    "-c",
    "import sys\n"
    "from repro.corpus import stream\n"
    "stream.POOL_MIN_BYTES = 1\n"
    "stream.usable_cpus = lambda: 2\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n",
]


def force_pool(monkeypatch):
    """Send every later walk of the test through a two-worker pool: the
    parent decides, so lowering its threshold is enough."""
    monkeypatch.setattr(stream, "POOL_MIN_BYTES", 1)
    monkeypatch.setattr(stream, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sys.modules[__name__], "CLI", POOLED_CLI)


class Pooled:
    """Mixin: rerun a test class's tests through the worker pool."""

    @pytest.fixture(autouse=True)
    def _through_the_pool(self, monkeypatch):
        force_pool(monkeypatch)


def subprocess_env(faults=None, marker=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_MARKER", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    if marker:
        env["REPRO_FAULT_MARKER"] = str(marker)
    return env


def run_cli(args, *, faults=None, marker=None, timeout=600, env=None):
    return subprocess.run(
        [sys.executable, *CLI, *args],
        capture_output=True,
        text=True,
        env=dict(subprocess_env(faults, marker), **(env or {})),
        timeout=timeout,
    )


def make_tree(root, files=4, seed=11):
    synthesize_corpus_tree(root, files=files, routines_per_file=2, seed=seed)
    return Path(root)


def run_stream(
    tree, store_path=None, strict=False, engine_options=None, **kwargs
):
    """One streaming pass from this process (in-process, or the pool
    after :func:`force_pool`); returns (text, corpus stats, engine)."""
    store = VerdictStore(store_path) if store_path else None
    engine = DependenceEngine(
        symbols=default_symbols(),
        policy=FaultPolicy.from_env(strict=strict),
        store=store,
        **(engine_options or {}),
    )
    out = StringIO()
    try:
        stats = stream_corpus(tree, engine, out=out, **kwargs)
    finally:
        engine.close()
        if store is not None:
            store.close()
    return out.getvalue(), stats, engine


class TestWalkAndTokens:
    def test_run_token_stable_and_discriminating(self):
        assert run_token("analyze", "src") == run_token("analyze", "src")
        assert run_token("analyze", "src") != run_token("analyze", "src2")
        assert run_token("a", "bc") != run_token("ab", "c")  # length-prefixed

    def test_walk_is_sorted_relative_and_filtered(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=3)
        (tree / "notes.txt").write_text("not fortran\n")
        (tree / "sub0" / "upper.F").write_text("      end\n")
        rels = walk_tree(tree)
        assert [r.as_posix() for r in rels] == sorted(r.as_posix() for r in rels)
        assert all(not r.is_absolute() for r in rels)
        names = {r.name for r in rels}
        assert "notes.txt" not in names
        assert "upper.F" in names  # suffix match is case-insensitive

    def test_file_token_tracks_content(self):
        assert file_token(b"abc") == file_token(b"abc")
        assert file_token(b"abc") != file_token(b"abd")

    def test_routine_token_tracks_digest_ordinal_and_name(self):
        base = routine_token("digest", 0, "r0")
        assert base == routine_token("digest", 0, "r0")
        assert base != routine_token("other", 0, "r0")
        assert base != routine_token("digest", 1, "r0")
        assert base != routine_token("digest", 0, "r1")

    def test_rss_probe_returns_number_or_none(self):
        rss = current_rss_mb()
        assert rss is None or rss > 0


class TestIncremental:
    def test_cold_then_warm_skips_everything_byte_identically(self, tmp_path):
        tree = make_tree(tmp_path / "t")
        store = tmp_path / "s.rvs"
        cold, cstats, _ = run_stream(tree, store)
        warm, wstats, _ = run_stream(tree, store)
        assert cold == warm
        assert cstats.analyzed == cstats.routines > 0
        assert wstats.analyzed == 0
        assert wstats.skipped == wstats.routines == cstats.routines
        assert wstats.skip_rate == 1.0
        assert wstats.files_replayed == wstats.files

    def test_edit_one_file_reanalyzes_only_that_file(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=4)
        store = tmp_path / "s.rvs"
        run_stream(tree, store)
        victim = sorted(tree.rglob("*.f"))[1]
        victim.write_text(victim.read_text().replace("1, n", "2, n"))
        text, stats, engine = run_stream(tree, store)
        assert stats.analyzed == 2  # only the edited file's routines
        assert stats.skipped == stats.routines - 2
        # byte-identical to a cold run over the edited tree
        reference, _, _ = run_stream(tree, tmp_path / "fresh.rvs")
        assert text == reference

    def test_rebuild_ignores_cached_reports(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=2)
        store = tmp_path / "s.rvs"
        cold, _, _ = run_stream(tree, store)
        text, stats, _ = run_stream(tree, store, rebuild=True)
        assert stats.analyzed == stats.routines
        assert stats.skipped == 0
        assert text == cold

    def test_runs_without_a_store(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=2)
        text, stats, _ = run_stream(tree)
        assert stats.analyzed == stats.routines > 0
        assert "-- routine" in text

    def test_empty_tree_is_a_clean_noop(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        text, stats, _ = run_stream(empty)
        assert text == ""
        assert stats.files == stats.routines == 0

    def test_non_default_engine_gives_the_in_process_report(
        self, tmp_path, monkeypatch
    ):
        tree = make_tree(tmp_path / "t", files=2)
        shutil.copyfile(KERNEL_ROOT / "cdl" / "linear.f", tree / "linear.f")
        options = {"delta_options": DeltaOptions(rdiv_links=False)}
        text, stats, _ = run_stream(tree, engine_options=options)
        default, _, _ = run_stream(tree)
        assert text != default  # the option changes this tree's answers
        monkeypatch.setattr(stream, "usable_cpus", lambda: 1)
        in_process, in_stats, _ = run_stream(tree, engine_options=options)
        assert in_stats.workers == 0
        assert text == in_process
        assert stats.analyzed == in_stats.analyzed == stats.routines


class TestFaultIsolation:
    def test_malformed_file_quarantines_and_walk_continues(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=3)
        (tree / "bad.f").write_text(
            "      do 10 i = 1, n\n      a(i) = a(i-\n   10 continue\n      end\n"
        )
        text, stats, engine = run_stream(tree, tmp_path / "s.rvs")
        assert stats.files_quarantined == 1
        assert stats.analyzed == stats.routines  # the good files all ran
        kinds = {f.kind for f in engine.stats.failures}
        assert "file" in kinds
        assert any("bad.f" in f.where for f in engine.stats.failures)
        # nothing about the bad file was cached: a re-run re-quarantines
        _, stats2, engine2 = run_stream(tree, tmp_path / "s.rvs")
        assert stats2.files_quarantined == 1
        assert stats2.skip_rate == 1.0

    def test_routine_crash_quarantines_only_that_routine(
        self, tmp_path, monkeypatch
    ):
        tree = make_tree(tmp_path / "t", files=2)
        names = sorted(
            r.stem + "r0" for r in tree.rglob("*.f")
        )
        monkeypatch.setenv("REPRO_FAULTS", f"routine-error:{names[0]}")
        text, stats, engine = run_stream(tree, tmp_path / "s.rvs")
        assert stats.quarantined == 1
        assert stats.analyzed == stats.routines - 1
        assert any(f.kind == "routine" for f in engine.stats.failures)
        # the quarantined routine is retried (and repaired) once healed
        monkeypatch.delenv("REPRO_FAULTS")
        _, stats2, _ = run_stream(tree, tmp_path / "s.rvs")
        assert stats2.analyzed == 1
        assert stats2.skipped == stats2.routines - 1
        assert stats2.quarantined == 0

    def test_strict_mode_aborts_on_injected_fault(self, tmp_path, monkeypatch):
        tree = make_tree(tmp_path / "t", files=2)
        names = sorted(r.stem + "r0" for r in tree.rglob("*.f"))
        monkeypatch.setenv("REPRO_FAULTS", f"routine-error:{names[0]}")
        with pytest.raises(InjectedFaultError):
            run_stream(tree, strict=True)

    def test_degraded_reports_are_not_cached(self, tmp_path, monkeypatch):
        tree = make_tree(tmp_path / "t", files=2)
        store = tmp_path / "s.rvs"
        monkeypatch.setenv("REPRO_FAULTS", "pair-error:a")
        degraded, dstats, dengine = run_stream(tree, store)
        assert dengine.stats.assumed > 0
        assert "[assumed]" in degraded
        monkeypatch.delenv("REPRO_FAULTS")
        healed, hstats, hengine = run_stream(tree, store)
        # the degraded routines were re-analyzed, not replayed
        assert hstats.analyzed > 0
        assert "[assumed]" not in healed
        assert hengine.stats.assumed == 0

    def test_rss_watermark_sheds_and_records_pressure(
        self, tmp_path, monkeypatch
    ):
        tree = make_tree(tmp_path / "t", files=3)
        reference, _, _ = run_stream(tree)
        monkeypatch.setenv("REPRO_FAULTS", "fake-rss:4096")
        text, stats, engine = run_stream(tree, max_rss_mb=256)
        assert stats.pressure_events == stats.files
        pressure = [f for f in engine.stats.failures if f.kind == "pressure"]
        assert len(pressure) == 1  # reported once, not per file
        assert "watermark" in pressure[0].error
        assert text == reference  # throttling never changes the answers

    def test_store_rejection_degrades_without_losing_output(
        self, tmp_path, monkeypatch
    ):
        tree = make_tree(tmp_path / "t", files=2)
        reference, _, _ = run_stream(tree)
        monkeypatch.setenv("REPRO_FAULTS", "reject-store:1000")
        text, stats, engine = run_stream(tree, tmp_path / "s.rvs")
        assert text == reference
        assert stats.analyzed == stats.routines
        assert any(f.kind == "store" for f in engine.stats.failures)


class TestReportRecords:
    def test_report_round_trip_and_reopen(self, tmp_path):
        path = tmp_path / "s.rvs"
        with VerdictStore(path) as store:
            store.put_report("token-a", "report text\n")
            store.put_report("token-b", {"routines": ["token-a"]})
            assert store.get_report("token-a") == "report text\n"
            assert store.report_count == 2
        with VerdictStore(path) as store:
            assert store.get_report("token-a") == "report text\n"
            assert store.get_report("token-b") == {"routines": ["token-a"]}
            assert store.get_report("missing") is None
            assert store.report_count == 2

    def test_reports_survive_compaction(self, tmp_path):
        path = tmp_path / "s.rvs"
        texts = {
            f"tok{i:03d}": f"-- routine r{i} --\nshared body line\n({i} pairs)\n"
            for i in range(40)
        }
        with VerdictStore(path) as store:
            for token, text in texts.items():
                store.put_report(token, text)
        with VerdictStore(path) as store:
            before, after = store.compact()
            assert before > after  # delta groups shrink it
        with VerdictStore(path) as store:
            assert store.report_count == len(texts)
            for token, text in texts.items():
                assert store.get_report(token) == text

    def test_corpus_store_compacts_and_replays_identically(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=3)
        store_path = tmp_path / "s.rvs"
        cold, _, _ = run_stream(tree, store_path)
        with VerdictStore(store_path) as store:
            before, after = store.compact()
            assert after < before
        report = VerdictStore.scan(store_path)
        assert report.clean
        warm, stats, _ = run_stream(tree, store_path)
        assert warm == cold
        assert stats.skip_rate == 1.0


class TestKillResume:
    def test_kill_at_file_boundary_resumes_byte_identically(self, tmp_path):
        tree = tmp_path / "t"
        make_tree(tree, files=4)
        store = tmp_path / "s.rvs"
        marker = tmp_path / "killed"
        reference = run_cli(["corpus", "run", str(tree)])
        assert reference.returncode == 0
        killed = run_cli(
            ["corpus", "run", str(tree), "--store", str(store)],
            faults="die-file:3",
            marker=marker,
        )
        assert killed.returncode == 9
        assert marker.exists()  # the kill actually fired
        resumed = run_cli(["corpus", "run", str(tree), "--store", str(store)])
        assert resumed.returncode == 0
        assert resumed.stdout == reference.stdout
        assert "skipped=4" in resumed.stderr  # the two killed-run files replay
        report = VerdictStore.scan(store)
        assert report.clean

    def test_mid_compaction_kill_loses_nothing(self, tmp_path):
        tree = tmp_path / "t"
        make_tree(tree, files=3)
        store = tmp_path / "s.rvs"
        marker = tmp_path / "killed"
        cold = run_cli(["corpus", "run", str(tree), "--store", str(store)])
        assert cold.returncode == 0
        killed = run_cli(
            ["store", "compact", str(store)],
            faults="die-compact:1",
            marker=marker,
        )
        assert killed.returncode == 9
        assert marker.exists()
        report = VerdictStore.scan(store)
        assert report.clean
        warm = run_cli(["corpus", "run", str(tree), "--store", str(store)])
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout
        assert "skip_rate=1.00" in warm.stderr

    def test_mid_file_kill_resumes_from_the_stored_routines(self, tmp_path):
        tree = tmp_path / "t"
        synthesize_corpus_tree(tree, files=3, routines_per_file=70, seed=11)
        run = ["corpus", "run", str(tree), "--store"]
        reference = run_cli(["corpus", "run", str(tree)])
        assert reference.returncode == 0
        # The store appends every record to its one segment, in order,
        # and checkpoints itself every CHECKPOINT_INTERVAL records, so
        # the second file's first records are flushed before its last
        # ones: die at the first append after that flush.
        clean = tmp_path / "clean.rvs"
        assert run_cli([*run, str(clean)]).returncode == 0
        _, records = _scan_segment(clean)
        first_file = next(
            i for i, record in enumerate(records)
            if record[0] == "d" and isinstance(record[2], dict)
        )
        kill_at = first_file + 1 + CHECKPOINT_INTERVAL + 1
        store = tmp_path / "s.rvs"
        marker = tmp_path / "killed"
        killed = run_cli(
            [*run, str(store)], faults=f"store-die:{kill_at}", marker=marker
        )
        assert killed.returncode == 9
        assert marker.exists()
        resumed = run_cli([*run, str(store)])
        assert resumed.returncode == 0
        assert resumed.stdout == reference.stdout
        # the first file replays whole, the second partly
        assert "replayed=1 " in resumed.stderr
        skipped = int(resumed.stderr.split(" skipped=")[1].split()[0])
        assert 70 < skipped < 140
        assert VerdictStore.scan(store).clean


class TestCorpusCLI:
    def test_bare_corpus_and_list_still_enumerate_suites(self, capsys):
        assert main(["corpus"]) == 0
        bare = capsys.readouterr().out
        assert main(["corpus", "list"]) == 0
        assert capsys.readouterr().out == bare
        assert "kernels" in bare or ":" in bare

    def test_run_rejects_a_missing_tree(self, tmp_path, capsys):
        assert main(["corpus", "run", str(tmp_path / "nope")]) == 1
        assert "not a directory" in capsys.readouterr().err

    def test_run_cold_then_warm_via_cli(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t", files=2)
        store = tmp_path / "s.rvs"
        assert main(["corpus", "run", str(tree), "--store", str(store)]) == 0
        cold = capsys.readouterr()
        assert main(["corpus", "run", str(tree), "--store", str(store)]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "skip_rate=1.00" in warm.err
        assert "skip_rate=0.00" in cold.err

    def test_run_compact_flag_reports_reclaimed_bytes(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t", files=2)
        store = tmp_path / "s.rvs"
        code = main(
            ["corpus", "run", str(tree), "--store", str(store), "--compact"]
        )
        assert code == 0
        assert "compacted" in capsys.readouterr().err

    def test_strict_cli_exits_three_without_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        tree = make_tree(tmp_path / "t", files=2)
        names = sorted(r.stem + "r0" for r in tree.rglob("*.f"))
        monkeypatch.setenv("REPRO_FAULTS", f"routine-error:{names[0]}")
        assert main(["corpus", "run", str(tree), "--strict"]) == 3
        err = capsys.readouterr().err
        assert "aborted by --strict" in err
        assert "Traceback" not in err

    def test_store_info_reports_compaction_opportunity(
        self, tmp_path, capsys
    ):
        tree = make_tree(tmp_path / "t", files=2)
        store = tmp_path / "s.rvs"
        assert main(["corpus", "run", str(tree), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "compaction opportunity" in out
        assert "report(s)" in out


class TestIncrementalPooled(Pooled, TestIncremental):
    def test_pool_prints_and_writes_what_in_process_does(
        self, tmp_path, monkeypatch
    ):
        tree = make_tree(tmp_path / "t", files=6)
        text, stats, engine = run_stream(tree, tmp_path / "pool.rvs")
        assert stats.workers == 2
        monkeypatch.setattr(stream, "usable_cpus", lambda: 1)
        serial, serial_stats, serial_engine = run_stream(
            tree, tmp_path / "serial.rvs"
        )
        assert serial_stats.workers == 0
        assert text == serial
        for name in ("files", "files_replayed", "routines", "analyzed", "skipped"):
            assert getattr(stats, name) == getattr(serial_stats, name)
        assert engine.stats.store_writes == serial_engine.stats.store_writes

        # the parent writes the workers' records in the in-process order
        def appended(store):
            _, records = _scan_segment(store)
            return [record[:2] for record in records]

        assert appended(tmp_path / "pool.rvs") == appended(tmp_path / "serial.rvs")


class TestFaultIsolationPooled(Pooled, TestFaultIsolation):
    pass


class TestKillResumePooled(Pooled, TestKillResume):
    pass


def processes_tagged(tag: bytes):
    """PIDs of live processes whose environment holds ``tag``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if tag in (entry / "environ").read_bytes():
                    found.append(int(entry.name))
            except OSError:
                pass  # gone, or not ours
    return found


#: A library caller without a ``__main__`` guard: each spawned worker
#: re-runs it on import, cannot start a pool of its own, and dies.
UNGUARDED = """
import sys
from repro.corpus import stream
stream.POOL_MIN_BYTES = 1
stream.usable_cpus = lambda: 2
from repro.cli import main
sys.exit(main(["corpus", "run", sys.argv[1]]))
"""


class TestPool:
    def test_gate_sized_trees_stay_in_process(self, tmp_path):
        tree = tmp_path / "t"
        synthesize_corpus_tree(tree, files=8, routines_per_file=3, seed=1)
        _, stats, _ = run_stream(tree)
        assert stats.workers == 0

    def test_strict_abort_crosses_the_pool_intact(
        self, tmp_path, monkeypatch, capsys
    ):
        tree = make_tree(tmp_path / "t", files=4)
        monkeypatch.setenv("REPRO_FAULTS", "pair-error:a")
        assert main(["corpus", "run", str(tree), "--strict"]) == 3
        serial = capsys.readouterr()
        force_pool(monkeypatch)
        assert main(["corpus", "run", str(tree), "--strict"]) == 3
        pooled = capsys.readouterr()
        assert "aborted by --strict: dependence test failed for" in serial.err
        assert pooled.err == serial.err
        assert pooled.out == serial.out  # up to the same routine

    @pytest.mark.skipif(
        not Path("/proc/self/environ").exists(), reason="needs /proc"
    )
    def test_workers_exit_with_a_killed_parent(self, tmp_path, monkeypatch):
        force_pool(monkeypatch)
        tree = make_tree(tmp_path / "t", files=8)
        tag = uuid.uuid4().hex
        env = dict(subprocess_env("die-file:6"), REPRO_TEST_TAG=tag)
        proc = subprocess.Popen(
            [sys.executable, *CLI, "corpus", "run", str(tree)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        seen = set()
        deadline = time.monotonic() + 120
        while proc.poll() is None and time.monotonic() < deadline:
            seen.update(processes_tagged(tag.encode()))
            time.sleep(0.01)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        assert proc.returncode == 9
        assert len(seen - {proc.pid}) >= 2  # workers and the tracker ran
        deadline = time.monotonic() + 10
        while processes_tagged(tag.encode()) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert processes_tagged(tag.encode()) == []

    def test_a_pool_that_cannot_start_finishes_in_process(self, tmp_path):
        tree = make_tree(tmp_path / "t", files=4)
        reference = run_cli(["corpus", "run", str(tree)])
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED)
        broken = subprocess.run(
            [sys.executable, str(script), str(tree)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=600,
        )
        assert broken.returncode == 0, broken.stderr
        assert broken.stdout == reference.stdout
        assert broken.stderr.count("[pool] ") == 1
        assert "BrokenProcessPool" in broken.stderr
        assert "workers=2" in broken.stderr
