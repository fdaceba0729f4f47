"""Tests for the crash-safe verdict store and kill-and-resume runs.

Covers the store layout (a directory holding one segment; an ordinary
file or a directory that is not a store is refused and left intact,
byte-for-byte), the record format (round-trip through a reopen), every
recovery rule (torn frame, CRC mismatch, undecodable record, schema
mismatch), the multi-writer protocol (concurrent opens, per-batch
locks, cross-process tail visibility that reads only new bytes, on-disk
dedup), store failures (lock starvation at open or at flush detaches
the store with one ``store`` failure record, never an assumed verdict),
exponential lock backoff, sidecar cleanup, the contamination guarantee
(assumed verdicts refused), the ``store`` CLI subcommands, and the
headline robustness property: a run killed mid-write (``store-die``
injection — an ``os._exit`` with unflushed buffers, the same torn-tail
state a SIGKILL produces) reopens cleanly and a rerun reproduces the
uninterrupted run's output byte-for-byte with verdicts served from the
store.
"""

import os
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import (
    CachedDriver,
    StoreError,
    StoreLockError,
    VerdictStore,
)
from repro.engine.store import (
    MAGIC,
    SCHEMA_VERSION,
    SEGMENT,
    _HEADER,
    _SidecarLock,
    _encode_record,
)
from repro.graph.depgraph import build_dependence_graph, iter_candidate_pairs
from repro.ir.loop import collect_access_sites
from repro.corpus.generator import random_nest

SRC_DIR = str(Path(__file__).parent.parent / "src")

KERNEL = """
      subroutine kern1(n, b, c)
      integer n, i
      real b(n), c(n)
      do 10 i = 1, n
         b(i+1) = b(i) + c(i)
   10 continue
      end
      subroutine kern2(n, a, b)
      integer n, i, j
      real a(n,n), b(n)
      do 30 j = 1, n
         do 20 i = 1, n
            a(i,j) = a(i,j-1) + b(i)
   20    continue
   30 continue
      end
"""

#: ``store-die`` point landing inside routine 2 of ``KERNEL``: routine 1's
#: per-routine checkpoint has already fsynced its verdicts, so the killed
#: run leaves durable progress behind.  The record stream is routine 1's
#: two verdicts (appends 1-2, one flush) and routine 2's two verdicts
#: (3-4, a second flush); append 3 is routine 2's first verdict.
DIE_MID_RUN = 3

#: A store directory in the layout of store format 2: a manifest,
#: key-prefix shard segments and a marker segment.  This build never
#: reads, migrates or deletes it.
SHARDED_LAYOUT = {
    "manifest": b"RVSM" + bytes(16),
    "shard-000.seg": _HEADER.pack(MAGIC, 2),
    "meta.seg": _HEADER.pack(MAGIC, 2),
}


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    return env


def run_cli(args, *, faults=None, timeout=600):
    env = subprocess_env()
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def normalize(text):
    """Mask the global statement-label counter for cross-run comparison."""
    return re.sub(r"\bS\d+\b", "S#", text)


def fill_store(path, seed=7):
    """Analyze a random nest through a store-backed driver; returns keys."""
    nodes = random_nest(seed, depth=2, statements=3, arrays=2, ndim=2, extent=8)
    with VerdictStore(path) as store:
        driver = CachedDriver(store=store)
        build_dependence_graph(nodes, tester=driver)
        keys = [
            driver.prepare(a, b)[2]
            for a, b in iter_candidate_pairs(collect_access_sites(nodes))
        ]
    return nodes, keys


def store_size(path):
    """On-disk bytes of a store's segment."""
    return VerdictStore.scan(path).size


def listing(path):
    """Every file under ``path`` with its bytes (to prove nothing moved)."""
    return {
        p.relative_to(path).as_posix(): p.read_bytes()
        for p in sorted(Path(path).rglob("*"))
        if p.is_file()
    }


def write_old_schema_store(path):
    """A store segment as the previous schema (version 2) wrote it:
    verdict records next to run and routine markers."""
    staging = path.with_name(path.name + ".donor")
    fill_store(staging)
    with VerdictStore(staging) as donor:
        verdicts = list(donor._verdicts.items())
    path.mkdir()
    records = [("v", key, entry) for key, entry in verdicts]
    records += [("r", "tok", "analyze:x.f"), ("r", "tok", "routine:kern")]
    with open(path / SEGMENT, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, 2))
        for record in records:
            handle.write(_encode_record(pickle.dumps(record, 4)))
    return path


def hold_lock(path):
    """Take a store's lock from outside, as a stalled writer would."""
    blocker = _SidecarLock(Path(path) / (SEGMENT + ".lock"))
    blocker.acquire()
    return blocker


@pytest.fixture()
def no_backoff(monkeypatch):
    """Run a starved lock's retry schedule without sleeping."""
    import repro.engine.store as store_mod

    monkeypatch.setattr(store_mod.time, "sleep", lambda seconds: None)


class TestRecordFormat:
    def test_round_trip_through_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            assert len(store) > 0
            for key in keys:
                assert store.contains(key)
                assert store.get(key) is not None
            assert store.recovered_report.clean

    def test_put_dedups_by_key(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        size = store_size(path)
        with VerdictStore(path) as store:
            for key in keys:
                entry = store.get(key)
                if entry is not None:
                    store.put(key, entry)  # duplicate: must not append
        assert store_size(path) == size

    def test_assumed_verdicts_refused(self, tmp_path):
        from repro.classify.pairs import PairContext
        from repro.core.driver import assumed_dependence_result
        from repro.engine import canonicalize_result, rename_map
        from repro.instrument import TestRecorder

        nodes = random_nest(3, depth=1, statements=1, arrays=1, ndim=1, extent=4)
        sites = collect_access_sites(nodes)
        src, sink = next(iter_candidate_pairs(sites))
        context = PairContext(src, sink, None)
        mapping = rename_map(context)
        result = assumed_dependence_result(context, "injected")
        entry = canonicalize_result(result, mapping, TestRecorder())
        with VerdictStore(tmp_path / "s.db") as store:
            with pytest.raises(StoreError, match="assumed"):
                store.put(_key(context, mapping), entry)

    def test_closed_store_raises(self, tmp_path):
        store = VerdictStore(tmp_path / "s.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.put_report("t", "l")


def _key(context, mapping):
    from repro.engine import canonical_pair_key

    return canonical_pair_key(context, mapping)


class TestLayout:
    def test_directory_holds_one_segment(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        assert sorted(p.name for p in path.iterdir()) == [SEGMENT]
        report = VerdictStore.scan(path)
        assert report.version == SCHEMA_VERSION
        assert report.verdicts > 0 and report.clean

    def test_empty_directory_is_adopted(self, tmp_path):
        path = tmp_path / "s.db"
        path.mkdir()
        fill_store(path)
        assert sorted(p.name for p in path.iterdir()) == [SEGMENT]
        assert VerdictStore.scan(path).verdicts > 0


class TestRecovery:
    def test_trailing_garbage_truncated(self, tmp_path, capsys):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        segment = path / SEGMENT
        good_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 5)
        with VerdictStore(path) as store:
            report = store.recovered_report
            assert not report.clean
            assert report.truncated_at == good_size
            for key in keys:
                assert store.contains(key)
        assert segment.stat().st_size == good_size
        assert "dropped corrupt tail" in capsys.readouterr().err

    def test_torn_half_record_truncated(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        segment = path / SEGMENT
        good_size = segment.stat().st_size
        # A plausible frame header claiming more payload than exists.
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", 10_000, 0) + b"partial")
        with VerdictStore(path) as store:
            assert store.recovered_report.truncated_at == good_size
        assert segment.stat().st_size == good_size

    def test_crc_flip_truncates_tail(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        segment = path / SEGMENT
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last record's payload
        segment.write_bytes(data)
        with VerdictStore(path) as store:
            report = store.recovered_report
            assert not report.clean
            assert any("CRC" in p or "torn" in p for p in report.problems)
        # The surviving prefix must now be fully clean.
        assert VerdictStore.scan(path).clean

    def test_schema_mismatch_rebuilds_shard_empty(self, tmp_path, capsys):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        segment = path / SEGMENT
        data = bytearray(segment.read_bytes())
        data[: _HEADER.size] = _HEADER.pack(MAGIC, SCHEMA_VERSION + 1)
        segment.write_bytes(data)
        with VerdictStore(path) as store:
            assert len(store) == 0
            assert store.report_count == 0
            assert store.recovered_report.rebuilt
        assert "rebuilt empty" in capsys.readouterr().err
        assert VerdictStore.scan(path).clean

    def test_previous_schema_rebuilds_empty_and_stays_usable(
        self, tmp_path, capsys
    ):
        """A segment of the previous schema, which held run and routine
        markers, opens rebuilt empty through the schema rule; the store
        then takes fresh writes and verifies clean."""
        path = write_old_schema_store(tmp_path / "old.db")
        with VerdictStore(path) as store:
            assert len(store) == 0
            assert store.recovered_report.rebuilt
        err = capsys.readouterr().err
        assert err.count("schema version 2") == 1
        assert err.count("rebuilt empty") == 1
        fill_store(path)
        report = VerdictStore.scan(path)
        assert report.clean
        assert report.verdicts > 0

    @pytest.mark.parametrize(
        "body",
        [b"not a store at all", _HEADER.pack(MAGIC, 1)],
        ids=["notes", "single-file-segment"],
    )
    def test_existing_file_is_refused_and_kept(self, tmp_path, body):
        """An ordinary file at the store path, even one that starts like
        a segment, is refused and never deleted or replaced."""
        path = tmp_path / "s.db"
        path.write_bytes(body)
        with pytest.raises(StoreError, match="not a store directory"):
            VerdictStore(path)
        assert path.read_bytes() == body
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.db"]
        report = VerdictStore.scan(path)
        assert not report.clean
        assert "not a store directory" in report.problems[0]

    def test_recovered_store_still_writable(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        with open(path / SEGMENT, "ab") as handle:
            handle.write(b"junk")
        with VerdictStore(path) as store:
            store.put_report("t", "after-recovery")
        with VerdictStore(path) as store:
            assert store.get_report("t") == "after-recovery"

    def test_compact_drops_dead_weight(self, tmp_path):
        """An undecodable record (sound framing, bad payload) is dropped
        on read and counted dead; compaction reclaims its bytes."""
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with open(path / SEGMENT, "ab") as handle:
            handle.write(_encode_record(b"not a pickle" * 20))
        assert VerdictStore.scan(path).dead_bytes > 0
        with VerdictStore(path) as store:
            count = len(store)
            before, after = store.compact()
            assert after < before
        report = VerdictStore.scan(path)
        assert report.clean and report.dead_bytes == 0
        assert report.verdicts == count

    def test_compact_preserves_verdicts(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            count = len(store)
            store.compact()
        with VerdictStore(path) as store:
            assert len(store) == count
            for key in keys:
                assert store.contains(key)
        assert VerdictStore.scan(path).clean


class TestMultiWriter:
    """Concurrent writers on one store, no lifetime lock."""

    def test_second_opener_allowed(self, tmp_path):
        path = tmp_path / "s.db"
        with VerdictStore(path) as first:
            with VerdictStore(path) as second:
                first.put_report("a", "one")
                second.put_report("b", "two")
        with VerdictStore(path) as store:
            assert store.get_report("a") == "one"
            assert store.get_report("b") == "two"

    def test_tail_fold_makes_concurrent_writes_visible(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(tmp_path / "donor.db")
        with VerdictStore(tmp_path / "donor.db") as donor:
            items = list(donor._verdicts.items())
        assert items
        a = VerdictStore(path)
        b = VerdictStore(path)
        try:
            key, entry = items[0]
            a.put(key, entry)
            assert b.get(key) is None  # not flushed yet: invisible
            a.checkpoint()
            got = b.get(key)  # tail poll folds the flushed record
            assert got is not None
            assert b.foreign(key)
            assert not a.foreign(key)
        finally:
            a.close()
            b.close()

    def test_tail_poll_reads_only_new_bytes(self, tmp_path, monkeypatch):
        """A poll parses just what another writer appended since the last
        look; only a segment replaced by a compaction is re-read whole."""
        import repro.engine.store as store_mod

        path = tmp_path / "s.db"
        fill_store(path)
        parsed = []
        parse = store_mod._parse_records

        def spy(data, offset, report, sink):
            parsed.append(len(data) - offset)
            return parse(data, offset, report, sink)

        monkeypatch.setattr(store_mod, "_parse_records", spy)
        writer = VerdictStore(path)
        reader = VerdictStore(path)
        try:
            size = writer.size()
            writer.put_report("t1", "first")
            writer.checkpoint()
            appended = writer.size() - size
            parsed.clear()
            assert reader.get_report("t1") == "first"
            assert parsed == [appended]
            writer.compact()
            writer.put_report("t2", "second")
            writer.checkpoint()
            size = writer.size()
            parsed.clear()
            assert reader.get_report("t2") == "second"
            assert parsed == [size - _HEADER.size]
            assert reader.get_report("t1") == "first"
        finally:
            writer.close()
            reader.close()

    def test_concurrent_same_key_deduped_on_disk(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(tmp_path / "donor.db")
        with VerdictStore(tmp_path / "donor.db") as donor:
            items = list(donor._verdicts.items())[:3]
        a = VerdictStore(path)
        b = VerdictStore(path)
        try:
            for key, entry in items:
                a.put(key, entry)
                b.put(key, entry)
            a.checkpoint()
            b.checkpoint()  # must skip records a already landed
        finally:
            a.close()
            b.close()
        report = VerdictStore.scan(path)
        assert report.clean
        assert report.verdicts == len(items)

    def test_foreign_hits_counted_in_provenance(self, tmp_path):
        path = tmp_path / "s.db"
        nodes = random_nest(7, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        writer = VerdictStore(path)
        reader = VerdictStore(path)  # opens BEFORE the writer lands records
        try:
            writer_driver = CachedDriver(store=writer)
            build_dependence_graph(nodes, tester=writer_driver)
            writer.checkpoint()
            reader_driver = CachedDriver(store=reader)
            build_dependence_graph(nodes, tester=reader_driver)
            stats = reader_driver.stats
            assert stats.misses == 0
            assert stats.store_hits > 0
            assert stats.store_foreign_hits > 0
            assert "cross-process" in stats.provenance_report()
        finally:
            writer.close()
            reader.close()

    def test_foreign_hits_absent_without_concurrency(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            assert driver.stats.store_hits > 0
            assert driver.stats.store_foreign_hits == 0
            assert "cross-process" not in driver.stats.provenance_report()


class TestLocking:
    def test_lock_released_on_close(self, tmp_path):
        path = tmp_path / "s.db"
        VerdictStore(path).close()
        VerdictStore(path).close()

    def test_sidecar_cleanup_on_close(self, tmp_path):
        path = tmp_path / "s.db"
        with VerdictStore(path) as store:
            store.put_report("t", "l")
        assert list(path.glob("*.lock")) == []

    def test_lock_survives_holder_death(self, tmp_path):
        """flock dies with its holder: a SIGKILLed writer never wedges."""
        path = tmp_path / "s.db"
        script = (
            "import os, sys; sys.path.insert(0, sys.argv[2]); "
            "from repro.engine import VerdictStore; "
            "s = VerdictStore(sys.argv[1]); s.put_report('t', 'l'); "
            "s._lock.acquire(); os._exit(9)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(path), SRC_DIR],
            capture_output=True,
            timeout=600,
        )
        assert result.returncode == 9
        with VerdictStore(path) as store:  # stale locks must not block
            assert store.failure is None
            store.put_report("t2", "after")
        assert list(path.glob("*.lock")) == []  # dead sidecars tidied

    def test_backoff_is_exponential_with_jitter(self, tmp_path, monkeypatch):
        import repro.engine.store as store_mod

        sleeps = []
        monkeypatch.setattr(store_mod.time, "sleep", sleeps.append)
        lock_path = tmp_path / "seg.lock"
        holder = _SidecarLock(lock_path)
        holder.acquire()
        try:
            with pytest.raises(StoreLockError, match="held by"):
                _SidecarLock(lock_path).acquire(
                    retries=6, backoff=0.01, cap=0.1
                )
        finally:
            holder.release(unlink=True)
        assert len(sleeps) == 5  # no sleep after the final attempt
        for i, slept in enumerate(sleeps):
            base = min(0.01 * (2 ** i), 0.1)
            assert base * 0.5 <= slept < base * 1.5  # jitter window

    def test_lock_starvation_at_flush_fails_the_store(
        self, tmp_path, no_backoff
    ):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(tmp_path / "donor.db")
        with VerdictStore(tmp_path / "donor.db") as donor:
            key, entry = next(iter(donor._verdicts.items()))
        store = VerdictStore(path)
        try:
            blocker = hold_lock(path)
            try:
                store.put(key, entry)
                with pytest.raises(StoreLockError):
                    store.checkpoint()
            finally:
                blocker.release(unlink=True)
            assert isinstance(store.failure, StoreLockError)
            with pytest.raises(StoreError, match="unusable"):
                store.put_report("t", "after")
            with pytest.raises(StoreError, match="unusable"):
                store.checkpoint()
            # The key still serves from memory.
            assert store.get(key) is entry
        finally:
            store.close()  # a failed store closes without raising
        # Nothing corrupt was left on disk, and nothing was written.
        report = VerdictStore.scan(path)
        assert report.clean and report.records == 0

    def test_lock_starvation_at_open_detaches_the_store(
        self, tmp_path, no_backoff, capsys
    ):
        path = tmp_path / "s.db"
        VerdictStore(path).close()
        nodes = random_nest(5, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        kernel = tmp_path / "kern.f"
        kernel.write_text(KERNEL)
        blocker = hold_lock(path)
        try:
            store = VerdictStore(path)
            assert isinstance(store.failure, StoreLockError)
            assert not store.recovered_report.clean
            driver = CachedDriver(store=store)
            graph = build_dependence_graph(nodes, tester=driver)
            store.close()
            assert main(["analyze", str(kernel), "--store", str(path)]) == 0
        finally:
            blocker.release(unlink=True)
        assert graph is not None
        assert driver.persist is None
        assert [r.kind for r in driver.stats.failures] == ["store"]
        assert driver.stats.assumed == 0
        out = capsys.readouterr().out
        assert "fault report: 1 failure(s), 0 pair verdict(s) assumed" in out
        assert out.count("[store]") == 1
        assert VerdictStore.scan(path).records == 0

    def test_store_failure_detaches_with_one_record(
        self, tmp_path, no_backoff
    ):
        path = tmp_path / "s.db"
        nodes = random_nest(5, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        store = VerdictStore(path)
        try:
            blocker = hold_lock(path)
            try:
                driver = CachedDriver(store=store)
                graph = build_dependence_graph(nodes, tester=driver)
                driver.flush()
                driver.flush()  # detached: nothing more to fail
            finally:
                blocker.release(unlink=True)
            assert graph is not None
            assert driver.persist is None  # memory-only from here on
            assert [r.kind for r in driver.stats.failures] == ["store"]
            assert driver.stats.assumed == 0  # never an assumed verdict
        finally:
            store.close()


class TestCloseDrainsFinalEvents:
    """Failures *during* the final checkpoint must not vanish.

    ``CachedDriver.close`` (and ``DependenceEngine.close`` above it) runs
    the final checkpoint through the driver's guarded flush, so the fault
    report covers the whole run including its last write.
    """

    def test_lock_starvation_in_final_checkpoint_is_reported(
        self, tmp_path, no_backoff
    ):
        path = tmp_path / "s.db"
        nodes = random_nest(5, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        # A huge interval keeps every put buffered until the close-time
        # flush — the only checkpoint is the one close() itself runs.
        store = VerdictStore(path, checkpoint_interval=10**6)
        try:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            assert not driver.stats.failures  # clean so far
            blocker = hold_lock(path)
            try:
                driver.close()
            finally:
                blocker.release(unlink=True)
            assert [r.kind for r in driver.stats.failures] == ["store"]
            assert driver.stats.assumed == 0
            assert driver.persist is None
        finally:
            store.close()

    def test_failed_final_checkpoint_degrades_with_record(self, tmp_path, monkeypatch):
        store = VerdictStore(tmp_path / "s.db")
        driver = CachedDriver(store=store)

        def boom():
            raise OSError("disk gone")

        monkeypatch.setattr(store, "checkpoint", boom)
        driver.close()
        assert driver.persist is None  # whole-store failure: detached
        kinds = {record.kind for record in driver.stats.failures}
        assert kinds == {"store"}
        assert "disk gone" in driver.stats.failures[0].error
        monkeypatch.undo()
        store.close()

    def test_engine_close_surfaces_final_events(self, tmp_path, monkeypatch):
        from repro.engine import DependenceEngine

        store = VerdictStore(tmp_path / "s.db")
        engine = DependenceEngine(store=store)
        monkeypatch.setattr(
            store, "checkpoint",
            lambda: (_ for _ in ()).throw(OSError("flush failed")),
        )
        engine.close()
        assert {r.kind for r in engine.stats.failures} == {"store"}
        monkeypatch.undo()
        store.close()


class TestProvenance:
    """Cache-tier provenance: memory hit / store hit / miss / assumed."""

    def test_store_hits_counted_separately(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            stats = driver.stats
            assert stats.misses == 0
            assert stats.store_hits > 0
            assert stats.hit_rate == 1.0  # store hits count as hits
            report = stats.provenance_report()
            assert "0 memory hit(s)" in report
            assert f"{stats.store_hits} store hit(s)" in report
            assert "0 tested" in report
            # Promotion: a second pass over the same body hits memory.
            stats.reset()
            build_dependence_graph(nodes, tester=driver)
            assert stats.store_hits == 0
            assert stats.hits > 0

    def test_store_write_failure_degrades_to_memory(self, tmp_path):
        nodes = random_nest(11, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        store = VerdictStore(tmp_path / "s.db")
        driver = CachedDriver(store=store)
        store.close()  # every write now raises StoreError
        graph = build_dependence_graph(nodes, tester=driver)
        assert graph is not None  # analysis survived
        assert driver.persist is None  # degraded to memory-only
        kinds = {record.kind for record in driver.stats.failures}
        assert kinds == {"store"}
        report = driver.stats.failure_report()
        assert "store" in report
        assert "verdict provenance" in report

    def test_stats_merge_and_str_include_store(self):
        from repro.engine import EngineStats

        a = EngineStats(hits=1, store_hits=2, store_writes=3, misses=4)
        b = EngineStats(store_hits=5, store_writes=1, store_foreign_hits=2)
        a.merge(b)
        assert a.store_hits == 7 and a.store_writes == 4
        assert a.store_foreign_hits == 2
        assert a.lookups == 12
        assert "store: 7 hits, 4 writes" in str(a)
        assert a.as_dict()["store_hits"] == 7
        assert a.as_dict()["store_foreign_hits"] == 2
        a.reset()
        assert a.store_hits == a.store_writes == 0
        assert a.store_foreign_hits == 0
        assert "store:" not in str(a)


class TestStoreCli:
    @pytest.fixture()
    def kernel_file(self, tmp_path):
        path = tmp_path / "kern.f"
        path.write_text(KERNEL)
        return path

    def test_analyze_store_then_resume_hits(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        assert main(["analyze", str(kernel_file), "--store", str(db), "--counts"]) == 0
        first = capsys.readouterr().out
        assert re.search(r"store: 0 hits, [1-9]\d* writes", first)
        assert main(["analyze", str(kernel_file), "--store", str(db), "--counts"]) == 0
        second = capsys.readouterr().out
        assert re.search(r"store: [1-9]\d* hits, 0 writes", second)
        assert "0 misses" in second

    def test_store_rejects_no_cache(self, kernel_file, tmp_path, capsys):
        code = main(
            ["analyze", str(kernel_file), "--no-cache", "--store", str(tmp_path / "s.db")]
        )
        assert code == 4
        assert "--no-cache" in capsys.readouterr().err

    def test_info_and_verify_clean(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        main(["analyze", str(kernel_file), "--store", str(db)])
        capsys.readouterr()
        assert main(["store", "info", str(db)]) == 0
        out = capsys.readouterr().out
        assert "4 verdict(s), 0 report(s)" in out
        assert "last checkpoint" in out
        assert "compaction opportunity" in out
        assert main(["store", "verify", str(db)]) == 0
        verify_out = capsys.readouterr().out
        assert "clean" in verify_out
        assert "recovery drops:" in verify_out  # per-rule counts
        assert "crc-mismatch 0" in verify_out

    def test_verify_reports_corruption(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        main(["analyze", str(kernel_file), "--store", str(db)])
        with open(db / SEGMENT, "ab") as handle:
            handle.write(b"\x55" * 13)
        capsys.readouterr()
        assert main(["store", "verify", str(db)]) == 4
        assert "PROBLEM" in capsys.readouterr().out

    def test_verify_missing_file(self, tmp_path, capsys):
        assert main(["store", "verify", str(tmp_path / "absent.db")]) == 4
        assert "cannot read" in capsys.readouterr().out

    def test_compact(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        main(["analyze", str(kernel_file), "--store", str(db)])
        main(["analyze", str(kernel_file), "--store", str(db)])
        capsys.readouterr()
        assert main(["store", "compact", str(db)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["store", "verify", str(db)]) == 0

    def test_concurrently_open_store_analyzes_fine(
        self, kernel_file, tmp_path, capsys
    ):
        """A store held open by another process is simply shared."""
        db = tmp_path / "s.db"
        with VerdictStore(db) as other:
            code = main(["analyze", str(kernel_file), "--store", str(db)])
        assert code == 0
        assert VerdictStore.scan(db).verdicts > 0

    def test_source_file_as_store_is_refused(self, kernel_file, capsys):
        """``analyze F --store F`` must not delete the file it just read."""
        before = kernel_file.read_bytes()
        code = main(["analyze", str(kernel_file), "--store", str(kernel_file)])
        assert code == 4
        assert "not a store directory" in capsys.readouterr().err
        assert kernel_file.read_bytes() == before

    def test_ordinary_file_as_store_is_refused_everywhere(
        self, kernel_file, tmp_path, capsys
    ):
        notes = tmp_path / "notes.txt"
        notes.write_text("keep me\n")
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "kern.f").write_text(KERNEL)
        for argv in (
            ["analyze", str(kernel_file)],
            ["study", "--table", "3", "--suite", "linpack"],
            ["corpus", "run", str(tree)],
            ["serve", "--port", "0"],
        ):
            assert main([*argv, "--store", str(notes)]) == 4, argv
            assert "not a store directory" in capsys.readouterr().err
            assert notes.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "kern.f", "notes.txt", "tree",
        ]

    def test_non_store_directory_is_refused(self, kernel_file, tmp_path, capsys):
        """``--store`` on a source directory or on the older sharded
        layout exits 4 and leaves every file as it was; ``store info``
        and ``store verify`` say why."""
        source = kernel_file.parent
        sharded = tmp_path / "old.db"
        sharded.mkdir()
        for name, body in SHARDED_LAYOUT.items():
            (sharded / name).write_bytes(body)
        for path in (source, sharded):
            before = listing(path)
            assert main(["analyze", str(kernel_file), "--store", str(path)]) == 4
            assert "not a store directory" in capsys.readouterr().err
            for command in ("info", "verify"):
                assert main(["store", command, str(path)]) == 4
                out = capsys.readouterr()
                assert "not a store directory" in out.out + out.err
            assert listing(path) == before

    def test_study_store_round_trip(self, tmp_path, capsys):
        db = tmp_path / "study.db"
        args = ["study", "--table", "3", "--suite", "linpack", "--store", str(db)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert second == first
        report = VerdictStore.scan(db)
        assert report.clean
        assert report.verdicts > 0


class TestFaultInjection:
    """The store faults: lock-hold, corrupt-store."""

    def test_lock_hold_parses_and_sleeps(self, monkeypatch):
        from repro.engine import faultinject

        plan = faultinject.parse_spec("lock-hold:0.5")
        assert plan.lock_hold == 0.5
        sleeps = []
        monkeypatch.setenv(faultinject.ENV_VAR, "lock-hold:2.0")
        monkeypatch.setattr(faultinject.time, "sleep", sleeps.append)
        faultinject.on_lock_held()
        assert sleeps == [2.0]

    def test_corrupt_store_injects_torn_tail(self, tmp_path, monkeypatch):
        from repro.engine import faultinject

        path = tmp_path / "s.db"
        fill_store(path)
        monkeypatch.setenv(faultinject.ENV_VAR, "corrupt-store")
        faultinject._PLANS.clear()
        faultinject._CORRUPTED.clear()
        with VerdictStore(path) as store:
            # The injected torn tail was repaired under lock on open.
            report = store.recovered_report
            assert any("torn" in p or "corrupt" in p.lower()
                       for p in report.problems)
        monkeypatch.delenv(faultinject.ENV_VAR)
        assert VerdictStore.scan(path).clean

    def test_corrupted_store_never_yields_spurious_independence(
        self, tmp_path, monkeypatch
    ):
        """The conservative invariant under injected corruption: dropped
        records are retested, never guessed."""
        from repro.engine import faultinject

        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            truth = {
                key: store.get(key).independent
                for key in keys if store.get(key) is not None
            }
        monkeypatch.setenv(faultinject.ENV_VAR, "corrupt-store")
        faultinject._PLANS.clear()
        faultinject._CORRUPTED.clear()
        with VerdictStore(path) as store:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            assert driver.stats.assumed == 0
            for key, independent in truth.items():
                entry = store.get(key)
                if entry is not None:
                    assert entry.independent == independent


class TestKillAndResume:
    """The headline property: SIGKILL mid-write, rerun, byte-identical."""

    @pytest.fixture()
    def kernel_file(self, tmp_path):
        path = tmp_path / "kern.f"
        path.write_text(KERNEL)
        return path

    def test_store_die_then_resume_byte_identical(self, kernel_file, tmp_path):
        db = tmp_path / "s.db"
        fresh = run_cli(["analyze", str(kernel_file), "--counts"])
        assert fresh.returncode == 0

        killed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db)],
            faults=f"store-die:{DIE_MID_RUN}",
        )
        assert killed.returncode == 9  # died uncleanly mid-append
        # The first routine's checkpoint made its verdicts durable.
        assert VerdictStore.scan(db).verdicts > 0

        resumed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db), "--counts"]
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        # The dependence output must match an uninterrupted run exactly.
        body = resumed.stdout.split("test applications:")[0]
        fresh_body = fresh.stdout.split("test applications:")[0]
        assert normalize(body) == normalize(fresh_body)
        # And at least one verdict must have come from the killed run.
        assert re.search(r"store: [1-9]\d* hits", resumed.stdout), resumed.stdout

    def test_killed_run_store_verifies_after_reopen(self, kernel_file, tmp_path):
        db = tmp_path / "s.db"
        # Append 2 is routine 1's second verdict, inside its flush (see
        # DIE_MID_RUN).
        killed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db)],
            faults="store-die:2",
        )
        assert killed.returncode == 9
        # First reopen repairs whatever tail the kill left behind...
        with VerdictStore(db) as store:
            assert store.recovered_report is not None
        # ...after which the store verifies clean.
        assert run_cli(["store", "verify", str(db)]).returncode == 0

    def test_two_concurrent_writers_complete(self, kernel_file, tmp_path):
        """Two simultaneous analyze processes creating and sharing one
        store both succeed, and the store stays structurally clean."""
        db = tmp_path / "s.db"
        env = subprocess_env()
        env["REPRO_FAULTS"] = "lock-hold:0.05"  # widen contention windows
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "analyze",
                    str(kernel_file), "--store", str(db), "--counts",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=600) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err[-2000:]
            assert "Traceback" not in err
        report = VerdictStore.scan(db)
        assert report.clean
        assert report.verdicts > 0

    def test_two_writers_killed_then_resume_byte_identical(
        self, kernel_file, tmp_path
    ):
        """Both concurrent writers die mid-append; a rerun is
        byte-identical and serves the survivors' verdicts."""
        db = tmp_path / "s.db"
        fresh = run_cli(["analyze", str(kernel_file), "--counts"])
        assert fresh.returncode == 0
        env = subprocess_env()
        env["REPRO_FAULTS"] = f"store-die:{DIE_MID_RUN}"
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "analyze",
                    str(kernel_file), "--store", str(db),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        for p in procs:
            p.communicate(timeout=600)
        # Concurrent writers dedup each other's records on flush, so the
        # slower writer appends fewer records and its kill point may
        # never fire — but at least one writer must have died mid-write.
        codes = {p.returncode for p in procs}
        assert codes <= {0, 9} and 9 in codes, codes
        resumed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db), "--counts"]
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        body = resumed.stdout.split("test applications:")[0]
        fresh_body = fresh.stdout.split("test applications:")[0]
        assert normalize(body) == normalize(fresh_body)
        assert re.search(r"store: [1-9]\d* hits", resumed.stdout)
        assert run_cli(["store", "verify", str(db)]).returncode == 0
