"""Crash-safe persistent verdict store: one append-only segment.

The canonical pair key makes a driver verdict a pure function of
structure (see :mod:`repro.engine.canonical`), which is exactly what
makes verdicts safe to persist across processes and runs, and safe to
share between *concurrent* writers: two processes that compute the same
canonical key compute the same entry, so record interleaving can
duplicate work but never corrupt truth.

**Store layout.**  A store is a *directory* holding one segment,
``store.seg``, and while a process writes, its ``store.seg.lock``
sidecar.  The segment is an 8-byte header (magic ``RVS1`` +
little-endian ``u32`` schema version) followed by records of ``[u32
length][u32 crc32][pickled payload]``.  A segment with another schema
version opens rebuilt empty.  Opening a path that is neither absent, an
empty directory, nor a directory holding the segment raises
:class:`StoreError` and leaves the path untouched: a store is a cache,
and opening one must never adopt, delete or rewrite someone else's
files.

**Multi-writer protocol.**  No lock is held for the process lifetime.
Appends are buffered in memory; a :meth:`~VerdictStore.checkpoint` (or
the automatic one every :data:`CHECKPOINT_INTERVAL` buffered records)
takes the sidecar lock *per append batch*:

1. acquire the lock with capped exponential backoff + jitter;
2. read the segment's tail past the last parsed offset, folding
   records a concurrent writer landed since our last look (these
   become visible to reads and count as *cross-process* provenance);
3. drop buffered records another writer already persisted, append the
   rest, ``flush`` + ``fsync``, release.

Readers never lock: a lookup miss polls the segment (one ``stat``; new
bytes are read from the last parsed offset and parsed up to the last
fully valid record), so verdicts written by a concurrent process become
visible mid-run.  Only a segment whose inode changed (a compaction
replaced it) or that shrank is re-read from its header.  A torn tail
seen without the lock is simply not advanced past (it may be an
in-flight append), while a torn tail seen *under* the lock belongs to a
crashed writer and is truncated.

**Failures.**  A lock that stays held through the retry schedule or an
I/O error (``ENOSPC``, an unwritable segment) leaves the store *failed*
(:attr:`VerdictStore.failure`): its buffered records are dropped and
every later write or checkpoint raises :class:`StoreError`.  The
caching driver answers the first such error by detaching the store with
one ``"store"`` :class:`~repro.engine.faults.FailureRecord` and running
memory-only; the analysis service reopens the store from its path on the
first request ``STORE_REOPEN_SECONDS`` after the detach.  A failure is
never a traceback and never an assumed independence.

Assumed (degraded) verdicts are never written: persistence must not
extend the contamination guarantee across runs; a faulted pair gets a
fresh test next process, not a stale assumption.

**Report documents and compaction groups.**  Two record kinds beyond
verdicts (``v``) serve the corpus streaming driver
(:mod:`repro.corpus.stream`):

* ``d`` is a *report document*: an opaque payload keyed by a content
  token (see :func:`~repro.corpus.stream.run_token`).  The corpus
  driver stores each routine's rendered report under its content hash;
  the record's presence is the routine-completion marker and its
  payload replays the output byte-identically.  Like verdicts, reports
  for degraded (assumed) analyses are never persisted.
* ``g`` is a *compaction group*: several record payloads pickled as
  one list and deflated as one frame.  :meth:`VerdictStore.compact`
  groups report payloads this way; :func:`_parse_records` expands
  groups transparently, so folds, polls, scans, and verifies all see
  the member records as if they were written plain.
"""

from __future__ import annotations

import io
import os
import pickle
import random
import struct
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.engine import faultinject
from repro.engine.canonical import CacheEntry, CanonicalKey

try:  # POSIX only; on platforms without fcntl the store runs unlocked.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Segment magic: "Repro Verdict Store", record-format generation 1.
MAGIC = b"RVS1"

#: Schema version of the pickled payloads.  Bump whenever CacheEntry,
#: the record kinds, or the canonical-key layout changes shape; an
#: on-disk mismatch rebuilds the segment instead of deserializing stale
#: data.  Version 4 is the one-segment store whose compaction groups
#: are plain zlib'd payload lists.
SCHEMA_VERSION = 4

#: The segment's file name inside a store directory.
SEGMENT = "store.seg"

_HEADER = struct.Struct("<4sI")
_FRAME = struct.Struct("<II")

#: Buffered records between automatic fsync'd checkpoints.  Records lost
#: in a crash are bounded by this window (minus explicit checkpoints,
#: which flush eagerly).
CHECKPOINT_INTERVAL = 64

#: A single record larger than this is treated as framing corruption:
#: real records are a few KB, so a length field this big is garbage.
MAX_RECORD_SIZE = 64 * 1024 * 1024

#: Lock-acquisition schedule: attempts, base delay, and delay cap
#: (seconds).  Backoff doubles per attempt and each sleep is jittered by
#: a factor in [0.5, 1.5) so N writers contending on one store don't
#: retry in lockstep.
LOCK_RETRIES = 8
LOCK_BACKOFF = 0.01
LOCK_BACKOFF_CAP = 0.5

#: Members per compaction group.  Bounds the decode cost of one frame
#: (a torn group loses at most this many records) while still letting
#: deflate amortize across many payloads.
GROUP_SIZE = 64

#: zlib level for compaction groups: 6 is the speed/size knee.
GROUP_ZLIB_LEVEL = 6


class StoreError(Exception):
    """Base class for verdict-store failures."""


class StoreLockError(StoreError):
    """The store lock stayed contended through the whole retry schedule."""


#: Recovery-rule names used in :attr:`StoreReport.rule_drops`.
RECOVERY_RULES = (
    "torn-frame",
    "torn-record",
    "crc-mismatch",
    "undecodable",
    "unknown-kind",
)


@dataclass
class StoreReport:
    """What a scan of a store's segment found.

    ``problems`` holds one human-readable line per defect;
    ``truncated_at`` is the byte offset a repairing open would cut the
    segment back to (None when the tail is clean); ``rebuilt`` marks a
    magic/schema mismatch (the segment is discarded on open);
    ``rule_drops`` counts records each recovery rule discarded;
    ``dead_bytes`` counts bytes compaction would reclaim (superseded
    duplicates, dropped records, torn tails).
    """

    path: Path
    size: int = 0
    version: Optional[int] = None
    verdicts: int = 0
    reports: int = 0
    records: int = 0
    dropped: int = 0
    dead_bytes: int = 0
    mtime: Optional[float] = None
    truncated_at: Optional[int] = None
    rebuilt: bool = False
    problems: List[str] = field(default_factory=list)
    rule_drops: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every byte of the segment parsed as a valid record."""
        return not self.problems

    def drop_record(self, rule: str, nbytes: int = 0) -> None:
        self.rule_drops[rule] = self.rule_drops.get(rule, 0) + 1
        self.dead_bytes += nbytes

    def counts_line(self) -> str:
        return (
            f"  {self.verdicts} verdict(s), {self.reports} report(s) "
            f"in {self.records} record(s)"
        )

    def compaction_line(self) -> str:
        """Dead/duplicate bytes compaction would reclaim (``store info``)."""
        if self.size <= 0:
            return "  compaction opportunity: none (store is empty)"
        pct = 100.0 * self.dead_bytes / self.size
        return (
            f"  compaction opportunity: {self.dead_bytes} dead byte(s) "
            f"of {self.size} ({pct:.1f}%)"
        )

    def rule_report(self) -> str:
        """One line per recovery rule with its drop count (verify mode)."""
        parts = [
            f"{rule} {self.rule_drops.get(rule, 0)}" for rule in RECOVERY_RULES
        ]
        return "  recovery drops: " + ", ".join(parts)

    def lines(self) -> List[str]:
        """Line-item report (header, counts, problems)."""
        when = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.mtime))
            if self.mtime is not None
            else "never"
        )
        out = [
            f"store {self.path}: {self.size} bytes, last checkpoint {when}",
            self.counts_line(),
        ]
        for problem in self.problems:
            out.append(f"  PROBLEM: {problem}")
        if self.clean:
            out.append("  clean: no corruption found")
        return out


# ---------------------------------------------------------------------------
# Low-level segment I/O
# ---------------------------------------------------------------------------


def _write_header(handle) -> None:
    handle.write(_HEADER.pack(MAGIC, SCHEMA_VERSION))


def _encode_record(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _atomic_create(path: Path, body: bytes = b"") -> None:
    """Write header + body to a temp file, fsync, rename over ``path``."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as tmp:
            _write_header(tmp)
            if body:
                tmp.write(body)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


def _exclusive_create(path: Path) -> None:
    """Create an empty segment (header only) iff ``path`` is absent.

    The header is written and fsynced to a temp file first and *linked*
    into place, so the segment either does not exist or exists with a
    complete header — a racing opener can never observe a half-written
    header, and the loser of the race adopts the winner's (identical)
    file, preserving any records the winner appended in between.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as tmp:
            _write_header(tmp)
            tmp.flush()
            os.fsync(tmp.fileno())
        try:
            os.link(tmp_name, str(path))
        except FileExistsError:
            return
        _fsync_dir(path.parent)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - temp already gone
            pass


def _fsync_dir(directory: Path) -> None:
    """Make a rename durable (best-effort on filesystems without dir fds)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic fs
        pass
    finally:
        os.close(fd)


def _is_store_dir(path: Path) -> bool:
    """True for a directory a store may open: empty, holding the segment,
    or holding only the segment's own lock and temp files (a concurrent
    creator's, for the moment before its segment is linked in)."""
    names = os.listdir(path)
    return SEGMENT in names or all(
        name.startswith(SEGMENT + ".") for name in names
    )


# -- compaction groups -------------------------------------------------------


def _encode_group(payloads: List[bytes]) -> bytes:
    """Pickle several record payloads as one ``("g", blob)`` record,
    the blob being the deflated pickle of the payload list."""
    blob = zlib.compress(pickle.dumps(payloads, protocol=4), GROUP_ZLIB_LEVEL)
    return pickle.dumps(("g", blob), protocol=4)


def _decode_group(record: Tuple) -> List[bytes]:
    return pickle.loads(zlib.decompress(record[1]))


def _parse_records(data: bytes, offset: int, report: StoreReport, sink) -> int:
    """Walk ``data`` from ``offset``, decoding records into ``sink``.

    ``sink(record, start, end)`` is called once per decodable record.
    ``report`` accumulates counts, recovery-rule drops, and problems;
    the return value is the end offset of the last fully valid record —
    the safe truncation/resume point.
    """
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            report.truncated_at = offset
            report.drop_record("torn-frame", len(data) - offset)
            report.problems.append(
                f"torn record frame at byte {offset} "
                f"({len(data) - offset} trailing byte(s))"
            )
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if length > MAX_RECORD_SIZE or end > len(data):
            report.truncated_at = offset
            report.drop_record("torn-record", len(data) - offset)
            report.problems.append(
                f"torn record at byte {offset} "
                f"(claims {length} payload byte(s))"
            )
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            report.truncated_at = offset
            report.drop_record("crc-mismatch", len(data) - offset)
            report.problems.append(f"CRC mismatch at byte {offset}")
            break
        report.records += 1
        try:
            record = pickle.loads(payload)
            kind = record[0]
        except Exception as exc:
            # Framing and CRC are sound, so the stream resyncs at the
            # next record: drop just this one.
            report.dropped += 1
            report.drop_record("undecodable", end - offset)
            report.problems.append(
                f"undecodable record at byte {offset} dropped "
                f"({type(exc).__name__})"
            )
            offset = end
            continue
        if kind == "g":
            # A compaction group: expand members and hand each to the
            # sink as if it had been written plain.  An unreadable blob
            # loses only this frame (framing already resynced above).
            try:
                members = [pickle.loads(m) for m in _decode_group(record)]
            except Exception as exc:
                report.dropped += 1
                report.drop_record("undecodable", end - offset)
                report.problems.append(
                    f"undecodable compaction group at byte {offset} "
                    f"dropped ({type(exc).__name__})"
                )
                offset = end
                continue
            # The frame already counted once; members are the logical
            # records it carries.
            report.records += max(len(members) - 1, 0)
            for member in members:
                if _count_record(member, report, offset):
                    sink(member, offset, end)
                else:
                    report.dropped += 1
                    report.drop_record("unknown-kind")
                    report.problems.append(
                        f"unknown record kind {member[0]!r} in group at "
                        f"byte {offset} dropped"
                    )
            offset = end
            continue
        if not _count_record(record, report, offset):
            report.dropped += 1
            report.drop_record("unknown-kind", end - offset)
            report.problems.append(
                f"unknown record kind {kind!r} at byte {offset} dropped"
            )
            offset = end
            continue
        sink(record, offset, end)
        offset = end
    return report.truncated_at if report.truncated_at is not None else offset


def _count_record(record: Tuple, report: StoreReport, offset: int) -> bool:
    """Bump the per-kind counter; False for an unknown kind."""
    kind = record[0]
    if kind == "v":
        report.verdicts += 1
    elif kind == "d":
        report.reports += 1
    else:
        return False
    return True


def _scan_segment(store_dir: Path) -> Tuple[StoreReport, List[Tuple]]:
    """Parse a store's segment without repairing it: (report, records).

    Counts superseded duplicates into ``dead_bytes`` so ``store info``
    can show what compaction would reclaim.  An unreadable segment
    raises ``OSError``.
    """
    report = StoreReport(path=store_dir)
    path = store_dir / SEGMENT
    stat = path.stat()
    data = path.read_bytes()
    report.size = len(data)
    report.mtime = stat.st_mtime
    if len(data) < _HEADER.size:
        report.rebuilt = True
        report.problems.append(
            f"header truncated ({len(data)} bytes, need {_HEADER.size})"
        )
        return report, []
    magic, version = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        report.rebuilt = True
        report.problems.append(f"bad magic {magic!r} (want {MAGIC!r})")
        return report, []
    report.version = version
    if version != SCHEMA_VERSION:
        report.rebuilt = True
        report.problems.append(
            f"schema version {version} (this build writes {SCHEMA_VERSION})"
        )
        return report, []
    records: List[Tuple] = []
    seen: Set[Tuple] = set()

    def sink(record, start, end):
        if record[:2] in seen:
            report.dead_bytes += end - start
        seen.add(record[:2])
        records.append(record)

    _parse_records(data, _HEADER.size, report, sink)
    return report, records


# ---------------------------------------------------------------------------
# Sidecar lock
# ---------------------------------------------------------------------------


class _SidecarLock:
    """Advisory exclusive lock on a ``<segment>.lock`` sidecar file.

    ``fcntl.flock`` releases automatically when the holder dies, so a
    crashed writer never wedges the store; the PID written into the file
    only serves diagnostics.  Acquisition retries with capped
    exponential backoff and per-sleep jitter (factor in [0.5, 1.5)) so
    contending writers spread out instead of retrying in lockstep.

    Sidecar files are unlinked on a clean :meth:`release(unlink=True)
    <release>`; the unlink is race-free because it happens while still
    holding the flock and every acquirer re-checks that the path still
    names the inode it locked (a lock on an orphaned inode is discarded
    and retried).
    """

    def __init__(self, path: Path, rng: Optional[random.Random] = None):
        self.path = path
        self._handle: Optional[io.TextIOWrapper] = None
        self._rng = rng if rng is not None else random.Random()

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(
        self,
        retries: int = LOCK_RETRIES,
        backoff: float = LOCK_BACKOFF,
        cap: float = LOCK_BACKOFF_CAP,
    ) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        delay = backoff
        holder = "an unknown process"
        for attempt in range(1, retries + 1):
            handle = open(self.path, "a+")
            locked = False
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked = True
            except OSError:
                holder = self._holder(handle)
            if locked:
                if self._stable(handle):
                    handle.seek(0)
                    handle.truncate()
                    handle.write(f"{os.getpid()}\n")
                    handle.flush()
                    self._handle = handle
                    return
                # We locked an inode that was unlinked/replaced between
                # our open and flock: discard it and take the fresh path.
                locked = False
            handle.close()
            if attempt < retries:
                time.sleep(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2.0, cap)
        raise StoreLockError(
            f"store lock {self.path} is held by {holder} "
            f"(gave up after {retries} attempts)"
        )

    def _stable(self, handle) -> bool:
        """True when ``path`` still names the inode ``handle`` locked."""
        try:
            return os.stat(self.path).st_ino == os.fstat(handle.fileno()).st_ino
        except OSError:
            return False

    def _holder(self, handle) -> str:
        try:
            handle.seek(0)
            pid = int(handle.read().strip() or "0")
        except (OSError, ValueError):
            return "an unknown process"
        if pid <= 0:
            return "an unknown process"
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            # The flock is held yet the recorded PID is dead: the lock
            # was re-acquired between our flock attempt and this read.
            return f"pid {pid} (stale: process is gone)"
        except PermissionError:  # pragma: no cover - other-user process
            pass
        return f"pid {pid}"

    def release(self, unlink: bool = False) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        if fcntl is not None:
            if unlink:
                # Still holding the flock: nobody else can have acquired
                # through this inode, and acquirers re-check the path
                # inode, so removing the sidecar cannot orphan a holder.
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - lock already gone
                pass
        handle.close()

    def cleanup(self) -> None:
        """Best-effort sidecar removal: take the lock without waiting
        (single attempt) and unlink; a live holder keeps its file."""
        if fcntl is None or self._handle is not None:  # pragma: no cover
            return
        try:
            self.acquire(retries=1, backoff=0.0)
        except (StoreLockError, OSError):
            return
        self.release(unlink=True)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class VerdictStore:
    """Crash-safe, multi-writer on-disk verdict store (one segment).

    Open-or-create the store directory at ``path``; any other existing
    file or directory there raises :class:`StoreError`.  The whole live
    state loads into memory on open, appends buffer in memory, and
    :meth:`checkpoint` makes them durable, taking the lock only for the
    append batch, so any number of processes may write the same store
    concurrently.  Lookup misses poll the segment's tail, making
    concurrent writers' verdicts visible mid-run; :meth:`foreign`
    reports which resident keys arrived from another process.

    A lock that stays held or an I/O error at open, flush or compaction
    leaves the store failed (:attr:`failure`): nothing more is written,
    and writes and checkpoints raise :class:`StoreError` so the caller
    can detach it.
    """

    def __init__(
        self,
        path: os.PathLike,
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
    ):
        self.path = Path(path)
        self.checkpoint_interval = max(int(checkpoint_interval), 1)
        self._segment = self.path / SEGMENT
        self._lock = _SidecarLock(self.path / (SEGMENT + ".lock"))
        self._verdicts: Dict[CanonicalKey, CacheEntry] = {}
        self._reports: Dict[str, object] = {}
        self._foreign: Set[CanonicalKey] = set()
        #: ``(kind, key)`` of every record known to be on disk, so a
        #: flush skips records a concurrent writer already appended.
        self._keys: Set[Tuple] = set()
        #: Encoded records not yet flushed, with their ``(kind, key)``.
        self._pending: List[Tuple[Tuple, bytes]] = []
        #: How far this process has parsed the segment, and its inode.
        self._offset = _HEADER.size
        self._ino: Optional[int] = None
        self._closed = False
        #: The error that made the segment unusable (None while healthy).
        self.failure: Optional[Exception] = None
        self.recovered_report = StoreReport(path=self.path)
        if self.path.exists():
            if not (self.path.is_dir() and _is_store_dir(self.path)):
                raise StoreError(
                    f"{self.path} exists and is not a store directory"
                )
        else:
            self.path.mkdir(parents=True, exist_ok=True)
        self._recover()

    # -- open ------------------------------------------------------------

    def _recover(self) -> None:
        """Open-time recovery of the segment, under its lock.

        A torn tail found here belongs to a crashed writer (live writers
        only append while holding the lock) and is truncated back to the
        last valid record boundary.  A magic/schema mismatch rebuilds
        the segment empty.  Lock starvation or an I/O error fails the
        store instead of the open.
        """
        try:
            faultinject.on_segment_open(self._segment)
            _exclusive_create(self._segment)
            self._lock.acquire()
            try:
                faultinject.on_lock_held()
                report, records = _scan_segment(self.path)
                if report.rebuilt:
                    _atomic_create(self._segment)
                    print(
                        f"repro-deps: store {self.path}: "
                        f"{report.problems[0]}; rebuilt empty",
                        file=sys.stderr,
                    )
                    report.size = 0  # the scan stopped at the header
                else:
                    for record in records:
                        self._fold(record, foreign=False)
                    if report.truncated_at is not None:
                        self._truncate(report.truncated_at)
                        print(
                            f"repro-deps: store {self.path}: dropped "
                            f"corrupt tail at byte {report.truncated_at} "
                            f"({report.problems[-1]})",
                            file=sys.stderr,
                        )
                        self._offset = report.truncated_at
                    else:
                        self._offset = max(report.size, _HEADER.size)
                self._ino = os.stat(self._segment).st_ino
                self.recovered_report = report
            finally:
                self._lock.release()
        except (OSError, StoreLockError) as exc:
            self._fail(exc)
            self.recovered_report.problems.append(f"cannot open: {exc}")

    def _fail(self, exc: Exception) -> None:
        """Mark the store unusable: drop buffered records, stop writing."""
        self.failure = exc
        self._pending.clear()

    # -- record folding ---------------------------------------------------

    def _fold(self, record: Tuple, foreign: bool) -> None:
        """Adopt one on-disk record into the in-memory view."""
        kind, key = record[0], record[1]
        self._keys.add((kind, key))
        if kind == "v":
            if key not in self._verdicts:
                self._verdicts[key] = record[2]
                if foreign:
                    self._foreign.add(key)
        else:
            self._reports.setdefault(key, record[2])

    def _catch_up(self, locked: bool) -> bool:
        """Fold the records other writers appended since our last look.

        Reads only the bytes past the last parsed offset; a segment whose
        inode changed (a compaction replaced it) or that shrank is
        re-parsed from its header, and records already resident are
        skipped.  Without the lock a torn tail may be an in-flight
        append, so parsing stops before it and the next look retries;
        under the lock it can only be a crashed writer's residue and is
        truncated, and a destroyed segment is rebuilt empty.  Returns
        True when anything new was folded.
        """
        with open(self._segment, "rb") as handle:
            stat = os.fstat(handle.fileno())
            start = self._offset
            if stat.st_ino != self._ino or stat.st_size < start:
                start = _HEADER.size
                if handle.read(_HEADER.size) != _HEADER.pack(
                    MAGIC, SCHEMA_VERSION
                ):
                    if locked:
                        _atomic_create(self._segment)
                        self._keys.clear()
                        self._offset = _HEADER.size
                        self._ino = os.stat(self._segment).st_ino
                    return False
            elif stat.st_size == start:
                return False
            handle.seek(start)
            data = handle.read()
        before = len(self._verdicts) + len(self._reports)

        def sink(record, _start, _end):
            if record[:2] not in self._keys:
                self._fold(record, foreign=True)

        end = start + _parse_records(data, 0, StoreReport(self.path), sink)
        if locked and end < start + len(data):
            self._truncate(end)
        self._offset = end
        self._ino = stat.st_ino
        return len(self._verdicts) + len(self._reports) > before

    def _poll(self) -> bool:
        """Lock-free tail fold on a lookup miss (one ``stat`` when the
        segment has not grown)."""
        if self.failure is not None or self._closed:
            return False
        try:
            stat = os.stat(self._segment)
            if stat.st_ino == self._ino and stat.st_size <= self._offset:
                return False
            return self._catch_up(locked=False)
        except OSError:
            return False

    def _truncate(self, size: int) -> None:
        with open(self._segment, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def foreign(self, key: CanonicalKey) -> bool:
        """True when ``key``'s resident entry arrived from a concurrent
        process (folded from the segment's tail after this store opened)."""
        return key in self._foreign

    # -- sizes -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._verdicts)

    @property
    def report_count(self) -> int:
        return len(self._reports)

    @property
    def closed(self) -> bool:
        return self._closed

    def size(self) -> int:
        """On-disk bytes of the segment."""
        try:
            return self._segment.stat().st_size
        except OSError:
            return 0

    # -- reads -----------------------------------------------------------

    def get(self, key: CanonicalKey) -> Optional[CacheEntry]:
        entry = self._verdicts.get(key)
        if entry is None and self._poll():
            entry = self._verdicts.get(key)
        return entry

    def contains(self, key: CanonicalKey) -> bool:
        return self.get(key) is not None

    def get_report(self, token: str) -> Optional[object]:
        """The report document stored under ``token`` (or None).

        Misses poll the segment's tail like verdict reads, so a sibling
        corpus writer's completed routines become skippable mid-run.
        """
        value = self._reports.get(token)
        if value is None and self._poll():
            value = self._reports.get(token)
        return value

    # -- writes ----------------------------------------------------------

    def _check_writable(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.path} is closed")
        if self.failure is not None:
            raise StoreError(
                f"store {self.path} is unusable after "
                f"{type(self.failure).__name__}: {self.failure}"
            )

    def _queue(self, record: Tuple) -> None:
        self._pending.append(
            (record[:2], _encode_record(pickle.dumps(record, protocol=4)))
        )
        if len(self._pending) >= self.checkpoint_interval:
            self.checkpoint()

    def put(self, key: CanonicalKey, entry: CacheEntry) -> None:
        """Persist one verdict.  Assumed (degraded) verdicts are refused."""
        self._check_writable()
        faultinject.on_store_put()
        if entry.assumed:
            raise StoreError(
                "assumed verdicts are never persisted "
                "(conservative-degradation contamination guarantee)"
            )
        if self._verdicts.get(key) is not None:
            return
        self._verdicts[key] = entry
        self._queue(("v", key, entry))

    def put_report(self, token: str, value: object) -> None:
        """Persist one report document under its content token.

        The record doubles as a completion marker: the corpus driver
        only writes it after a routine (or file) analyzed cleanly, so
        presence implies the payload replays a healthy run's output.
        Degraded reports must not be offered here — like assumed
        verdicts, they would contaminate later runs.
        """
        self._check_writable()
        faultinject.on_store_put()
        if token in self._reports:
            return
        self._reports[token] = value
        self._queue(("d", token, value))

    # ``benchmarks/e2e/spans.py`` still binds these two names; the next
    # benchmark change drops that binding, and then these methods.
    def get_plan(self, key: CanonicalKey) -> None:
        return None

    def put_plan(self, key: CanonicalKey, plan: object) -> None:
        return None

    # -- durability -------------------------------------------------------

    def checkpoint(self) -> None:
        """Append buffered records under the lock, flush and fsync (a
        durability barrier).

        Raises when the lock stays held or the write fails; the store is
        failed from then on (see :attr:`failure`).  A no-op once closed.
        """
        if self._closed:
            return
        self._check_writable()
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        try:
            self._lock.acquire()
            try:
                faultinject.on_lock_held()
                self._catch_up(locked=True)
                with open(self._segment, "r+b") as handle:
                    handle.seek(self._offset)
                    for identity, encoded in pending:
                        if identity in self._keys:
                            continue  # a concurrent writer beat us to it
                        handle.write(encoded)
                        self._keys.add(identity)
                        faultinject.on_store_append()
                    handle.flush()
                    os.fsync(handle.fileno())
                    self._offset = handle.tell()
                    self._ino = os.fstat(handle.fileno()).st_ino
            finally:
                self._lock.release()
        except (OSError, StoreError) as exc:
            self._fail(exc)
            raise

    # -- maintenance ------------------------------------------------------

    def compact(self) -> Tuple[int, int]:
        """Rewrite the segment as its live state; returns the ``(before,
        after)`` sizes in bytes.

        Verdicts rewrite as plain records (the hot replay path stays
        cheap to poll); report documents, near-identical pickles, are
        grouped :data:`GROUP_SIZE` at a time and deflated together
        (``g`` records), which is what keeps a corpus-scale store
        small.  The rewrite happens under the lock via temp file +
        atomic rename, so a crash mid-compaction leaves the old segment
        intact.
        """
        self._check_writable()
        self.checkpoint()
        before = self.size()
        try:
            self._lock.acquire()
            try:
                faultinject.on_lock_held()
                self._catch_up(locked=True)
                body = io.BytesIO()
                verdicts = sorted(
                    (key for kind, key in self._keys if kind == "v"), key=repr
                )
                for key in verdicts:
                    body.write(_encode_record(pickle.dumps(
                        ("v", key, self._verdicts[key]), protocol=4
                    )))
                tokens = sorted(
                    (key for kind, key in self._keys if kind == "d"), key=repr
                )
                payloads = [
                    pickle.dumps(("d", token, self._reports[token]), protocol=4)
                    for token in tokens
                ]
                for start in range(0, len(payloads), GROUP_SIZE):
                    body.write(_encode_record(
                        _encode_group(payloads[start:start + GROUP_SIZE])
                    ))
                faultinject.on_compact()
                _atomic_create(self._segment, body.getvalue())
                self._offset = _HEADER.size + len(body.getvalue())
                self._ino = os.stat(self._segment).st_ino
            finally:
                self._lock.release()
        except (OSError, StoreError) as exc:
            self._fail(exc)
            raise
        return before, self.size()

    def close(self) -> None:
        """Checkpoint, then release and tidy the lock sidecar (idempotent).

        A final flush that fails leaves the store failed rather than
        raising, so ``close`` is safe in cleanup paths; callers that must
        report the failure checkpoint first, as the caching driver's
        ``flush`` does.  The ``.lock`` sidecar is unlinked when no other
        process holds it, so dead-holder locks never accumulate next to
        the store.
        """
        if self._closed:
            return
        try:
            if self.failure is None:
                self.checkpoint()
        except (OSError, StoreError):
            pass  # the error stays in self.failure
        finally:
            self._lock.cleanup()
            self._closed = True

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"VerdictStore({str(self.path)!r}, {len(self)} verdicts, "
            f"{self.report_count} reports, {state})"
        )

    # -- offline scanning --------------------------------------------------

    @classmethod
    def scan(cls, path: os.PathLike) -> StoreReport:
        """Parse a store directory without repairing it (``repro-deps
        store verify``/``info``)."""
        path = Path(path)
        report = StoreReport(path=path)
        try:
            if path.is_dir() and _is_store_dir(path):
                return _scan_segment(path)[0]
        except OSError as exc:
            report.problems.append(f"cannot read: {exc.strerror or exc}")
            return report
        reason = "not a store directory" if path.exists() else "no such store"
        report.problems.append("cannot read: " + reason)
        return report
