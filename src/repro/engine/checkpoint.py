"""Checkpoint/resume protocol over the persistent verdict store.

Resumability of a dependence sweep falls out of two facts: verdicts are
pure functions of canonical pair keys (so the store tier replays them
byte-identically), and every analysis output is rebuilt from verdicts
cheaply once the tests themselves are skipped.  A *checkpoint* therefore
never tries to snapshot control flow — it records **progress markers**
(completed routines) under a *run token* that
identifies the input, so a resumed run can prove it is continuing the
same work and report how far the killed run got, while the store tier
does the actual heavy lifting of skipping finished tests.

The run token hashes the analysis input (file bytes, or the corpus suite
selection) together with the options that change the verdict stream.  A
``--resume`` against a store whose markers carry a different token still
works — the verdict tier is input-agnostic by construction — but the
resume report says so instead of claiming prior progress.
"""

from __future__ import annotations

import hashlib
from typing import Set

from repro.engine.store import VerdictStore


def run_token(*parts: object) -> str:
    """A stable hex token identifying one analysis input + option set.

    ``parts`` may be str/bytes/int/bool/None; anything else contributes
    its ``repr``.  The token survives process restarts (no ids, no
    addresses) so a killed run and its resume agree.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            blob = part
        elif isinstance(part, str):
            blob = part.encode("utf-8", "surrogatepass")
        else:
            blob = repr(part).encode("utf-8")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()[:16]


class CheckpointLog:
    """Progress markers for one run token, backed by a :class:`VerdictStore`.

    :meth:`begin_run` marks a run's start and :meth:`mark_routine` each
    finished routine (the CLI and study harness call it after printing
    the routine's results), under this log's token, so markers from
    different inputs sharing a store never collide.

    Marker writes checkpoint the store eagerly: a marker that says "work
    done" must never be durable *before* the verdicts it covers.
    ``VerdictStore`` appends in order and :meth:`~VerdictStore.checkpoint`
    flushes everything buffered, so the ordering holds by construction.
    """

    def __init__(self, store: VerdictStore, token: str):
        self.store = store
        self.token = token
        # Progress the killed run left behind for this token, frozen at
        # open time so the resume report does not count our own markers.
        # ``store.runs()`` polls the meta shard, so markers a sibling
        # writer landed in a shared (v2 sharded) store count too — and
        # they are deduped by value on fold, so two writers marking the
        # same routine yield one skip, not two.
        self.prior_runs: int = sum(
            1
            for t, label in store.runs()
            if t == token and not label.startswith("routine:")
        )
        self.prior_routines: Set[str] = {
            label[len("routine:"):]
            for t, label in store.runs()
            if t == token and label.startswith("routine:")
        }

    # -- markers ---------------------------------------------------------
    #
    # Markers land in the store's dedicated meta shard, which flushes
    # strictly after the data shards (see VerdictStore.checkpoint), so a
    # durable marker never claims verdicts a crash could have lost.

    def begin_run(self, label: str) -> None:
        """Record that a run over this token started (durably)."""
        self.store.mark_run(self.token, label)
        self.store.checkpoint()

    def mark_routine(self, name: str) -> None:
        """Record one fully analyzed routine (durably)."""
        self.store.mark_run(self.token, f"routine:{name}")
        self.store.checkpoint()

    # -- resume reporting ------------------------------------------------

    @property
    def resumable(self) -> bool:
        """True when the store holds prior progress for this exact input."""
        return bool(self.prior_runs or self.prior_routines)

    def resume_summary(self) -> str:
        """One-line human summary for ``--resume`` banners."""
        if not self.resumable:
            return (
                "no checkpoint for this input in the store; starting fresh "
                f"({len(self.store)} verdict(s) resident remain usable)"
            )
        parts = [f"{len(self.store)} verdict(s) resident"]
        if self.prior_routines:
            parts.append(f"{len(self.prior_routines)} routine(s) checkpointed")
        return "resuming: " + ", ".join(parts)
