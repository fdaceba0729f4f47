"""Seeded inputs and the closed-loop client of the end-to-end benchmark.

Every input the analyzer sees is generated here from ``--seed`` and
written to disk; the program under test only ever receives those files
(or, for the service, their text in request bodies).  The same seed
always yields byte-identical inputs.

Why each workload exists (the input properties the analyzer's speed
depends on are how much work inputs share and where that work lands):

``idiom-cold``
    ``corpus run TREE`` with no store over the *idiom tree*: the bundled
    kernels verbatim plus a seeded ``synthesize_corpus_tree`` of tiny
    routines built from five templates.  It models the paper's finding
    that real code repeats a few subscript shapes: nearly every pair is
    a verdict-cache hit, so the front end, IR, ``prepare`` and report
    rendering do the work and the test tiers do almost none.  A
    front-end or prepare optimisation shows here; a test-tier one
    should not.
``dense-analyze``
    ``analyze FILE`` on one file of seeded dense loop nests
    (``random_nest``/``coupled_group_nest`` printed by ``format_body``;
    extent 10, 30% coupled positions, 20% MIV subscripts, symbolic
    upper bound ``n`` on a seeded third).  Almost every pair is a new
    shape, so the test tiers do most of the work — the mirror image of
    ``idiom-cold`` and the workload where a test-tier or backend change
    shows.
``store-write``
    ``corpus run TREE --store S`` into an empty store over the idiom
    tree.  Same inputs as ``idiom-cold``, so the difference between the
    two is the cost of persisting verdicts, plans, reports and
    checkpoints.
``store-edit``
    Five successive ``corpus run TREE --store S`` processes against a
    warm store, each after editing a different seeded 5% of the tree's
    files.  Store reads (open, file-token replay, report documents)
    dominate; the front end sees only the edited files.
``service-mixed``
    ``serve`` driven by a closed loop of two clients (its callers — CI
    jobs, editors — each wait for their reply), 95% idiom-tree files and
    5% dense routines.  The warm engine makes the typical request a
    measure of parse + prepare + protocol; the dense ones carry the
    cold test tiers and the engine lock waits.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
KERNELS = ROOT / "src" / "repro" / "corpus" / "kernels"

#: Input sizes at ``scale=1``.  The idiom tree is large enough that the
#: bundled kernels' cold test work stays under 5% of a cold run.
IDIOM_FILES = 700
IDIOM_ROUTINES_PER_FILE = 5
DENSE_NESTS = 200
DENSE_STATEMENTS = 6
EDIT_CYCLES = 5
EDIT_FRACTION = 0.05
#: Service requests per round of the request plan: one dense routine
#: (5%), one bundled kernel file, the rest generated files.
ROUND = 20
#: Completed requests per service sample.
SERVICE_BLOCK = 40
SERVICE_CLIENTS = 2

#: The appended routine of a store-edit cycle.  Its constants are drawn
#: far outside the 1..3 the corpus templates use, so an edit introduces
#: subscript shapes the warm store has never tested, and its references
#: reach every test tier: strong SIV (``a``), MIV (``b``), ZIV and RDIV
#: (``c(i, k3)`` against ``c(j, k3)``) and a coupled group for the Delta
#: test (``c(i, k3)`` against ``c(i+j, i)``).
_EDIT_TEMPLATE = (
    "      subroutine {name}(n, a, b, c)\n"
    "      integer n, i, j\n"
    "      real a(n,n), b(n), c(n,n)\n"
    "      do 20 j = 1, n\n"
    "         do 10 i = {k1p}, n\n"
    "            a(i, j) = a(i-{k1}, j) + a(i, j+{k2})\n"
    "            b(i+j) = b(i+j+{k2}) + b({k3})\n"
    "            c(i, {k3}) = c(j, {k3}) + c(i+j, i)\n"
    "   10    continue\n"
    "   20 continue\n"
    "      end\n"
)


def _rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible random stream per input kind."""
    return random.Random(f"{stream}:{seed}")


def scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


# -- the idiom tree -------------------------------------------------------


def write_idiom_tree(root: Path, seed: int, scale: float = 1.0) -> List[Path]:
    """Bundled kernels verbatim under ``kernels/`` plus a seeded
    synthetic tree under ``gen/``; returns the generated files (the
    ones edit plans may touch), sorted."""
    from repro.corpus.generator import synthesize_corpus_tree

    for source in sorted(KERNELS.glob("*/*.f")):
        target = root / "kernels" / source.parent.name / source.name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)
    return synthesize_corpus_tree(
        root / "gen",
        files=scaled(IDIOM_FILES, scale),
        routines_per_file=IDIOM_ROUTINES_PER_FILE,
        seed=seed,
        subdirs=4,
    )


def tree_sources(root: Path) -> List[Tuple[str, str]]:
    """``(name, text)`` of every Fortran file under ``root``, sorted."""
    return [
        (path.stem, path.read_text())
        for path in sorted(root.rglob("*.f"))
    ]


# -- dense nests -----------------------------------------------------------


def _symbolic_bounds(nodes) -> None:
    from repro.ir.expr import Var

    for node in nodes:
        if hasattr(node, "upper"):
            node.upper = Var("n")
            _symbolic_bounds(node.body)


def dense_routines(seed: int, scale: float = 1.0) -> List[Tuple[str, str]]:
    """``(name, source)`` per dense routine, one loop nest each.

    Nest kinds are stratified by position (every tenth a coupled group
    of 2-4 subscripts) and exactly a third of the nests get the symbolic
    bound ``n``, so the amount of test work varies little between seeds.
    """
    from repro.corpus.generator import coupled_group_nest, random_nest
    from repro.ir.loop import format_body

    count = scaled(DENSE_NESTS, scale)
    rng = _rng(seed, "dense")
    symbolic = set(rng.sample(range(count), count // 3))
    routines = []
    for k in range(count):
        if k % 10 == 9:
            body = coupled_group_nest(
                2 + (k // 10) % 3, extent=10, offset=rng.randint(1, 3)
            )
        else:
            body = random_nest(
                rng.randrange(2**31),
                depth=2,
                statements=DENSE_STATEMENTS,
                arrays=3,
                ndim=2,
                extent=10,
                miv_fraction=0.2,
                coupled_fraction=0.3,
            )
        if k in symbolic:
            _symbolic_bounds(body)
        name = f"d{k:04d}"
        lines = [f"      subroutine {name}(n)", "      integer n"]
        lines += [f"      {line}" for line in format_body(body).splitlines()]
        lines.append("      end")
        routines.append((name, "\n".join(lines) + "\n"))
    return routines


def write_dense_file(path: Path, seed: int, scale: float = 1.0) -> None:
    path.write_text("".join(src for _, src in dense_routines(seed, scale)))


# -- the store-edit plan ---------------------------------------------------


@dataclass
class Edit:
    """Append ``text`` (one new routine) to the file at ``path``."""

    path: Path
    text: str


def edit_plan(generated: Sequence[Path], seed: int) -> List[List[Edit]]:
    """Per cycle, a different seeded 5% of the generated files, each
    gaining a routine with fresh dependence distances."""
    rng = _rng(seed, "edit")
    per_cycle = max(1, int(round(len(generated) * EDIT_FRACTION)))
    pool = list(generated)
    rng.shuffle(pool)
    plan: List[List[Edit]] = []
    for cycle in range(EDIT_CYCLES):
        chosen = [pool[(cycle * per_cycle + j) % len(pool)] for j in range(per_cycle)]
        edits = []
        for path in chosen:
            k1 = rng.randint(4, 40)
            edits.append(Edit(path, _EDIT_TEMPLATE.format(
                name=f"{path.stem}e{cycle}",
                k1=k1,
                k1p=k1 + 1,
                k2=rng.randint(1, 40),
                k3=rng.randint(4, 40),
            )))
        plan.append(edits)
    return plan


def apply_edits(edits: Sequence[Edit]) -> None:
    for edit in edits:
        with open(edit.path, "a") as handle:
            handle.write(edit.text)


# -- the service request plan ----------------------------------------------


def request_plan(
    seed: int,
    kernels: Sequence[Tuple[str, str]],
    generated: Sequence[Tuple[str, str]],
    dense: Sequence[Tuple[str, str]],
    count: int,
) -> List[Tuple[str, str]]:
    """``count`` ``(name, source)`` requests in rounds of ``ROUND``.

    Each round holds, at seeded positions, one dense routine and one
    bundled kernel file, each taken in turn from a seeded order of all
    of them, and otherwise generated files drawn with replacement.
    Kernel files cost several times a generated one, so fixing their
    share per round keeps the work of a run alike between seeds.
    """
    rng = _rng(seed, "requests")
    dense_order, kernel_order = list(dense), list(kernels)
    rng.shuffle(dense_order)
    rng.shuffle(kernel_order)
    plan: List[Tuple[str, str]] = []
    for turn in range(-(-count // ROUND)):
        at_dense, at_kernel = rng.sample(range(ROUND), 2)
        for position in range(ROUND):
            if position == at_dense:
                plan.append(dense_order[turn % len(dense_order)])
            elif position == at_kernel:
                plan.append(kernel_order[turn % len(kernel_order)])
            else:
                plan.append(rng.choice(generated))
    return plan[:count]


@dataclass
class Reply:
    """One request as the client saw it."""

    name: str
    sent: float
    received: float
    ok: bool
    routines: Optional[list] = None
    elapsed_ms: Optional[float] = None
    error: str = ""


@dataclass
class ClosedLoop:
    """``SERVICE_CLIENTS`` threads, each sending its next request only
    after the previous reply arrives, until ``stop_after`` seconds have
    passed or the plan runs out."""

    url: str
    plan: Sequence[Tuple[str, str]]
    replies: List[Reply] = field(default_factory=list)

    def run(
        self,
        stop_after: float,
        start: int = 0,
        limit: Optional[int] = None,
        at: Optional[Tuple[int, Callable[[], None]]] = None,
    ) -> int:
        """Send plan entries from ``start``; returns the next unsent index.

        ``at=(n, callback)`` calls ``callback`` once, when the ``n``-th
        reply of this loop (counting earlier runs) arrives.
        """
        from repro.service.client import ServiceClient

        lock = threading.Lock()
        cursor = [start]
        end = len(self.plan) if limit is None else min(len(self.plan), start + limit)
        deadline = time.perf_counter() + stop_after

        def worker() -> None:
            client = ServiceClient(self.url, retries=0)
            while True:
                with lock:
                    if cursor[0] >= end or time.perf_counter() >= deadline:
                        return
                    name, source = self.plan[cursor[0]]
                    cursor[0] += 1
                sent = time.perf_counter()
                try:
                    payload = client.analyze(source, name=name)
                except Exception as exc:  # any failure is a failed request
                    reply = Reply(name, sent, time.perf_counter(), False, error=repr(exc))
                else:
                    reply = Reply(
                        name,
                        sent,
                        time.perf_counter(),
                        payload.get("status") == "ok" and not payload.get("degraded"),
                        routines=payload.get("routines"),
                        elapsed_ms=payload.get("elapsed_ms"),
                        error="" if payload.get("status") == "ok" else "degraded",
                    )
                with lock:
                    self.replies.append(reply)
                    if at is not None and len(self.replies) == at[0]:
                        at[1]()

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return cursor[0]


MISMATCH = "routines differ from an earlier answer for the same source"


def check_replies(replies: Sequence[Reply], first: Dict[str, list]) -> int:
    """Mark replies whose ``routines`` differ from the first answer for
    the same source as failed; returns how many replies failed."""
    failed = 0
    for reply in replies:
        if reply.ok:
            expected = first.setdefault(reply.name, reply.routines)
            if reply.routines != expected:
                reply.ok = False
                reply.error = MISMATCH
        failed += not reply.ok
    return failed
