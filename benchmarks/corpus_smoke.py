#!/usr/bin/env python
"""Corpus streaming smoke gate: cold throughput, incremental no-op, compaction.

CI's end-to-end check that the streaming corpus driver stays fast and
stays incremental, over a synthetic multi-file tree:

1. **cold** — ``corpus run --store`` over a fresh tree must analyze
   every routine and sustain at least ``--min-routines-per-sec``
   (a deliberately loose floor: the gate catches structural collapse,
   an accidental re-parse-the-world or per-routine store reopen, not
   machine noise);
2. **no-op** — the same command again must skip **100%** of routines
   (``skip_rate=1.00``) and print byte-identical output;
3. **edit** — after editing one file, a re-run must re-analyze exactly
   that file's routines and nothing else, and the output must be
   byte-identical to a cold run over the edited tree;
4. **compact** — ``store compact`` must shrink the store measurably
   (delta-compressed report groups), and a post-compaction run
   must still skip everything with byte-identical output.

Exits non-zero on any violation.

Usage::

    python benchmarks/corpus_smoke.py [--files N] [--routines N]
        [--min-routines-per-sec R] [--min-compaction-gain F]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.corpus.generator import synthesize_corpus_tree  # noqa: E402


def run_cli(args, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def counter(stderr, name):
    match = re.search(rf"\b{name}=([0-9.]+)", stderr)
    return float(match.group(1)) if match else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=12)
    parser.add_argument("--routines", type=int, default=3)
    parser.add_argument(
        "--min-routines-per-sec", type=float, default=20.0,
        help="cold-pass throughput floor (default 20/s — structural gate, "
             "not a performance bound)",
    )
    parser.add_argument(
        "--min-compaction-gain", type=float, default=0.05,
        help="store compact must reclaim at least this fraction "
             "(default 0.05)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        synthesize_corpus_tree(
            tree, files=args.files, routines_per_file=args.routines, seed=1
        )
        db = Path(tmp) / "corpus.db"
        total = args.files * args.routines

        # -- cold ------------------------------------------------------
        cold = run_cli(["corpus", "run", str(tree), "--store", str(db)])
        if cold.returncode != 0:
            print(cold.stderr, file=sys.stderr)
            return 1
        analyzed = counter(cold.stderr, "analyzed")
        rate = counter(cold.stderr, "throughput")
        print(f"cold: analyzed {analyzed:.0f}/{total} routines "
              f"at {rate:.1f}/s")
        if analyzed != total:
            print(f"FAIL: cold pass analyzed {analyzed}, expected {total}",
                  file=sys.stderr)
            return 1
        if rate < args.min_routines_per_sec:
            print(f"FAIL: cold throughput {rate:.1f}/s under floor "
                  f"{args.min_routines_per_sec}/s", file=sys.stderr)
            return 1

        # -- no-op incremental ----------------------------------------
        noop = run_cli(["corpus", "run", str(tree), "--store", str(db)])
        skip_rate = counter(noop.stderr, "skip_rate")
        print(f"no-op: skip_rate={skip_rate}")
        if noop.returncode != 0 or skip_rate != 1.0:
            print(f"FAIL: no-op pass should skip 100% "
                  f"(skip_rate={skip_rate}):\n{noop.stderr}", file=sys.stderr)
            return 1
        if noop.stdout != cold.stdout:
            print("FAIL: no-op output diverges from cold output",
                  file=sys.stderr)
            return 1

        # -- edit one file --------------------------------------------
        victim = sorted(tree.rglob("*.f"))[args.files // 2]
        # Any byte change invalidates the file token; a comment line is
        # the minimal edit that works on every generated template.
        victim.write_text("c edited by corpus_smoke\n" + victim.read_text())
        edited = run_cli(["corpus", "run", str(tree), "--store", str(db)])
        re_analyzed = counter(edited.stderr, "analyzed")
        print(f"edit: re-analyzed {re_analyzed:.0f} routine(s) after "
              f"editing {victim.name}")
        if edited.returncode != 0 or re_analyzed != args.routines:
            print(f"FAIL: edited pass re-analyzed {re_analyzed} routine(s), "
                  f"expected exactly {args.routines}:\n{edited.stderr}",
                  file=sys.stderr)
            return 1
        fresh = run_cli(["corpus", "run", str(tree)])
        if edited.stdout != fresh.stdout:
            print("FAIL: incremental output diverges from a cold run over "
                  "the edited tree", file=sys.stderr)
            return 1

        # -- compaction -----------------------------------------------
        compacted = run_cli(["store", "compact", str(db)])
        match = re.search(r"compacted .*: (\d+) -> (\d+) bytes",
                          compacted.stdout)
        if compacted.returncode != 0 or not match:
            print(f"FAIL: store compact failed:\n{compacted.stderr}",
                  file=sys.stderr)
            return 1
        before, after = int(match.group(1)), int(match.group(2))
        gain = (before - after) / before if before else 0.0
        print(f"compact: {before} -> {after} bytes ({gain:.1%} reclaimed)")
        if gain < args.min_compaction_gain:
            print(f"FAIL: compaction reclaimed {gain:.1%}, floor "
                  f"{args.min_compaction_gain:.1%}", file=sys.stderr)
            return 1
        replay = run_cli(["corpus", "run", str(tree), "--store", str(db)])
        if (
            replay.returncode != 0
            or counter(replay.stderr, "skip_rate") != 1.0
            or replay.stdout != edited.stdout
        ):
            print(f"FAIL: post-compaction replay diverged:\n{replay.stderr}",
                  file=sys.stderr)
            return 1
        print("post-compaction replay skipped 100%, byte-identical")

    print("OK: corpus streaming smoke gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
