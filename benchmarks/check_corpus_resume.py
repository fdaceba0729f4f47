#!/usr/bin/env python
"""Corpus kill-and-resume gate: SIGKILL the streaming driver, resume, diff.

The crash-safety contract of ``repro-deps corpus run``, checked
end-to-end over a synthetic multi-file tree:

1. run ``corpus run`` without a store → the reference corpus report;
2. run it again with ``--store``, injecting ``die-file:<k>`` so the
   process dies uncleanly (``os._exit`` at a file boundary — the state
   a SIGKILL or OOM eviction leaves) entering a randomly chosen file;
3. re-run with the same store → must exit 0, **skip every routine the
   killed run completed** (nonzero resume hit rate), and print a corpus
   report byte-identical to the reference — no statement-label masking
   needed, the streaming renderer numbers statements densely per
   routine;
4. a further no-op pass must skip 100% of routines, still
   byte-identically;
5. ``repro-deps store verify`` on the surviving store must report clean.

Exits non-zero on any divergence.  ``--seed`` pins the kill point for
reproduction; by default it is drawn fresh so CI walks the whole space
over time.

Usage::

    python benchmarks/check_corpus_resume.py [--seed N] [--files N]
"""

from __future__ import annotations

import argparse
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.corpus.generator import synthesize_corpus_tree  # noqa: E402
from repro.engine import VerdictStore  # noqa: E402


def cli_env(faults=None, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if faults:
        env["REPRO_FAULTS"] = faults
    else:
        env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_MARKER", None)
    if extra_env:
        env.update(extra_env)
    return env


def run_cli(args, faults=None, extra_env=None, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=cli_env(faults, extra_env),
        timeout=timeout,
    )


def counter(stderr, name):
    match = re.search(rf"\b{name}=([0-9.]+)", stderr)
    return float(match.group(1)) if match else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--files", type=int, default=8,
        help="synthetic corpus size in files (default 8)",
    )
    parser.add_argument(
        "--routines", type=int, default=3,
        help="routines per synthetic file (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="kill-point RNG seed (default: fresh entropy, printed)",
    )
    args = parser.parse_args(argv)
    seed = (
        args.seed
        if args.seed is not None
        else random.SystemRandom().randint(0, 10**6)
    )
    rng = random.Random(seed)
    print(f"seed: {seed}  files: {args.files}")

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        synthesize_corpus_tree(
            tree, files=args.files, routines_per_file=args.routines, seed=seed
        )
        db = Path(tmp) / "corpus.db"
        marker = Path(tmp) / "kill-fired"

        reference = run_cli(["corpus", "run", str(tree)])
        if reference.returncode != 0:
            print(reference.stderr, file=sys.stderr)
            return 1

        # -- kill phase ------------------------------------------------
        # Entering file k dies, so files 1..k-1 are durable; k >= 2
        # guarantees the resume has something to skip, k <= files
        # guarantees the kill actually fires.
        kill_at = rng.randint(2, args.files)
        print(f"killing at file {kill_at} of {args.files}")
        killed = run_cli(
            ["corpus", "run", str(tree), "--store", str(db)],
            faults=f"die-file:{kill_at}",
            extra_env={"REPRO_FAULT_MARKER": str(marker)},
        )
        # The marker file is dropped by the fault hook just before its
        # os._exit, so the exit code can be cross-checked against
        # whether the injected kill actually fired — an exit 9 for any
        # other reason must not be mistaken for a successful injection.
        if killed.returncode != 9:
            print(f"FAIL: killed run exited {killed.returncode}, expected 9",
                  file=sys.stderr)
            print(killed.stderr, file=sys.stderr)
            return 1
        if not marker.exists():
            print("FAIL: killed run exited 9 but its kill point never fired "
                  "(no marker) — death was not the injected one",
                  file=sys.stderr)
            return 1
        survivors = VerdictStore.scan(db)
        print(f"killed run left {survivors.size} bytes: "
              f"{survivors.reports} report(s) durable")

        # -- resume phase ----------------------------------------------
        resumed = run_cli(
            ["corpus", "run", str(tree), "--store", str(db)]
        )
        if resumed.returncode != 0:
            print(f"FAIL: resume exited {resumed.returncode}", file=sys.stderr)
            print(resumed.stderr, file=sys.stderr)
            return 1
        if "Traceback" in resumed.stderr:
            print("FAIL: resume printed a traceback:", file=sys.stderr)
            print(resumed.stderr, file=sys.stderr)
            return 1
        if resumed.stdout != reference.stdout:
            print("FAIL: resumed corpus report diverges from reference",
                  file=sys.stderr)
            print("--- reference ---", file=sys.stderr)
            print(reference.stdout, file=sys.stderr)
            print("--- resumed ---", file=sys.stderr)
            print(resumed.stdout, file=sys.stderr)
            return 1
        print("resumed corpus report is byte-identical to the reference")

        skipped = counter(resumed.stderr, "skipped")
        expect_min = (kill_at - 1) * args.routines
        print(f"resume skipped {skipped:.0f} routine(s) "
              f"(killed run completed at least {expect_min})")
        if not skipped or skipped < expect_min:
            print(f"FAIL: resume hit rate too low — skipped {skipped} "
                  f"routine(s), the killed run completed {expect_min}",
                  file=sys.stderr)
            return 1

        # -- no-op phase -----------------------------------------------
        noop = run_cli(
            ["corpus", "run", str(tree), "--store", str(db)]
        )
        if noop.returncode != 0 or noop.stdout != reference.stdout:
            print("FAIL: no-op pass diverged or failed", file=sys.stderr)
            print(noop.stderr, file=sys.stderr)
            return 1
        if counter(noop.stderr, "skip_rate") != 1.0:
            print(f"FAIL: no-op pass re-analyzed routines:\n{noop.stderr}",
                  file=sys.stderr)
            return 1
        print("no-op pass skipped 100% of routines")

        verify = run_cli(["store", "verify", str(db)])
        if verify.returncode != 0:
            print("FAIL: surviving store does not verify clean:",
                  file=sys.stderr)
            print(verify.stdout, file=sys.stderr)
            return 1
        print("surviving store verifies clean")

    print("OK: corpus kill-and-resume contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
