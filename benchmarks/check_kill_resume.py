#!/usr/bin/env python
"""Kill-and-resume gate: SIGKILL an analysis mid-write, resume, diff graphs.

The crash-safety contract of the persistent verdict store, checked
end-to-end against a real corpus kernel:

1. run ``repro-deps analyze`` without a store → the reference output;
2. run it again with ``--store``, injecting ``store-die:<k>`` so the
   process dies uncleanly (``os._exit`` mid-append — the torn-tail state
   a SIGKILL or power loss leaves) at a randomly chosen append;
3. rerun with the same ``--store`` → must exit 0, recover whatever tail
   the kill left, print a dependence graph **byte-identical** (after
   masking the global statement-label counter) to the reference, and
   serve at least as many store hits as the killed run left durable
   verdicts;
4. ``repro-deps store verify`` on the recovered store must report clean.

With ``--writers 2`` the gate becomes the concurrency stress variant:
*two* simultaneous writer processes share the store, each is killed at
its own random append, and the resume phase runs two overlapping
processes — both must print the reference graph, and at least one must
report nonzero *cross-process* store hits (verdicts folded from the
other writer's freshly appended records, not from the store it opened
with).

Exits non-zero on any divergence.  ``--seed`` pins the kill point(s) for
reproduction; by default it is drawn fresh so CI walks the whole space
over time.

Usage::

    python benchmarks/check_kill_resume.py [--seed N] [--kernel PATH]
        [--writers {1,2}]
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

from repro.engine import VerdictStore  # noqa: E402

DEFAULT_KERNEL = ROOT / "src" / "repro" / "corpus" / "kernels" / "cdl" / "global.f"


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


def run_cli(args, faults=None, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=cli_env(faults),
        timeout=timeout,
    )


def spawn_cli(args, faults=None, extra_env=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(faults, extra_env),
    )


def normalize(text):
    """Mask the global statement-label counter (drifts between parses)."""
    return re.sub(r"\bS\d+\b", "S#", text)


def graph_body(stdout):
    """The dependence-graph portion of analyze output (no counters)."""
    return stdout.split("test applications:")[0]


def foreign_hits(stdout):
    """Cross-process store hits reported by ``--counts`` (0 if absent)."""
    match = re.search(r"\((\d+) cross-process\)", stdout)
    return int(match.group(1)) if match else 0


def store_hits(stdout):
    """Verdicts served from the store, as ``--counts`` reports them."""
    match = re.search(r"store: (\d+) hits", stdout)
    return int(match.group(1)) if match else 0


def check_graph(stdout, reference, who):
    if normalize(graph_body(stdout)) != normalize(
        graph_body(reference.stdout)
    ):
        print(f"FAIL: {who}: resumed dependence graph diverges from "
              "reference:", file=sys.stderr)
        print("--- reference ---", file=sys.stderr)
        print(normalize(graph_body(reference.stdout)), file=sys.stderr)
        print(f"--- {who} ---", file=sys.stderr)
        print(normalize(graph_body(stdout)), file=sys.stderr)
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", type=Path, default=DEFAULT_KERNEL)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="kill-point RNG seed (default: fresh entropy, printed)",
    )
    parser.add_argument(
        "--writers", type=int, choices=(1, 2), default=1,
        help="concurrent writer processes in the kill and resume phases",
    )
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else random.SystemRandom().randint(0, 10**6)
    rng = random.Random(seed)
    print(f"kernel: {args.kernel}")
    print(f"seed: {seed}  writers: {args.writers}")

    reference = run_cli(["analyze", str(args.kernel), "--counts"])
    if reference.returncode != 0:
        print(reference.stderr, file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "resume.db"
        probe_db = Path(tmp) / "probe.db"

        # Size the record stream so the kill point always lands inside it.
        probe = run_cli(
            ["analyze", str(args.kernel), "--store", str(probe_db)]
        )
        if probe.returncode != 0:
            print(probe.stderr, file=sys.stderr)
            return 1
        total = VerdictStore.scan(probe_db).records
        if total < 4:
            print(f"kernel too small to checkpoint ({total} records)", file=sys.stderr)
            return 1

        # -- kill phase ------------------------------------------------
        # With two writers the kill points stay in the first half of the
        # stream so the resume phase has real work left: the overlap (and
        # the cross-process-hit assertion below) needs verdicts that are
        # still untested when the resumers start.
        kill_hi = total - 1 if args.writers == 1 else max(4, total // 2)
        writers = []
        markers = []
        for i in range(args.writers):
            kill_at = rng.randint(3, kill_hi)
            print(f"writer {i}: record stream {total} records; "
                  f"killing at append {kill_at}")
            # Each writer drops a marker file from the fault hook just
            # before its os._exit, so exit codes can be cross-checked
            # against whether the injected kill actually fired — exit 9
            # for any other reason (a worker OOM-kill, say) must not be
            # mistaken for a successful injection.
            marker = Path(tmp) / f"kill-fired-{i}"
            markers.append(marker)
            writers.append(spawn_cli(
                ["analyze", str(args.kernel), "--store", str(db)],
                faults=f"store-die:{kill_at}",
                extra_env={"REPRO_FAULT_MARKER": str(marker)},
            ))
        codes = []
        for proc in writers:
            proc.communicate(timeout=600)
            codes.append(proc.returncode)
        # Concurrent writers dedup each other's records on flush, so a
        # late kill point may never fire for the writer that lost the
        # race — exit 0 is acceptable then, but someone must have died,
        # and every exit must agree with its writer's marker.
        allowed = {9} if args.writers == 1 else {0, 9}
        if not set(codes) <= allowed:
            print(f"FAIL: unexpected writer exits {codes}", file=sys.stderr)
            return 1
        fired = [marker.exists() for marker in markers]
        for i, (code, hit) in enumerate(zip(codes, fired)):
            if code == 9 and not hit:
                print(f"FAIL: writer {i} exited 9 but its kill point never "
                      f"fired (no marker) — death was not the injected one",
                      file=sys.stderr)
                return 1
            if code != 9 and hit:
                print(f"FAIL: writer {i}'s kill point fired but it exited "
                      f"{code}", file=sys.stderr)
                return 1
        if not any(fired):
            print(f"FAIL: no injected kill fired (exits {codes})",
                  file=sys.stderr)
            return 1
        survivors = VerdictStore.scan(db)
        print(
            f"killed run left {survivors.size} bytes: {survivors.verdicts} "
            f"verdict(s) durable"
        )

        # -- resume phase ----------------------------------------------
        resume_args = [
            "analyze", str(args.kernel), "--store", str(db), "--counts",
        ]
        outputs = []
        if args.writers == 1:
            resumed = run_cli(resume_args)
            if resumed.returncode != 0:
                print(f"FAIL: resume exited {resumed.returncode}", file=sys.stderr)
                print(resumed.stderr, file=sys.stderr)
                return 1
            outputs.append(resumed.stdout)
        else:
            # Overlapping resumers, throttled via the pair-delay fault so
            # the interleaving is reproducible on any machine.  The slow
            # one is spawned first, so it is already open (its open-time
            # fold done) before the fast one starts flushing; every
            # verdict the fast one then checkpoints ahead of the slow
            # one's crawl reaches the slow one as a tail fold — a
            # cross-process store hit.
            second = spawn_cli(resume_args, faults="pair-delay:0.6")
            first = spawn_cli(resume_args, faults="pair-delay:0.2")
            for i, proc in enumerate((first, second)):
                out, err = proc.communicate(timeout=600)
                if proc.returncode != 0:
                    print(f"FAIL: resumer {i} exited {proc.returncode}",
                          file=sys.stderr)
                    print(err, file=sys.stderr)
                    return 1
                if "Traceback" in err:
                    print(f"FAIL: resumer {i} printed a traceback:",
                          file=sys.stderr)
                    print(err, file=sys.stderr)
                    return 1
                outputs.append(out)

        for i, out in enumerate(outputs):
            if not check_graph(out, reference, f"resumer {i}"):
                return 1
        print("resumed graph is byte-identical to the reference")

        # Every durable verdict is a pair of this kernel, so each rerun
        # looks it up and must find it in the store.
        for i, out in enumerate(outputs):
            served = store_hits(out)
            print(f"resumer {i}: {served} verdict(s) served from the store")
            if served < survivors.verdicts:
                print(f"FAIL: resumer {i} served {served} store hit(s) "
                      f"for {survivors.verdicts} durable verdict(s)",
                      file=sys.stderr)
                return 1
        if args.writers > 1:
            foreign = sum(foreign_hits(out) for out in outputs)
            print(f"cross-process store hits: {foreign}")
            if foreign == 0:
                print("FAIL: overlapping resumers shared no verdicts "
                      "(expected nonzero cross-process hits)", file=sys.stderr)
                return 1

        verify = run_cli(["store", "verify", str(db)])
        if verify.returncode != 0:
            print("FAIL: recovered store does not verify clean:", file=sys.stderr)
            print(verify.stdout, file=sys.stderr)
            return 1
        print("recovered store verifies clean")

    print("OK: kill-and-resume contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
