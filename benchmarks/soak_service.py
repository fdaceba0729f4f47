#!/usr/bin/env python
"""Service soak gate: one warm server under injected faults and load.

End-to-end check of the analysis service's robustness contract
(ISSUE 9).  One ``repro-deps serve`` process runs with:

* ``reject-store:1``   — the first store write fails (the store
  detaches, and a request after the reopen wait must reattach it);
* ``slow-handler``     — every handler holds its slot long enough that
  admission control and coalescing actually engage;
* ``pair-delay``       — pair resolves are slow enough that tight
  deadlines expire *mid-analysis*.

Against it the harness drives concurrent clients: a coalesce burst of
identical requests, a shed burst past the admission bounds, and a band
of tight-deadline clients.  Every 200 response is checked against an
oracle computed in-process with the same library code:

* non-degraded responses must equal the oracle byte-for-byte (graph
  and parallelism payloads);
* degraded responses must be conservative — every oracle edge present,
  never more independence, never a loop declared parallel that the
  oracle calls serial.

Then: the store must be reattached after at least one detach, the
stats endpoint must show nonzero coalesced requests and exactly the
sheds the clients observed, SIGTERM must drain the in-flight request
and exit 0, a restarted server over the same store must answer the
re-query with an identical graph, and ``store verify`` must be clean.

Exits non-zero on any violation.

Usage::

    python benchmarks/soak_service.py [--slow S] [--pair-delay S]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.corpus.loader import default_symbols  # noqa: E402
from repro.engine import DependenceEngine  # noqa: E402
from repro.pipeline import analyze_routine, parse_source  # noqa: E402

HOST = "127.0.0.1"


def make_kernel(i: int) -> str:
    """Kernel ``i``: canonically distinct subscript shapes per index.

    Distinct strides/offsets keep each kernel's pairs out of the
    canonical cache entries of the others, so every kernel is a real
    (slow, store-writing) analysis the first time it is requested.
    """
    m = 2 + (i % 3)
    o = 3 + i
    return (
        f"      subroutine soak{i}(a, b, c, n)\n"
        f"      integer n\n"
        f"      real a(4000), b(4000), c(4000)\n"
        f"      do 10 j = 1, n\n"
        f"         a({m}*j) = a({m}*j+{o}) + b(j+{i % 5})\n"
        f"         b({m}*j+1) = a({m}*j+{o + 2}) * c(j)\n"
        f"         c(j+{2 + i % 4}) = b({m}*j+{o + 5}) + a(j+1)\n"
        f" 10   continue\n"
        f"      end\n"
    )


# -- oracle -----------------------------------------------------------------


def oracle_routines(source: str) -> list:
    """The reference routines payload, computed with the same library
    code the server runs (no faults, fresh engine)."""
    program = parse_source(source, "oracle")
    with DependenceEngine(symbols=default_symbols()) as engine:
        return [
            analyze_routine(engine, routine, engine.build_graph)
            for routine in program.routines
        ]


def edge_keys(routines: list) -> set:
    return {
        (
            e["type"],
            e["source"],
            e["sink"],
            e["source_stmt"],
            e["sink_stmt"],
        )
        for r in routines
        for e in r["graph"]["edges"]
    }


def check_against_oracle(payload: dict, oracle: list, who: str) -> bool:
    """200-response contract: exact when complete, conservative when not."""
    routines = payload.get("routines", [])
    if payload.get("watchdog_timeout"):
        return True  # explicit no-answer; nothing is claimed
    if not payload.get("degraded"):
        if routines != oracle:
            print(f"FAIL: {who}: complete response diverges from oracle",
                  file=sys.stderr)
            print(json.dumps(routines, indent=1)[:2000], file=sys.stderr)
            print("--- oracle ---", file=sys.stderr)
            print(json.dumps(oracle, indent=1)[:2000], file=sys.stderr)
            return False
        return True
    # Degraded: conservative, never optimistic.
    missing = edge_keys(oracle) - edge_keys(routines)
    if missing:
        print(f"FAIL: {who}: degraded response DROPPED real dependences "
              f"(spurious independence): {sorted(missing)}", file=sys.stderr)
        return False
    ref_loops = {
        (r["name"], v["loop"]): v["parallel"]
        for r in oracle
        for v in r["parallel_loops"]
    }
    for ref_r, resp_r in zip(oracle, routines):
        if resp_r["graph"]["tested_pairs"] != ref_r["graph"]["tested_pairs"]:
            print(f"FAIL: {who}: degraded response tested "
                  f"{resp_r['graph']['tested_pairs']} pairs, oracle "
                  f"{ref_r['graph']['tested_pairs']}", file=sys.stderr)
            return False
        if resp_r["graph"]["independent_pairs"] > ref_r["graph"]["independent_pairs"]:
            print(f"FAIL: {who}: degraded response claims MORE independence "
                  f"than the oracle", file=sys.stderr)
            return False
    for r in routines:
        for v in r["parallel_loops"]:
            if v["parallel"] and not ref_loops.get((r["name"], v["loop"]), False):
                print(f"FAIL: {who}: degraded response declares loop "
                      f"{v['loop']} of {r['name']} parallel; oracle says "
                      f"serial", file=sys.stderr)
                return False
    return True


# -- HTTP helpers -----------------------------------------------------------


def post_analyze(port: int, body: dict, timeout: float = 120.0):
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/analyze",
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def get_json(port: int, path: str, timeout: float = 30.0):
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def normalized(payload: dict) -> dict:
    """Response body minus the legitimately run-dependent fields.

    ``elapsed_ms``/``stats`` vary per run; ``tests`` (the recorder
    rows) depend on how warm the caches are — a store-served re-query
    applies no tests at all.  The graph and parallelism payloads are a
    pure function of the source and must survive restarts byte-for-byte.
    """
    return {
        k: v
        for k, v in payload.items()
        if k not in ("elapsed_ms", "stats", "tests")
    }


# -- server lifecycle -------------------------------------------------------


def serve_env(faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if faults:
        env["REPRO_FAULTS"] = faults
    else:
        env.pop("REPRO_FAULTS", None)
    return env


def start_server(args, faults=None, timeout=30.0):
    """Spawn ``repro-deps serve`` and parse the banner for the port."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", HOST,
         "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=serve_env(faults),
    )
    banner = {}

    def read_banner():
        banner["line"] = proc.stdout.readline()

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(timeout)
    line = banner.get("line", "")
    if "serving on http://" not in line:
        proc.kill()
        out, err = proc.communicate(timeout=10)
        raise RuntimeError(f"server failed to start: {line!r}\n{err}")
    port = int(line.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])
    print(f"server up on port {port} (faults={faults or 'none'})")
    return proc, port


def stop_server(proc, who: str) -> bool:
    proc.send_signal(signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        print(f"FAIL: {who}: did not exit within the drain window",
              file=sys.stderr)
        return False
    if proc.returncode != 0:
        print(f"FAIL: {who}: exited {proc.returncode} on SIGTERM",
              file=sys.stderr)
        print(err, file=sys.stderr)
        return False
    if "Traceback" in err:
        print(f"FAIL: {who}: printed a traceback:", file=sys.stderr)
        print(err, file=sys.stderr)
        return False
    return True


# -- the soak ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slow", type=float, default=0.15,
                        help="injected per-handler sleep (seconds)")
    parser.add_argument("--pair-delay", type=float, default=0.02,
                        help="injected per-pair delay (seconds)")
    args = parser.parse_args(argv)

    # Indices 0-19 serve the load phases; 20-22 are fresh kernels for
    # the store-fault phase.
    kernels = [make_kernel(i) for i in range(23)]
    print(f"computing oracle graphs for {len(kernels)} kernels ...")
    oracles = [oracle_routines(src) for src in kernels]

    faults = (
        f"slow-handler:{args.slow:g}:500,"
        f"pair-delay:{args.pair_delay:g},"
        "reject-store:1"
    )
    failures: list = []
    observed_503 = 0
    results: list = []  # (who, status, payload)
    lock = threading.Lock()

    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "soak.db"
        proc, port = start_server(
            ["--store", str(db),
             "--max-in-flight", "2", "--queue-depth", "2"],
            faults=faults,
        )

        def request(who, idx, deadline_ms=None):
            nonlocal observed_503
            body = {"source": kernels[idx], "name": f"soak{idx}"}
            if deadline_ms is not None:
                body["deadline_ms"] = deadline_ms
            try:
                status, payload = post_analyze(port, body)
            except Exception as exc:  # connection-level failure = bug
                with lock:
                    failures.append(f"{who}: transport error: {exc}")
                return None
            with lock:
                results.append((who, idx, status, payload))
                if status == 503:
                    observed_503 += 1
                elif status != 200:
                    failures.append(f"{who}: unexpected HTTP {status}: "
                                    f"{payload}")
            return status, payload

        try:
            # Phase 1 — store fault: three fresh kernels; the first
            # store write is rejected, detaching the store.
            print("phase 1: store fault on fresh kernels")
            for i in range(3):
                request("phase1", 20 + i)

            # Phase 2a — coalesce burst: identical concurrent requests
            # must share one analysis.
            print("phase 2a: coalesce burst (6 identical requests)")
            threads = [
                threading.Thread(target=request, args=(f"coalesce{t}", 0))
                for t in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # Phase 2b — shed burst: 8 concurrent *distinct* fresh
            # kernels against max_in_flight=2 + queue_depth=2.
            print("phase 2b: shed burst (8 distinct concurrent requests)")
            threads = [
                threading.Thread(target=request, args=("shed", 3 + t))
                for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # Phase 2c — tight deadlines on fresh kernels: must come
            # back degraded (conservative), never hang, never lie.
            print("phase 2c: tight-deadline clients")
            for t in range(4):
                request("deadline", 11 + t, deadline_ms=30)

            # Phase 3 — recovery: the first request after the reopen
            # wait must reattach the store.
            print("phase 3: store reopen")
            recovered = False
            for _ in range(40):
                request("recovery", 0)
                _, health = get_json(port, "/healthz")
                if (
                    health["store"]["mode"] == "attached"
                    and health["store"]["detaches"] >= 1
                ):
                    recovered = True
                    break
                time.sleep(0.3)
            if not recovered:
                _, health = get_json(port, "/healthz")
                failures.append(f"store never reattached: {health}")
            else:
                print(f"  store detaches: {health['store']['detaches']}, "
                      f"reopens: {health['store']['reopens']} — attached")

            # Phase 4 — accounting.
            _, stats = get_json(port, "/stats")
            svc = stats["service"]
            print(f"phase 4: stats: {svc}")
            if svc["coalesced"] < 1:
                failures.append(f"no requests coalesced: {svc}")
            if svc["shed"] != observed_503:
                failures.append(
                    f"server counted {svc['shed']} sheds; clients saw "
                    f"{observed_503} 503s"
                )
            if svc["internal_errors"]:
                failures.append(f"internal errors occurred: {svc}")
            if svc["ok"] < 1 or svc["degraded"] < 1:
                failures.append(f"expected both ok and degraded traffic: {svc}")

            # Phase 5 — baseline for the restart comparison (warm, the
            # store attached: must be a complete answer).
            out = request("baseline", 0)
            baseline = None
            if out and out[0] == 200 and not out[1].get("degraded"):
                baseline = normalized(out[1])
            else:
                failures.append(f"baseline query not complete: {out}")

            # Phase 6 — SIGTERM drain with a request in flight.
            print("phase 6: SIGTERM drain with one request in flight")
            drained: dict = {}

            def drain_request():
                drained["out"] = request("drain", 17)

            t = threading.Thread(target=drain_request)
            t.start()
            time.sleep(min(args.slow * 0.5, 0.5))
            if not stop_server(proc, "soak server"):
                failures.append("drain shutdown failed")
            t.join(timeout=120)
            out = drained.get("out")
            if not out or out[0] != 200:
                failures.append(
                    f"in-flight request was dropped by shutdown: {out}"
                )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

        # Verify every 200 against the oracle.
        checked = 0
        for who, idx, status, payload in results:
            if status != 200 or payload.get("status") == "error":
                continue
            if not check_against_oracle(payload, oracles[idx], f"{who}[{idx}]"):
                failures.append(f"{who}[{idx}]: oracle check failed")
            checked += 1
        print(f"oracle-checked {checked} responses "
              f"({observed_503} deliberate sheds)")
        kinds = {
            f["kind"]
            for _, _, status, payload in results
            if status == 200
            for f in payload.get("failures", [])
        }
        print(f"failure kinds absorbed: {sorted(kinds)}")
        if "store" not in kinds:
            failures.append("injected store failure never surfaced")
        if "deadline" not in kinds:
            failures.append("tight deadlines never produced a deadline record")

        # Phase 7 — restart over the same store; the re-query must match
        # the pre-shutdown baseline graph byte-for-byte.
        print("phase 7: restart and re-query")
        proc2, port2 = start_server(["--store", str(db)])
        try:
            status, payload = post_analyze(port2, {
                "source": kernels[0], "name": "soak0",
            })
            if status != 200:
                failures.append(f"restart re-query failed: HTTP {status}")
            elif baseline is not None and normalized(payload) != baseline:
                failures.append("restarted server answered the re-query "
                                "with a different graph")
            else:
                print("  re-query graph identical to pre-shutdown baseline")
        finally:
            if not stop_server(proc2, "restarted server"):
                failures.append("restarted server shutdown failed")

        verify = subprocess.run(
            [sys.executable, "-m", "repro", "store", "verify", str(db)],
            capture_output=True, text=True, env=serve_env(),
        )
        if verify.returncode != 0:
            failures.append(f"store does not verify clean:\n{verify.stdout}")
        else:
            print("store verifies clean")

    if failures:
        print(f"\n{len(failures)} soak violation(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("OK: service soak contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
