"""One routine pipeline behind ``analyze``, ``vectorize``, ``serve`` and
``corpus run``.

Every entry point reads source through :func:`repro.pipeline.parse_source`,
so the scalar prepass runs before any subscript is tested, and reports a
routine in one encoding with dense statement ids, so the entry points
print the same text for the same source.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus.loader import KERNEL_ROOT
from repro.service.server import ServiceConfig
from tests.test_service import ServiceHarness

ROOT = Path(__file__).resolve().parents[1]

#: ``k`` is ``i + 1`` in every iteration: the write ``a(k)`` feeds the
#: next iteration's read ``a(k-1)``.
SHIFTED = """\
      subroutine s1(a, n)
      real a(100)
      do 10 i = 1, n
         k = i + 1
         a(k) = a(k-1)
   10 continue
      end
"""

#: A subscripted subscript: ``k`` is unknown in every iteration.
INDIRECT = """\
      subroutine s2(a, b, c, idx, n)
      real a(100), b(100), c(100)
      integer idx(100)
      do 10 i = 1, n
         k = idx(i)
         a(k) = c(i)
         b(k) = a(k-1)
   10 continue
      end
"""

#: A geometric recurrence: not an induction variable.
GEOMETRIC = """\
      subroutine s3(a, n)
      real a(100)
      k = 1
      do 10 i = 1, n
         k = k*2 + 1
         a(k) = a(k-1)
   10 continue
      end
"""

#: ``k`` is the loop index under another name.
RENAMED = """\
      subroutine s4(a, b, c, n)
      real a(100), b(100), c(100)
      do 10 i = 1, n
         k = i
         a(k) = c(i)
         b(k) = a(k-1)
   10 continue
      end
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


def cli(capsys, *argv):
    assert main([str(arg) for arg in argv]) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def service():
    with ServiceHarness(ServiceConfig()) as harness:
        yield f"http://127.0.0.1:{harness.service.port}"


class TestScalarPrepass:
    """``analyze`` and ``client`` ran without the prepass and called
    these pairs independent; ``corpus run`` did not."""

    def test_shifted_index_keeps_the_flow_edge(self, tmp_path, capsys, service):
        path = write(tmp_path, "shifted.f", SHIFTED)
        out = cli(capsys, "analyze", path)
        assert "flow a((i + 1)) (S1) -> a(((i + 1) - 1)) (S1) {(<)}" in out
        assert "(2 pairs tested, 0 independent)" in out
        assert cli(capsys, "client", path, "--url", service) == out

    @pytest.mark.parametrize(
        "source, pairs", [(INDIRECT, 3), (GEOMETRIC, 2)], ids=["idx", "geometric"]
    )
    def test_unknown_scalar_stays_opaque(
        self, tmp_path, capsys, service, source, pairs
    ):
        path = write(tmp_path, "opaque.f", source)
        out = cli(capsys, "analyze", path)
        assert f"({pairs} pairs tested, 0 independent)" in out
        assert re.search(r"flow a\(k\?\) \(S\d\) -> a\(\(k\? - 1\)\)", out)
        assert re.search(r"anti a\(\(k\? - 1\)\) \(S\d\) -> a\(k\?\)", out)
        assert cli(capsys, "client", path, "--url", service) == out

    def test_vectorize_writes_before_it_reads(self, tmp_path, capsys):
        out = cli(capsys, "vectorize", write(tmp_path, "renamed.f", RENAMED))
        assert out.index("a(i) = c(i)") < out.index("b(i) = a((i - 1))")


def test_analyze_strict_exits_3_on_a_routine_crash(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "routine-error:s1")
    assert main(["analyze", str(write(tmp_path, "k.f", SHIFTED)), "--strict"]) == 3
    err = capsys.readouterr().err
    assert "aborted by --strict: InjectedFaultError: " in err
    assert "Traceback" not in err


def test_service_quarantines_a_crashed_routine(tmp_path, capsys, monkeypatch, service):
    path = write(tmp_path, "k.f", SHIFTED + RENAMED)
    monkeypatch.setenv("REPRO_FAULTS", "routine-error:s1")
    analyzed = cli(capsys, "analyze", path)
    served = cli(capsys, "client", path, "--url", service)
    skipped = "== routine s1 ==\nroutine skipped after failure: InjectedFaultError"
    assert analyzed.startswith(skipped)
    assert served.startswith(skipped)
    # The other routine is reported; the degraded trailers differ.
    routine = analyzed[analyzed.index("== routine s4 ==") :].split("\n\n")[0]
    assert routine in served
    assert "[routine] k/s1: InjectedFaultError" in served


# -- one text on every entry point ---------------------------------------------


def dense_file(tmp_path):
    """The end-to-end benchmark's dense input at a tiny scale."""
    spec = importlib.util.spec_from_file_location(
        "_pipeline_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(workloads)
        routines = workloads.dense_routines(1, 0.02)
    finally:
        del sys.modules[spec.name]
    return write(tmp_path, "dense.f", "".join(source for _, source in routines))


def routine_bodies(text, header):
    """Each routine's text after its header line, in order."""
    return [chunk.partition("\n")[2] for chunk in text.split(header)[1:]]


def test_every_entry_point_prints_the_same_report(tmp_path, capsys, service):
    tree = tmp_path / "tree"
    files = {}
    for path in sorted(KERNEL_ROOT.glob("*/*.f")):
        rel = path.relative_to(KERNEL_ROOT).as_posix()
        files[rel] = tree / rel
        files[rel].parent.mkdir(parents=True, exist_ok=True)
        files[rel].write_bytes(path.read_bytes())
    files["dense.f"] = dense_file(tree)
    walked = cli(capsys, "corpus", "run", tree)
    corpus = re.split(r"^== file (.+) ==\n", walked, flags=re.M)
    reports = dict(zip(corpus[1::2], corpus[2::2]))
    assert sorted(reports) == sorted(files)
    routines = 0
    for rel, path in files.items():
        for flags in (["--transforms"], []):
            analyzed = cli(capsys, "analyze", path, *flags)
            served = cli(capsys, "client", path, "--url", service, *flags)
            assert served == analyzed, (rel, flags)
        bodies = routine_bodies(analyzed, "== routine ")
        assert bodies and all(body.endswith("\n\n") for body in bodies), rel
        assert [body[:-1] for body in bodies] == routine_bodies(
            reports[rel], "-- routine "
        ), rel
        routines += len(bodies)
    assert routines > 101


def test_analyze_and_corpus_run_leave_the_service_unloaded(tmp_path):
    path = write(tmp_path, "k.f", SHIFTED)
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"assert main(['analyze', {str(path)!r}]) == 0\n"
        f"assert main(['corpus', 'run', {str(tmp_path)!r}]) == 0\n"
        "print([name for name in sys.modules if name.startswith('repro.service')])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
