"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "kern.f"
    path.write_text(
        """
      subroutine kern(n, a, b)
      integer n, i
      real a(n), b(n)
      do 10 i = 1, n
         a(i+1) = a(i) + b(i)
   10 continue
      end
"""
    )
    return path


class TestAnalyze:
    def test_analyze_runs(self, kernel_file, capsys):
        assert main(["analyze", str(kernel_file)]) == 0
        out = capsys.readouterr().out
        assert "routine kern" in out
        assert "flow" in out
        assert "DO i" in out

    def test_analyze_counts(self, kernel_file, capsys):
        assert main(["analyze", str(kernel_file), "--counts"]) == 0
        out = capsys.readouterr().out
        assert "strong-siv" in out

    def test_analyze_transforms(self, tmp_path, capsys):
        path = tmp_path / "peel.f"
        path.write_text(
            "do i = 1, 9\n b(i) = a(1)\n a(i) = c(i)\nenddo\n"
        )
        assert main(["analyze", str(path), "--transforms"]) == 0
        out = capsys.readouterr().out
        assert "peel" in out


class TestAnalyzeEngineFlags:
    def test_analyze_no_cache(self, kernel_file, capsys):
        assert main(["analyze", str(kernel_file), "--no-cache", "--counts"]) == 0
        out = capsys.readouterr().out
        assert "strong-siv" in out
        assert "cache:" not in out

    def test_analyze_counts_report_cache(self, kernel_file, capsys):
        assert main(["analyze", str(kernel_file), "--counts"]) == 0
        assert "cache:" in capsys.readouterr().out

    def test_analyze_profile(self, kernel_file, capsys):
        assert main(["analyze", str(kernel_file), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "prepare" in out

    def test_analyze_no_profile_by_default(self, kernel_file, capsys):
        assert main(["analyze", str(kernel_file)]) == 0
        assert "phase timings" not in capsys.readouterr().out

    def test_no_cache_matches_cached(self, kernel_file, capsys):
        # Statement labels (S1, S2, ...) come from a global construction
        # counter, so they drift between parses; mask them before
        # comparing verdict output across engine configurations.
        def normalized(argv):
            main(argv)
            return re.sub(r"\bS\d+\b", "S#", capsys.readouterr().out)

        cached = normalized(["analyze", str(kernel_file)])
        assert normalized(["analyze", str(kernel_file), "--no-cache"]) == cached


class TestMissingInput:
    def test_analyze_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.f"
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert "cannot read" in captured.err
        assert str(path) in captured.err
        assert "Traceback" not in captured.err

    def test_vectorize_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.f"
        assert main(["vectorize", str(path)]) == 1
        captured = capsys.readouterr()
        assert "cannot read" in captured.err
        assert "Traceback" not in captured.err

    def test_analyze_unreadable_directory(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestSyntaxErrors:
    @pytest.fixture()
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.f"
        path.write_text(
            "      subroutine s(a, n)\n"
            "      do 10 i = 1 %% n\n"
            " 10   continue\n"
            "      end\n"
        )
        return path

    def test_analyze_syntax_error_exits_2_with_diagnostic(
        self, broken_file, capsys
    ):
        assert main(["analyze", str(broken_file)]) == 2
        captured = capsys.readouterr()
        assert "syntax error" in captured.err
        assert "line 2" in captured.err
        assert "column" in captured.err
        assert "^" in captured.err
        assert "Traceback" not in captured.err

    def test_vectorize_syntax_error_exits_2(self, broken_file, capsys):
        assert main(["vectorize", str(broken_file)]) == 2
        captured = capsys.readouterr()
        assert "syntax error" in captured.err
        assert "Traceback" not in captured.err


class TestFaultHandling:
    def test_degraded_analyze_exits_0_and_reports(
        self, kernel_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "pair-error:a")
        assert main(["analyze", str(kernel_file)]) == 0
        out = capsys.readouterr().out
        assert "[assumed]" in out
        assert "fault report" in out
        assert "InjectedFaultError" in out

    def test_strict_analyze_exits_3(self, kernel_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "pair-error:a")
        assert main(["analyze", str(kernel_file), "--strict"]) == 3
        captured = capsys.readouterr()
        assert "aborted by --strict" in captured.err

    def test_degraded_routine_is_skipped(self, kernel_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "routine-error:kern")
        assert main(["analyze", str(kernel_file)]) == 0
        out = capsys.readouterr().out
        assert "routine skipped after failure" in out
        assert "fault report" in out


class TestCorpusCommand:
    def test_lists_suites(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "linpack" in out and "eispack" in out


class TestStudyCommand:
    def test_single_table(self, capsys):
        assert main(["study", "--table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_table2(self, capsys):
        assert main(["study", "--table", "2"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestArgErrors:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestVectorizeCommand:
    def test_vectorize_runs(self, kernel_file, capsys):
        assert main(["vectorize", str(kernel_file)]) == 0
        out = capsys.readouterr().out
        assert "routine kern" in out
        assert "DO i" in out  # the recurrence on a stays serial

    def test_vectorize_parallel_kernel(self, tmp_path, capsys):
        path = tmp_path / "vec.f"
        path.write_text("do i = 1, 9\n a(i) = b(i)\nenddo\n")
        assert main(["vectorize", str(path)]) == 0
        assert "FORALL" in capsys.readouterr().out
