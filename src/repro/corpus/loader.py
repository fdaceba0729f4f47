"""Corpus loader: the benchmark programs of the empirical study.

The paper measured PFC over RiCEPS, the Perfect and SPEC suites, and the
eispack/linpack libraries.  Those exact sources are not redistributable (and
RiCEPS is long gone), so the corpus contains kernels written in the Fortran
subset with the same *subscript structure*: linear-algebra factorizations
(linpack), symmetric eigensolver sweeps with transposed/coupled accesses
(eispack), PDE stencils and physics sweeps (riceps/perfect/spec), Livermore
loops, and the Callahan-Dongarra-Levine vector suite patterns, including
nonlinear index-array subscripts.  What the study measures — dimension
histograms, separable/coupled/nonlinear counts, subscript classes, test
hit-rates — depends only on that structure.

Programs load lazily from ``kernels/<suite>/<name>.f`` through the shared
front end (:func:`repro.pipeline.parse_source`): the paper's assumed
prepasses — scalar and induction-variable substitution, then loop-step
normalization — run before analysis.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.ir.context import SymbolEnv
from repro.ir.program import Program
from repro.pipeline import parse_source

KERNEL_ROOT = Path(__file__).parent / "kernels"

#: Suite names in the order the paper's tables list their groups.
SUITES = ("riceps", "perfect", "spec", "eispack", "linpack", "livermore", "cdl")

#: Symbols standing for problem sizes get a lower bound of 1, matching the
#: paper's implicit assumption that measured loops execute.
SIZE_SYMBOLS = (
    "n", "m", "nm", "lda", "ldt", "ldm", "il", "jl", "jn", "kn",
    "n1", "n2", "nt", "low", "igh",
)


def default_symbols() -> SymbolEnv:
    """Symbol environment asserting size symbols are at least 1."""
    env = SymbolEnv()
    for name in SIZE_SYMBOLS:
        env = env.assume(name, lo=1)
    return env


def available_suites() -> List[str]:
    """Suites present on disk, in table order."""
    found = [s for s in SUITES if (KERNEL_ROOT / s).is_dir()]
    return found


def available_programs(suite: str) -> List[str]:
    """Program (file stem) names of one suite, sorted."""
    suite_dir = KERNEL_ROOT / suite
    if not suite_dir.is_dir():
        raise ValueError(f"unknown corpus suite {suite!r}")
    return sorted(path.stem for path in suite_dir.glob("*.f"))


def load_program(suite: str, name: str) -> Program:
    """Load one corpus program through the shared front end."""
    path = KERNEL_ROOT / suite / f"{name}.f"
    if not path.is_file():
        raise FileNotFoundError(f"no corpus kernel {suite}/{name}.f")
    return parse_source(path.read_bytes(), name, suite)


def load_suite(suite: str) -> List[Program]:
    """Load every program of one suite."""
    return [load_program(suite, name) for name in available_programs(suite)]


def load_corpus(suites: Optional[List[str]] = None) -> Dict[str, List[Program]]:
    """Load the whole corpus (or selected suites) keyed by suite name."""
    chosen = suites or available_suites()
    return {suite: load_suite(suite) for suite in chosen}
