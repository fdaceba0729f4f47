"""Corpus-wide oracle validation.

For the suites whose kernels have small enumerable iteration spaces once
the size symbols are pinned to concrete values, every candidate reference
pair's driver verdict is checked against brute-force enumeration:
independence claims must be truly independent, direction vectors must
cover the truth, and exact results must be dead-on.

Pairs whose subscripts or bounds reference values the oracle cannot
evaluate (opaque scalars, index arrays) are skipped — the skip count is
asserted to stay a minority so the sweep keeps its teeth.
"""

import pytest

from repro.core.driver import test_dependence
from repro.graph.depgraph import iter_candidate_pairs
from repro.ir.context import SymbolEnv
from repro.corpus.loader import load_suite

from tests.oracle import brute_force_vectors, eval_expr


@pytest.fixture(autouse=True, params=["reference"])
def reference_suite(request):
    """Tag every test here ``[reference]``: its verdicts come from the
    scalar reference tests, and the id keeps test names stable."""
    return request.param

#: Concrete values for the corpus size symbols: small enough to enumerate,
#: big enough to exercise offsets up to ~4.
SYMBOL_VALUES = {
    "n": 7, "m": 6, "nm": 7, "lda": 7, "ldt": 7, "ldm": 7,
    "il": 6, "jl": 6, "jn": 6, "kn": 6, "n1": 6, "n2": 6, "nt": 3,
    "low": 1, "igh": 6, "nnz": 7, "k": 2, "inc": 2, "itmax": 2,
    "ncycle": 2, "matz": 1,
}


def concrete_env() -> SymbolEnv:
    env = SymbolEnv()
    for name, value in SYMBOL_VALUES.items():
        env = env.assume(name, lo=value, hi=value)
    return env


def _oracle_size(site, values) -> int:
    total = 1
    for loop in site.loops:
        try:
            lo = eval_expr(loop.lower, dict(values))
            hi = eval_expr(loop.upper, dict(values))
        except (KeyError, ValueError):
            return -1
        total *= max(0, hi - lo + 1)
    return total


@pytest.mark.parametrize("suite", ["cdl", "linpack", "livermore", "eispack", "riceps"])
def test_suite_against_oracle(suite):
    symbols = concrete_env()
    checked = skipped = 0
    for program in load_suite(suite):
        for routine in program.routines:
            sites = routine.access_sites()
            for src, sink in iter_candidate_pairs(sites):
                if _oracle_size(src, SYMBOL_VALUES) < 0 or _oracle_size(
                    sink, SYMBOL_VALUES
                ) < 0:
                    skipped += 1
                    continue
                if (
                    _oracle_size(src, SYMBOL_VALUES)
                    * _oracle_size(sink, SYMBOL_VALUES)
                    > 500_000
                ):
                    skipped += 1
                    continue
                try:
                    truth = brute_force_vectors(src, sink, dict(SYMBOL_VALUES))
                except (KeyError, ValueError):
                    skipped += 1  # opaque scalar / index array in a subscript
                    continue
                result = test_dependence(src, sink, symbols)
                checked += 1
                label = (program.name, routine.name, str(src.ref), str(sink.ref))
                if result.independent:
                    assert not truth, label
                else:
                    assert truth <= result.direction_vectors, label
                    if result.exact:
                        # "exact" certifies the existence verdict (a real
                        # dependence exists), not vector-set tightness.
                        assert truth, label
    assert checked > 20, f"{suite}: oracle sweep lost its teeth ({checked} checked)"
    # deep triple nests exceed the enumeration cap (eispack especially);
    # the sweep keeps teeth as long as a healthy absolute count is checked.
    assert skipped <= 2 * checked, f"{suite}: too many skips ({skipped} vs {checked})"
