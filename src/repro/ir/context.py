"""Loop contexts: index ranges, trip spans, and symbol environments.

This module implements the index-range algorithm of Section 4.3 of the
paper: for loop nests whose bounds reference outer loop indices (triangular
or trapezoidal nests), compute the *maximal* constant range of each index by
substituting the ranges of outer indices into the bound expressions,
outermost-in.  The resulting ranges are all the SIV tests need; Banerjee's
inequalities also consume them (the "triangular Banerjee" enhancement).

Symbolic loop bounds (``N``, ``M``) evaluate through a :class:`SymbolEnv`,
which records any known facts about symbols (e.g. ``N >= 1``).  Unknown
symbols yield unbounded ranges, keeping every test conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.ir.expr import to_linear
from repro.ir.loop import Loop
from repro.memo import routine_memo
from repro.symbolic.linexpr import LinearExpr, NonlinearExpressionError
from repro.symbolic.ranges import Interval, NEG_INF, POS_INF


@dataclass
class SymbolEnv:
    """Known ranges for loop-invariant symbols.

    The default environment knows nothing: every symbol ranges over the whole
    line.  Callers may assert facts such as ``N in [1, +inf)`` — the corpus
    study asserts lower bounds of 1 for size symbols, matching the paper's
    implicit assumption that loops execute at least once.
    """

    ranges: Dict[str, Interval] = field(default_factory=dict)

    def range_of(self, name: str) -> Interval:
        """The known range of ``name`` (unbounded when unknown)."""
        return self.ranges.get(name, Interval.unbounded())

    def assume(self, name: str, lo=NEG_INF, hi=POS_INF) -> "SymbolEnv":
        """Return a new environment with an added assumption."""
        updated = dict(self.ranges)
        updated[name] = updated.get(name, Interval.unbounded()).intersect(
            Interval(lo, hi)
        )
        return SymbolEnv(updated)


def eval_interval(expr: LinearExpr, env: Mapping[str, Interval]) -> Interval:
    """Interval evaluation of an affine form under per-variable ranges."""
    result = Interval.point(expr.const)
    for name, coeff in expr.terms:
        var_range = env.get(name, Interval.unbounded())
        result = result + var_range.scale(coeff)
    return result


class LoopContext:
    """The enclosing loops shared by a reference pair, plus symbol knowledge.

    Provides the per-index maximal ranges (Section 4.3), the trip span
    ``U - L`` used by the strong SIV test, and nesting levels for
    direction-vector construction.  Ranges are computed once at
    construction.
    """

    def __init__(self, loops: Sequence[Loop], symbols: Optional[SymbolEnv] = None):
        self.loops: Tuple[Loop, ...] = tuple(loops)
        self.symbols = symbols or SymbolEnv()
        self._levels: Dict[str, int] = {}
        self._ranges: Dict[str, Interval] = {}
        self._lower: Dict[str, Optional[LinearExpr]] = {}
        self._upper: Dict[str, Optional[LinearExpr]] = {}
        self._trip_span: Dict[str, Interval] = {}
        self._compute()

    # ------------------------------------------------------------------

    def _compute(self) -> None:
        env: Dict[str, Interval] = dict(self.symbols.ranges)
        for level, loop in enumerate(self.loops, start=1):
            if loop.step != 1:
                raise ValueError(
                    f"loop {loop.index} has step {loop.step}; run "
                    "repro.ir.normalize.normalize_steps first"
                )
            self._levels[loop.index] = level
            lower = _linear_or_none(loop.lower)
            upper = _linear_or_none(loop.upper)
            self._lower[loop.index] = lower
            self._upper[loop.index] = upper
            lo_iv = eval_interval(lower, env) if lower is not None else Interval.unbounded()
            hi_iv = eval_interval(upper, env) if upper is not None else Interval.unbounded()
            index_range = Interval(lo_iv.lo, hi_iv.hi)
            self._ranges[loop.index] = index_range
            env[loop.index] = index_range
            if lower is not None and upper is not None:
                self._trip_span[loop.index] = eval_interval(upper - lower, env)
            else:
                self._trip_span[loop.index] = Interval.unbounded()

    # ------------------------------------------------------------------

    @property
    def indices(self) -> Tuple[str, ...]:
        """Loop index names, outermost first."""
        return tuple(loop.index for loop in self.loops)

    @property
    def depth(self) -> int:
        """Number of loops in the context."""
        return len(self.loops)

    def level(self, index: str) -> int:
        """1-based nesting level of ``index`` (1 = outermost)."""
        return self._levels[index]

    def index_range(self, index: str) -> Interval:
        """Maximal constant range of ``index`` per the Section 4.3 algorithm."""
        return self._ranges[index]

    def index_ranges(self) -> Dict[str, Interval]:
        """Copy of the full index-range map."""
        return dict(self._ranges)

    def lower_expr(self, index: str) -> Optional[LinearExpr]:
        """Affine lower bound of ``index`` (None when non-affine)."""
        return self._lower[index]

    def upper_expr(self, index: str) -> Optional[LinearExpr]:
        """Affine upper bound of ``index`` (None when non-affine)."""
        return self._upper[index]

    def trip_span(self, index: str) -> Interval:
        """Range of ``U - L`` for the loop on ``index``.

        The strong SIV test proves independence when ``|d| > U - L``; with a
        triangular or symbolic bound this is an interval and the test uses
        its maximum (conservative).
        """
        return self._trip_span[index]

    def variable_env(self) -> Dict[str, Interval]:
        """Ranges for *all* variables: indices plus known symbols."""
        env = dict(self.symbols.ranges)
        env.update(self._ranges)
        return env

    def is_index(self, name: str) -> bool:
        """True when ``name`` is one of this context's loop indices."""
        return name in self._levels

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{loop.index}=[{loop.lower}..{loop.upper}]" for loop in self.loops
        )
        return f"LoopContext({inner})"


def _linear_or_none(expr) -> Optional[LinearExpr]:
    try:
        return to_linear(expr)
    except NonlinearExpressionError:
        return None


#: Loop contexts by loop-stack identity; one graph build's worth (see
#: :mod:`repro.memo`).  Values hold the loops, so ids in keys stay live.
_CONTEXT_CACHE: Dict[Tuple[Tuple[int, ...], int], LoopContext] = routine_memo()


def cached_loop_context(
    loops: Sequence[Loop], symbols: Optional[SymbolEnv] = None
) -> LoopContext:
    """Memoized :class:`LoopContext` construction.

    Dependence testing builds a context per reference pair, but the pairs
    of one routine share a handful of loop stacks; caching by loop-object
    identity (stacks are stable tuples of the parsed IR) makes whole-corpus
    analysis noticeably faster.  The cache empties when a graph build
    returns.
    """
    key = (tuple(id(loop) for loop in loops), id(symbols))
    context = _CONTEXT_CACHE.get(key)
    if context is None:
        context = LoopContext(loops, symbols)
        _CONTEXT_CACHE[key] = context
    return context
