"""Reference pairs: the unit of dependence testing.

A :class:`PairContext` packages everything the tests need about one ordered
pair of array references (the *source* and the *sink* of a candidate
dependence): the shared loop nest, each side's full loop stack, the
subscript pairs with the sink's loop indices *primed* (renamed ``i`` →
``i'``) so both references' index instances coexist in one equation, and the
maximal index ranges from the Section 4.3 algorithm.

Priming follows the paper's notation: a dependence from iteration vector
``i`` to ``i'`` exists when every subscript pair satisfies
``f(i) = g(i')`` within the loop bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.context import LoopContext, SymbolEnv, cached_loop_context
from repro.ir.expr import Expr, to_linear
from repro.ir.loop import AccessSite, Loop, common_loops
from repro.memo import routine_memo
from repro.symbolic.linexpr import (
    LinearExpr,
    NonlinearExpressionError,
    cached_renamer,
)
from repro.symbolic.ranges import Interval

PRIME_SUFFIX = "'"


def prime(name: str) -> str:
    """The primed (sink-side) instance name of loop index ``name``."""
    return name + PRIME_SUFFIX


def unprime(name: str) -> str:
    """Strip the prime suffix (identity for unprimed names)."""
    return name[:-len(PRIME_SUFFIX)] if name.endswith(PRIME_SUFFIX) else name


@dataclass
class SubscriptPair:
    """One subscript position of a reference pair.

    ``src`` and ``sink`` are the affine forms of the two subscript
    expressions — the sink's loop indices already primed — or None when the
    raw expression is nonlinear.  The dependence equation for the position
    is ``src == sink``.
    """

    position: int
    src_raw: Expr
    sink_raw: Expr
    src: Optional[LinearExpr]
    sink: Optional[LinearExpr]

    @property
    def is_linear(self) -> bool:
        """True when both sides normalized to affine forms."""
        return self.src is not None and self.sink is not None

    def difference(self) -> LinearExpr:
        """``src - sink``: the affine form whose zero set is the dependence."""
        if not self.is_linear:
            raise ValueError(f"subscript position {self.position} is nonlinear")
        assert self.src is not None and self.sink is not None
        return self.src - self.sink

    def __str__(self) -> str:
        return f"<{self.src_raw}, {self.sink_raw}>"


class PairContext:
    """Loop and range information shared by all tests on one reference pair."""

    def __init__(
        self,
        src_site: AccessSite,
        sink_site: AccessSite,
        symbols: Optional[SymbolEnv] = None,
    ):
        self.src_site = src_site
        self.sink_site = sink_site
        self.symbols = symbols or SymbolEnv()
        self.common: Tuple[Loop, ...] = common_loops(src_site, sink_site)
        self.common_indices: Tuple[str, ...] = tuple(l.index for l in self.common)
        self._src_ctx = cached_loop_context(src_site.loops, self.symbols)
        self._sink_ctx = cached_loop_context(sink_site.loops, self.symbols)
        self.subscripts: List[SubscriptPair] = self._build_subscripts()
        self._ranges: Dict[str, Interval] = self._build_ranges()

    # ------------------------------------------------------------------

    def _build_subscripts(self) -> List[SubscriptPair]:
        src_ref = self.src_site.ref
        sink_ref = self.sink_site.ref
        primer = cached_renamer(_prime_map(self._sink_ctx))
        pairs: List[SubscriptPair] = []
        for position, (s_raw, t_raw) in enumerate(
            zip(src_ref.subscripts, sink_ref.subscripts)
        ):
            src_lin = _linear_or_none(s_raw)
            sink_lin = _linear_or_none(t_raw)
            if sink_lin is not None:
                sink_lin = primer(sink_lin)
            pairs.append(SubscriptPair(position, s_raw, t_raw, src_lin, sink_lin))
        return pairs

    def _build_ranges(self) -> Dict[str, Interval]:
        # All the pairs over one (source stack, sink stack) combination see
        # the same ranges; share one frozen map across them.  Contexts are
        # interned by ``cached_loop_context``, so identity keying is exact.
        cache_key = (self._src_ctx, self._sink_ctx)
        shared = _SHARED_RANGES.get(cache_key)
        if shared is None:
            shared = dict(self.symbols.ranges)
            for idx in self._src_ctx.indices:
                shared[idx] = self._src_ctx.index_range(idx)
            for idx in self._sink_ctx.indices:
                shared[prime(idx)] = self._sink_ctx.index_range(idx)
            _SHARED_RANGES[cache_key] = shared
        return shared

    # ------------------------------------------------------------------

    @property
    def src_context(self) -> LoopContext:
        """The source side's full loop context (all enclosing loops)."""
        return self._src_ctx

    @property
    def sink_context(self) -> LoopContext:
        """The sink side's full loop context (all enclosing loops)."""
        return self._sink_ctx

    @property
    def rank_mismatch(self) -> bool:
        """True when the two references have different dimensionality.

        This cannot happen for conforming Fortran but the IR permits it;
        such pairs are treated conservatively (assume dependence).
        """
        return self.src_site.ref.ndim != self.sink_site.ref.ndim

    @property
    def depth(self) -> int:
        """Number of common loops."""
        return len(self.common)

    def is_index(self, base: str) -> bool:
        """True when ``base`` is a loop index of either side."""
        return self._src_ctx.is_index(base) or self._sink_ctx.is_index(base)

    def is_common(self, base: str) -> bool:
        """True when ``base`` indexes a loop common to both references."""
        return base in self.common_indices

    def level(self, base: str) -> int:
        """1-based level of a common loop index."""
        return self.common_indices.index(base) + 1

    def occurrence_names(self, base: str) -> Tuple[Optional[str], Optional[str]]:
        """The (source-side, sink-side) variable names of index ``base``.

        Either component is None when the corresponding reference is not
        enclosed by a loop on ``base``.
        """
        src_name = base if self._src_ctx.is_index(base) else None
        sink_name = prime(base) if self._sink_ctx.is_index(base) else None
        return src_name, sink_name

    def base_indices_of(self, expr: LinearExpr) -> Set[str]:
        """Base (unprimed) loop-index names occurring in an affine form."""
        bases: Set[str] = set()
        for name in expr.variables():
            base = unprime(name)
            if self.is_index(base):
                bases.add(base)
        return bases

    def subscript_bases(self, pair: SubscriptPair) -> FrozenSet[str]:
        """Base indices occurring in either side of a subscript pair.

        Nonlinear subscripts report the variables of their raw trees so the
        partitioner can still group them.
        """
        bases: Set[str] = set()
        if pair.src is not None:
            bases |= self.base_indices_of(pair.src)
        else:
            bases |= {v for v in pair.src_raw.variables() if self._src_ctx.is_index(v)}
        if pair.sink is not None:
            bases |= self.base_indices_of(pair.sink)
        else:
            bases |= {
                v for v in pair.sink_raw.variables() if self._sink_ctx.is_index(v)
            }
        return frozenset(bases)

    def range_of(self, name: str) -> Interval:
        """Range of a (possibly primed) index or a known symbol."""
        return self._ranges.get(name, Interval.unbounded())

    def variable_env(self) -> Dict[str, Interval]:
        """Full variable-range environment for interval evaluation."""
        return dict(self._ranges)

    def trip_span(self, base: str) -> Interval:
        """Range of ``U - L`` for the loop on ``base``.

        Uses the source side's loop when both sides have one (for common
        indices they are the same loop object).
        """
        if self._src_ctx.is_index(base):
            return self._src_ctx.trip_span(base)
        if self._sink_ctx.is_index(base):
            return self._sink_ctx.trip_span(base)
        return Interval.unbounded()

    def loop_for(self, base: str) -> Optional[Loop]:
        """The Loop node for a common index."""
        for loop in self.common:
            if loop.index == base:
                return loop
        return None

    def tightened(self, overrides: Dict[str, Interval]) -> "PairContext":
        """A shallow copy with some occurrence-variable ranges narrowed.

        Used by the Delta test's FME-style range reduction (the paper's
        Section 5.3 remark): constraints derived from one subscript narrow
        the iteration ranges the remaining subscripts are tested against.
        Ranges only ever shrink (the override intersects the original).
        """
        import copy

        clone = copy.copy(self)
        ranges = dict(self._ranges)
        for name, interval in overrides.items():
            ranges[name] = ranges.get(name, Interval.unbounded()).intersect(interval)
        clone._ranges = ranges
        return clone

    def __repr__(self) -> str:
        return (
            f"PairContext({self.src_site.ref} -> {self.sink_site.ref}, "
            f"common={list(self.common_indices)})"
        )


#: Shared, read-only range maps keyed by (source, sink) loop-context
#: identity.  ``PairContext`` instances never write to their ``_ranges``
#: (``tightened`` copies first), so sharing is safe; one graph build's
#: worth, like the loop-context cache (see :mod:`repro.memo`).
_SHARED_RANGES: Dict[Tuple[LoopContext, LoopContext], Dict[str, Interval]] = (
    routine_memo()
)

#: The sink-priming map of each sink loop context, one per context so that
#: ``cached_renamer`` (keyed by map identity) hits across the context's
#: pairs; one graph build's worth, like ``_SHARED_RANGES``.
_PRIME_MAPS: Dict[LoopContext, Dict[str, str]] = routine_memo()


def _prime_map(sink_ctx: LoopContext) -> Dict[str, str]:
    """``{i: i'}`` over the sink context's indices, shared per context."""
    mapping = _PRIME_MAPS.get(sink_ctx)
    if mapping is None:
        mapping = {idx: prime(idx) for idx in sink_ctx.indices}
        _PRIME_MAPS[sink_ctx] = mapping
    return mapping


#: Value-keyed linearization memo.  Expression trees are immutable and hash
#: by value, so structurally equal subscripts (ubiquitous across the pairs
#: of one routine) share a single ``to_linear`` walk.  Bounded and cleared
#: wholesale like the loop-context cache — entries are cheap to rebuild.
_LINEAR_CACHE: Dict[Expr, Optional[LinearExpr]] = {}
_MISSING = object()


def _linear_or_none(expr: Expr) -> Optional[LinearExpr]:
    cached = _LINEAR_CACHE.get(expr, _MISSING)
    if cached is not _MISSING:
        return cached
    try:
        linear: Optional[LinearExpr] = to_linear(expr)
    except NonlinearExpressionError:
        linear = None
    if len(_LINEAR_CACHE) > 8192:
        _LINEAR_CACHE.clear()
    _LINEAR_CACHE[expr] = linear
    return linear
