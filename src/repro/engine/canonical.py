"""Canonical pair keys: structural identity for reference pairs.

Two reference pairs are *structurally identical* when every quantity the
partition-based driver can observe about them is equal after a consistent
renaming of their loop indices: per-position affine subscript forms, the
index ranges and trip spans of both loop stacks, which loops are common
(and at which nesting position), and the ranges of every symbolic name
mentioned.  The driver's verdict is a function of exactly that
information, so structurally identical pairs may share one test result.

The canonical renaming is positional: the common loop at position ``k``
becomes ``%c<k>``, a source-only loop at nesting level ``l`` becomes
``%s<l>``, a sink-only loop ``%t<l>``; primed (sink-instance) occurrences
keep their prime.  Symbolic constants keep their own (interned) names —
their known ranges are part of the key, so equal names with different
assumptions never collide.  The ``%`` prefix cannot occur in a Fortran
identifier, so canonical names never collide with real symbols.

A cached verdict is stored in the same canonical vocabulary
(:class:`CacheEntry`) and *rehydrated* against the concrete
:class:`~repro.classify.pairs.PairContext` of each pair it serves:
constraint maps, couplings, distances, and test outcomes are renamed back
to the pair's real index names, so downstream consumers (graph edges, the
peel/split advisors) see results indistinguishable from a fresh test run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.classify.pairs import PairContext, prime
from repro.core.driver import DependenceResult
from repro.dirvec.direction import IndexConstraint
from repro.dirvec.vectors import Coupling, DependenceInfo, DirectionVector
from repro.instrument import TestRecorder
from repro.ir.context import LoopContext
from repro.memo import routine_memo
from repro.single.outcome import TestOutcome
from repro.symbolic.linexpr import CachedRenamer, LinearExpr, cached_renamer

CanonicalKey = Tuple[Hashable, ...]

#: Marker distinguishing nonlinear subscript positions in a key.
_NONLINEAR = "nl"

_NAME_POOL = 16  # loop depths beyond this fall back to f-string interning


def _name_table(prefix: str) -> Tuple[str, ...]:
    return tuple(sys.intern(f"%{prefix}{n}") for n in range(_NAME_POOL))


_C_NAMES = _name_table("c")
_S_NAMES = _name_table("s")
_T_NAMES = _name_table("t")


def _canon_name(table: Tuple[str, ...], prefix: str, n: int) -> str:
    if n < _NAME_POOL:
        return table[n]
    return sys.intern(f"%{prefix}{n}")


#: Rename maps by (source, sink) loop-context identity: the map is a pure
#: function of the two stacks (their indices and longest common prefix),
#: and contexts are interned by ``cached_loop_context``, so all the pairs
#: over one stack combination share one map object.  Never mutated after
#: construction.  Lasts one graph build, like the contexts it is keyed
#: by (see :mod:`repro.memo`).
_RENAME_MAPS: Dict[Tuple[LoopContext, LoopContext], Dict[str, str]] = (
    routine_memo()
)

#: Inverse (canonical → original) maps by rename-map identity; the value
#: holds the forward map so its id stays stable while the entry lives.
_INVERSE_MAPS: Dict[int, Tuple[Dict[str, str], Dict[str, str]]] = routine_memo()


def rename_map(context: PairContext) -> Dict[str, str]:
    """Original → canonical name map for every index occurrence of a pair.

    Covers the unprimed (source-instance) and primed (sink-instance) forms
    of every loop index of either side.  Symbolic constants are absent —
    they keep their own names.  The map is injective, so it inverts for
    rehydration.  The returned dict is shared across pairs with the same
    loop stacks and must not be mutated.
    """
    memo_key = (context.src_context, context.sink_context)
    cached = _RENAME_MAPS.get(memo_key)
    if cached is not None:
        return cached
    mapping: Dict[str, str] = {}
    depth = context.depth
    for position, index in enumerate(context.common_indices):
        canon = _canon_name(_C_NAMES, "c", position)
        mapping[index] = canon
        mapping[prime(index)] = prime(canon)
    for level, loop in enumerate(context.src_site.loops[depth:], start=depth):
        mapping.setdefault(loop.index, _canon_name(_S_NAMES, "s", level))
    for level, loop in enumerate(context.sink_site.loops[depth:], start=depth):
        canon = _canon_name(_T_NAMES, "t", level)
        mapping[prime(loop.index)] = prime(canon)
        # An unprimed mention of a sink-only index (a source subscript using
        # the name outside any enclosing loop on it) resolves to the sink
        # loop only when no source loop claims the name.
        mapping.setdefault(loop.index, canon)
    _RENAME_MAPS[memo_key] = mapping
    return mapping


def canonical_pair_key(
    context: PairContext, mapping: Optional[Dict[str, str]] = None
) -> CanonicalKey:
    """The hashable structural identity of one ordered reference pair.

    Components: dimensionality of both references, common depth, per-level
    index ranges and trip spans of both loop stacks, the canonicalized
    affine form (or nonlinear marker + coupled index bases) of every
    subscript position, and the range of every mentioned variable under
    its canonical name.  Everything is plain data — the key pickles and
    hashes cheaply.
    """
    if mapping is None:
        mapping = rename_map(context)
    var_ranges: Dict[str, Tuple] = {}

    def canon_expr(expr: LinearExpr) -> Tuple:
        terms = []
        for name, coeff in expr.terms:
            canon = mapping.get(name, sys.intern(name))
            if canon not in var_ranges:
                interval = context.range_of(name)
                var_ranges[canon] = (interval.lo, interval.hi)
            terms.append((canon, coeff))
        terms.sort()
        return (tuple(terms), expr.const)

    subscripts: List[Tuple] = []
    for pair in context.subscripts:
        if pair.is_linear:
            assert pair.src is not None and pair.sink is not None
            subscripts.append((canon_expr(pair.src), canon_expr(pair.sink)))
        else:
            # Opaque to every test: only the coupled index bases matter
            # (they decide the partition the position lands in).
            bases = tuple(
                sorted(
                    mapping.get(base, base)
                    for base in context.subscript_bases(pair)
                )
            )
            sides = (pair.src is not None, pair.sink is not None)
            subscripts.append((_NONLINEAR, sides, bases))

    return (
        context.src_site.ref.ndim,
        context.sink_site.ref.ndim,
        context.depth,
        _stack_fingerprint(context.src_context),
        _stack_fingerprint(context.sink_context),
        tuple(subscripts),
        tuple(sorted(var_ranges.items())),
    )


def _stack_fingerprint(loop_ctx: LoopContext) -> Tuple:
    """Per-level (range, trip span) data of one side's full loop stack.

    Loop contexts are shared across all the pairs of a routine (see
    :func:`~repro.ir.context.cached_loop_context`), so the fingerprint is
    computed once and memoized on the context object.
    """
    cached = getattr(loop_ctx, "_canon_fingerprint", None)
    if cached is not None:
        return cached
    parts = []
    for index in loop_ctx.indices:
        interval = loop_ctx.index_range(index)
        span = loop_ctx.trip_span(index)
        parts.append((interval.lo, interval.hi, span.lo, span.hi))
    fingerprint = tuple(parts)
    loop_ctx._canon_fingerprint = fingerprint
    return fingerprint


# ---------------------------------------------------------------------------
# Canonical result entries
# ---------------------------------------------------------------------------


@dataclass
class CacheEntry:
    """One driver verdict in canonical (pair-independent) vocabulary.

    ``recorder`` holds the test-application counters the pair's test run
    produced (including the Delta test's inner applications), so replaying
    a hit keeps Table 3 statistics byte-identical to a fresh run.
    ``vectors`` precomputes the verdict's direction-vector set — vectors
    are tuples of :class:`~repro.dirvec.direction.Direction` and mention no
    names, so every pair served by this entry shares the same set and
    rehydration never re-expands the constraint system.  Entries contain no
    references to loops, sites, or contexts — they pickle cleanly across
    process boundaries.
    """

    independent: bool
    exact: bool
    info: DependenceInfo
    outcomes: List[TestOutcome]
    recorder: TestRecorder
    vectors: FrozenSet[DirectionVector] = frozenset()
    #: Conservative-degradation marker: the verdict was assumed after a
    #: test failure (see :mod:`repro.engine.faults`), with the reason.
    #: Assumed entries carry an empty recorder — the failed pair
    #: contributes no Table 3 counters, keeping surviving-pair statistics
    #: byte-identical to a clean run.
    assumed: bool = False
    failure: Optional[str] = None


def canonicalize_result(
    result: DependenceResult,
    mapping: Dict[str, str],
    recorder: TestRecorder,
) -> CacheEntry:
    """Strip a fresh driver result down to a canonical :class:`CacheEntry`."""
    renamer = cached_renamer(mapping)
    return CacheEntry(
        independent=result.independent,
        exact=result.exact,
        info=_rename_info(result.info, renamer),
        outcomes=[_rename_outcome(o, renamer) for o in result.outcomes],
        recorder=recorder,
        vectors=frozenset(result.direction_vectors),
        assumed=result.assumed,
        failure=result.failure,
    )


def rehydrate_result(
    entry: CacheEntry,
    context: PairContext,
    mapping: Dict[str, str],
) -> DependenceResult:
    """Bind a canonical entry to a concrete pair's context.

    ``mapping`` is the *pair's* original → canonical map (the one its key
    was built with); its inverse renames the stored verdict back to the
    pair's real index names.
    """
    cached = _INVERSE_MAPS.get(id(mapping))
    if cached is not None and cached[0] is mapping:
        inverse = cached[1]
    else:
        inverse = {canon: name for name, canon in mapping.items()}
        _INVERSE_MAPS[id(mapping)] = (mapping, inverse)
    renamer = cached_renamer(inverse)
    return DependenceResult(
        context=context,
        independent=entry.independent,
        info=_rename_info(entry.info, renamer),
        exact=entry.exact,
        outcomes=[_rename_outcome(o, renamer) for o in entry.outcomes],
        cached_vectors=entry.vectors,
        assumed=entry.assumed,
        failure=entry.failure,
    )


def _rename_value(value, renamer: CachedRenamer):
    """Rename a constraint payload: only symbolic expressions carry names."""
    if isinstance(value, LinearExpr):
        return renamer(value)
    return value


def _rename_constraint(
    constraint: IndexConstraint, renamer: CachedRenamer
) -> IndexConstraint:
    if isinstance(constraint.distance, LinearExpr):
        return IndexConstraint(
            constraint.directions, renamer(constraint.distance)
        )
    return constraint


def _rename_coupling(coupling: Coupling, mapping: Dict[str, str]) -> Coupling:
    indices, vectors = coupling
    return (tuple(mapping.get(i, i) for i in indices), vectors)


def _rename_info(info: DependenceInfo, renamer: CachedRenamer) -> DependenceInfo:
    mapping = renamer.mapping
    return DependenceInfo(
        indices=tuple(mapping.get(i, i) for i in info.indices),
        constraints={
            mapping.get(index, index): _rename_constraint(constraint, renamer)
            for index, constraint in info.constraints.items()
        },
        couplings=[_rename_coupling(c, mapping) for c in info.couplings],
    )


def _rename_outcome(outcome: TestOutcome, renamer: CachedRenamer) -> TestOutcome:
    mapping = renamer.mapping
    return TestOutcome(
        test=outcome.test,
        applicable=outcome.applicable,
        independent=outcome.independent,
        exact=outcome.exact,
        constraints={
            mapping.get(index, index): _rename_constraint(constraint, renamer)
            for index, constraint in outcome.constraints.items()
        },
        couplings=[_rename_coupling(c, mapping) for c in outcome.couplings],
        notes={
            key: _rename_value(value, renamer)
            for key, value in outcome.notes.items()
        },
    )
