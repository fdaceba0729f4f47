"""Per-program subscript statistics (the raw data behind Tables 1 and 2).

For every candidate reference pair of a program, record:

* the dimensionality of the pair (Table 1's histogram),
* each subscript position's classification (Table 2),
* whether each position is separable, part of a coupled group, or
  nonlinear (Table 1's partition columns),
* coupled-group sizes and the classes appearing inside coupled groups
  (the paper's observation that coupled subscripts are almost all SIV).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.classify.pairs import PairContext
from repro.classify.partition import partition_subscripts
from repro.classify.subscript import SubscriptKind, classify
from repro.graph.depgraph import iter_candidate_pairs
from repro.ir.context import SymbolEnv
from repro.ir.program import Program
from repro.memo import release_routine_memos


@dataclass
class ProgramStats:
    """Subscript-shape statistics of one program."""

    name: str
    suite: str
    lines: int = 0
    routines: int = 0
    pairs_tested: int = 0
    dimension_histogram: Counter = field(default_factory=Counter)
    kind_counts: Counter = field(default_factory=Counter)
    separable: int = 0
    coupled: int = 0
    nonlinear: int = 0
    coupled_group_sizes: Counter = field(default_factory=Counter)
    coupled_kind_counts: Counter = field(default_factory=Counter)

    def merge(self, other: "ProgramStats") -> None:
        """Accumulate another program's counts (suite totals)."""
        self.lines += other.lines
        self.routines += other.routines
        self.pairs_tested += other.pairs_tested
        self.dimension_histogram.update(other.dimension_histogram)
        self.kind_counts.update(other.kind_counts)
        self.separable += other.separable
        self.coupled += other.coupled
        self.nonlinear += other.nonlinear
        self.coupled_group_sizes.update(other.coupled_group_sizes)
        self.coupled_kind_counts.update(other.coupled_kind_counts)

    @property
    def total_subscripts(self) -> int:
        """Total classified subscript positions."""
        return sum(self.kind_counts.values())


def collect_program_stats(
    program: Program, symbols: Optional[SymbolEnv] = None
) -> ProgramStats:
    """Walk every candidate reference pair of a program and classify it."""
    stats = ProgramStats(
        name=program.name,
        suite=program.suite or "-",
        lines=program.source_lines,
        routines=len(program.routines),
    )
    for routine in program.routines:
        sites = routine.access_sites()
        for src, sink in iter_candidate_pairs(sites):
            context = PairContext(src, sink, symbols)
            if context.rank_mismatch:
                continue
            stats.pairs_tested += 1
            ndim = src.ref.ndim
            stats.dimension_histogram[min(ndim, 3)] += 1
            partitions = partition_subscripts(context.subscripts, context)
            for partition in partitions:
                for pair in partition.pairs:
                    kind = classify(pair, context)
                    stats.kind_counts[kind] += 1
                    if kind is SubscriptKind.NONLINEAR:
                        stats.nonlinear += 1
                    elif partition.is_separable:
                        stats.separable += 1
                    else:
                        stats.coupled += 1
                        stats.coupled_kind_counts[kind] += 1
                if not partition.is_separable:
                    stats.coupled_group_sizes[len(partition.pairs)] += 1
        # Classifying builds pair contexts outside any graph build.
        release_routine_memos()
    return stats


def suite_totals(per_program: List[ProgramStats], suite: str) -> ProgramStats:
    """Aggregate row over a suite's programs."""
    total = ProgramStats(name="TOTAL", suite=suite)
    for stats in per_program:
        total.merge(stats)
    return total
