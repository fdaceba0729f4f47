"""Dependence graph construction over loop nests.

Runs the partition-based driver on every candidate reference pair of a
statement list and assembles the results into a :class:`DependenceGraph`
with typed edges (flow / anti / output / input), direction and distance
vectors, and carried levels — the structure PFC's vectorization and
ParaScope's transformations consume.

Direction-vector bookkeeping follows the paper: for an ordered pair tested
as (source, sink), vectors whose leading non-``=`` direction is ``>``
denote the *reversed* dependence and are attributed to the reverse edge
with the vector element-wise reversed (citing Burke & Cytron); the all-``=``
vector is a loop-independent dependence and is only real when the source
executes no later than the sink within an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.driver import DependenceResult, test_dependence
from repro.dirvec.direction import Direction
from repro.dirvec.vectors import (
    DirectionVector,
    carrier_level,
    format_vector,
    is_plausible,
    reverse_vector,
)
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import AccessSite, Loop, Node, collect_access_sites


class DependenceType(Enum):
    """Classic dependence classification (Section 2 of the paper)."""

    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    INPUT = "input"

    def __str__(self) -> str:
        return self.value


def dependence_type(source_is_write: bool, sink_is_write: bool) -> DependenceType:
    """Dependence type from the access modes of source and sink."""
    if source_is_write and not sink_is_write:
        return DependenceType.FLOW
    if not source_is_write and sink_is_write:
        return DependenceType.ANTI
    if source_is_write and sink_is_write:
        return DependenceType.OUTPUT
    return DependenceType.INPUT


@dataclass
class DependenceEdge:
    """One dependence between two access sites.

    ``vectors`` are the plausible direction vectors over the pair's common
    loops (leading non-``=`` always ``<``); ``result`` is the driver result
    the edge came from (its context maps vector positions to loops).
    """

    source: AccessSite
    sink: AccessSite
    dep_type: DependenceType
    vectors: FrozenSet[DirectionVector]
    result: DependenceResult
    reversed_from_test: bool = False

    @property
    def common_loops(self) -> Tuple[Loop, ...]:
        """Loops the direction-vector positions refer to, outermost first."""
        return self.result.context.common

    def carried_levels(self) -> FrozenSet[int]:
        """Levels carrying some vector of this edge (0 = loop independent)."""
        return frozenset(carrier_level(v) for v in self.vectors)

    def carrier_loops(self) -> FrozenSet[int]:
        """Stable keys of the loops that carry this dependence.

        Carrying loops are found by nesting position in the pair's
        common-loop tuple (the vector position *is* the nesting level) and
        keyed with :func:`loop_key`.  Keys are ordinary data rather than
        ``id()`` values, so edges still match their loop objects after a
        pickle round-trip.
        """
        loops = self.common_loops
        carried = set()
        for vector in self.vectors:
            level = carrier_level(vector)
            if level > 0:
                carried.add(loop_key(loops[level - 1]))
        return frozenset(carried)

    @property
    def loop_independent(self) -> bool:
        """True when the all-``=`` vector is among this edge's vectors."""
        return any(carrier_level(v) == 0 for v in self.vectors)

    @property
    def assumed(self) -> bool:
        """True when this edge was assumed after a test failure.

        Assumed edges are conservative: the pair's test crashed, was
        injected with a fault, or exhausted its step budget, so the engine
        degraded to "assume dependence with all directions" rather than
        risk reporting a spurious independence.  ``result.failure`` holds
        the reason.
        """
        return self.result.assumed

    def distance_vector(self):
        """Exact distances where known (source-order distances)."""
        distances = self.result.info.distance_vector()
        if not self.reversed_from_test:
            return distances
        return tuple(
            -d if isinstance(d, int) else (None if d is None else -d)
            for d in distances
        )

    def __str__(self) -> str:
        inner = ", ".join(sorted(format_vector(v) for v in self.vectors))
        text = (
            f"{self.dep_type} {self.source.ref} (S{self.source.stmt.stmt_id})"
            f" -> {self.sink.ref} (S{self.sink.stmt.stmt_id}) {{{inner}}}"
        )
        if self.assumed:
            text += " [assumed]"
        return text


def loop_key(loop: Loop) -> int:
    """The stable key used by :meth:`DependenceEdge.carrier_loops`.

    The key is the loop's construction serial (:attr:`Loop.uid`), which a
    pickle round-trip preserves — unlike ``id()``, which changes whenever a
    result crosses a process boundary.
    """
    return loop.uid


@dataclass
class DependenceGraph:
    """All dependences of a statement list.

    ``independent_pairs`` counts reference pairs proven independent —
    the quantity the paper's Table 3 tracks per test via the recorder.
    """

    sites: List[AccessSite]
    edges: List[DependenceEdge]
    independent_pairs: int
    tested_pairs: int
    recorder: Optional[TestRecorder] = None

    def edges_for_array(self, array: str) -> List[DependenceEdge]:
        """Edges whose endpoints reference ``array``."""
        return [e for e in self.edges if e.source.ref.array == array]

    def edges_of_type(self, dep_type: DependenceType) -> List[DependenceEdge]:
        """Edges of one dependence class."""
        return [e for e in self.edges if e.dep_type is dep_type]

    def edges_carried_by(self, loop: Loop) -> List[DependenceEdge]:
        """Edges carried by a particular loop."""
        key = loop_key(loop)
        return [e for e in self.edges if key in e.carrier_loops()]

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` (statement-level nodes)."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for edge in self.edges:
            graph.add_edge(
                f"S{edge.source.stmt.stmt_id}",
                f"S{edge.sink.stmt.stmt_id}",
                dep_type=str(edge.dep_type),
                array=edge.source.ref.array,
                vectors=sorted(format_vector(v) for v in edge.vectors),
            )
        return graph

    def __str__(self) -> str:
        lines = [str(edge) for edge in self.edges]
        lines.append(
            f"({self.tested_pairs} pairs tested, "
            f"{self.independent_pairs} independent)"
        )
        return "\n".join(lines)


ALL_EQ_CACHE: Dict[int, DirectionVector] = {}


def _all_eq(depth: int) -> DirectionVector:
    if depth not in ALL_EQ_CACHE:
        ALL_EQ_CACHE[depth] = tuple([Direction.EQ] * depth)
    return ALL_EQ_CACHE[depth]


def iter_candidate_pairs(
    sites: Sequence[AccessSite], include_input: bool = False
) -> Iterable[Tuple[AccessSite, AccessSite]]:
    """All reference pairs dependence testing must consider.

    Pairs reference the same array and include at least one write (unless
    input dependences are requested); a site pairs with itself (carried
    self-dependences).  This is the "pairs of array references tested"
    population of the paper's Table 1.
    """
    by_array: Dict[str, List[AccessSite]] = {}
    for site in sites:
        by_array.setdefault(site.ref.array, []).append(site)
    for array_sites in by_array.values():
        for i, first in enumerate(array_sites):
            for second in array_sites[i:]:
                if not (first.is_write or second.is_write) and not include_input:
                    continue
                yield first, second


def build_dependence_graph(
    nodes: Sequence[Node],
    symbols: Optional[SymbolEnv] = None,
    recorder: Optional[TestRecorder] = None,
    include_input: bool = False,
    tester=test_dependence,
    profile=None,
) -> DependenceGraph:
    """Test all candidate reference pairs of a statement list.

    ``tester`` may be swapped for a baseline driver (the benchmark harness
    compares the paper's suite against subscript-by-subscript Banerjee-GCD
    and the Power test this way); it must match the signature of
    :func:`repro.core.driver.test_dependence`.  ``profile`` is an optional
    :class:`~repro.engine.profile.PhaseProfile` charged with the time
    spent expanding results into typed edges (the ``edge-build`` phase;
    the tester accounts for its own phases).
    """
    sites = collect_access_sites(nodes)
    edges: List[DependenceEdge] = []
    tested = 0
    independent = 0
    for first, second in iter_candidate_pairs(sites, include_input):
        tested += 1
        result = tester(first, second, symbols=symbols, recorder=recorder)
        if result.independent:
            independent += 1
            continue
        if profile is None:
            edges.extend(edges_from_result(first, second, result))
        else:
            start = perf_counter()
            edges.extend(edges_from_result(first, second, result))
            profile.add_phase("edge-build", perf_counter() - start)
    return DependenceGraph(sites, edges, independent, tested, recorder)


def edges_from_result(
    first: AccessSite, second: AccessSite, result: DependenceResult
) -> Iterable[DependenceEdge]:
    """Typed, oriented edges for one tested pair's driver result.

    Splits the result's vectors into the forward and (reversed) backward
    edge per the module docstring; cached (rehydrated) results assemble
    identical graphs through the same path.
    """
    vectors = result.direction_vectors
    depth = len(result.context.common_indices)
    forward: Set[DirectionVector] = set()
    backward: Set[DirectionVector] = set()
    for vector in vectors:
        if is_plausible(vector):
            forward.add(vector)
        else:
            backward.add(reverse_vector(vector))
    if first is second:
        # A site paired with itself: the all-= vector is the access itself.
        forward.discard(_all_eq(depth))
    edges = []
    if forward:
        edges.append(
            DependenceEdge(
                first,
                second,
                dependence_type(first.is_write, second.is_write),
                frozenset(forward),
                result,
            )
        )
    if backward and first is not second:
        backward.discard(_all_eq(depth))  # second executes after first
        if backward:
            edges.append(
                DependenceEdge(
                    second,
                    first,
                    dependence_type(second.is_write, first.is_write),
                    frozenset(backward),
                    result,
                    reversed_from_test=True,
                )
            )
    return edges
