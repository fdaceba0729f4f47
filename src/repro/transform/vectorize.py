"""Allen-Kennedy layered vectorization over the dependence graph.

PFC — the system the paper's tests live in — is a vectorizer: its "layered
vectorization algorithm" (Section 8) walks the statement-level dependence
graph level by level, serializing the strongly connected components
(recurrences) and vectorizing everything acyclic.  This module implements
that codegen skeleton on top of :mod:`repro.graph`:

1. at loop level *k*, consider dependence edges among the statements that
   are loop-independent or carried at level >= k;
2. compute strongly connected components and process them in topological
   order (loop distribution);
3. a trivial SCC whose statement is nested at depth >= k vectorizes over
   all remaining levels (emitted as a ``FORALL``); a cycle keeps a serial
   ``DO`` at level k and recurses at level k+1.

The dependence graph carries array dependences only, so the scalars the
region assigns add their own def-use edges (see :func:`_scalar_edges`).

The output is pseudo-Fortran-90 text; tests check which statements end up
vectorized vs serialized against hand-derived expectations for the classic
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dirvec.vectors import carrier_level
from repro.graph.depgraph import DependenceGraph, build_dependence_graph
from repro.ir.context import SymbolEnv
from repro.ir.expr import Opaque, Var
from repro.ir.loop import Assign, Loop, Node, ScalarRef, walk_nodes


@dataclass
class VectorizationReport:
    """Result of vectorizing one statement region."""

    lines: List[str]
    vectorized: Set[int] = field(default_factory=set)  # stmt ids
    serialized: Set[int] = field(default_factory=set)

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    def __str__(self) -> str:
        return self.text


@dataclass
class _StmtInfo:
    stmt: Assign
    loops: Tuple[Loop, ...]
    order: int


def vectorize(
    nodes: Sequence[Node],
    symbols: Optional[SymbolEnv] = None,
    graph: Optional[DependenceGraph] = None,
) -> VectorizationReport:
    """Run Allen-Kennedy codegen over a statement list."""
    if graph is None:
        graph = build_dependence_graph(nodes, symbols=symbols)
    infos: List[_StmtInfo] = []
    for order, (stack, stmt) in enumerate(walk_nodes(nodes)):
        if isinstance(stmt, Assign):
            infos.append(_StmtInfo(stmt, stack, order))
    # Statement-level edges: (src stmt id, sink stmt id, carried levels).
    edges: List[Tuple[int, int, Set[int]]] = []
    for edge in graph.edges:
        levels = {carrier_level(v) for v in edge.vectors}
        edges.append((edge.source.stmt.stmt_id, edge.sink.stmt.stmt_id, levels))
    edges.extend(_scalar_edges(infos))
    report = VectorizationReport([])
    _codegen(infos, 1, edges, report, indent=0)
    return report


def _scalar_edges(infos: List[_StmtInfo]) -> List[Tuple[int, int, Set[int]]]:
    """Statement edges through the scalars the region assigns.

    A scalar is one cell in every iteration, so a statement assigning it
    depends both ways on every statement that reads or assigns it:
    carried at each loop level the two share, and loop independent from
    the earlier statement to the later one.  This keeps a definition and
    its uses in one serial ``DO``, in source order.  Without these edges
    a definition inside a loop would vectorize to a ``FORALL`` storing n
    values into one cell, and its uses, distributed into a loop of their
    own, would all see the last value.
    """
    names = {info.stmt.stmt_id: _scalar_names(info) for info in infos}
    found: Dict[Tuple[int, int], Set[int]] = {}
    for define in infos:
        lhs = define.stmt.lhs
        if not isinstance(lhs, ScalarRef):
            continue
        for other in infos:
            if lhs.name not in names[other.stmt.stmt_id]:
                continue
            shared = 0
            for outer, inner in zip(define.loops, other.loops):
                if outer is not inner:
                    break
                shared += 1
            for src, sink in ((define, other), (other, define)):
                levels = set(range(1, shared + 1))
                if src.order < sink.order:
                    levels.add(0)
                if levels:
                    key = (src.stmt.stmt_id, sink.stmt.stmt_id)
                    found.setdefault(key, set()).update(levels)
    return [(src, sink, levels) for (src, sink), levels in found.items()]


def _scalar_names(info: _StmtInfo) -> Set[str]:
    """Every scalar a statement reads or assigns, counting its subscripts
    and the bounds of the loops around it."""
    stmt = info.stmt
    exprs = [stmt.rhs]
    for loop in info.loops:
        exprs.extend((loop.lower, loop.upper))
    if isinstance(stmt.lhs, ScalarRef):
        names = {stmt.lhs.name}
    else:
        names = set()
        exprs.extend(stmt.lhs.subscripts)
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, (Var, Opaque)):
                names.add(node.name)
    return names


def _codegen(
    infos: List[_StmtInfo],
    level: int,
    edges: List[Tuple[int, int, Set[int]]],
    report: VectorizationReport,
    indent: int,
) -> None:
    pad = "  " * indent
    ids = {info.stmt.stmt_id for info in infos}
    # Edges still relevant at this level: loop independent (0) or carried
    # at level >= `level`, with both endpoints in the region.
    relevant = [
        (src, sink, levels)
        for src, sink, levels in edges
        if src in ids and sink in ids and any(l == 0 or l >= level for l in levels)
    ]
    components = _sccs(ids, relevant, infos)
    for component in components:
        members = [info for info in infos if info.stmt.stmt_id in component]
        members.sort(key=lambda info: info.order)
        cyclic = len(component) > 1 or _has_self_cycle(component, relevant, level)
        deep_enough = all(len(info.loops) >= level for info in members)
        if not cyclic and deep_enough:
            for info in members:
                _emit_vector(info, level, report, pad)
        elif not deep_enough and not cyclic:
            for info in members:
                report.lines.append(f"{pad}{info.stmt}")
        else:
            loop = members[0].loops[level - 1]
            report.serialized.update(info.stmt.stmt_id for info in members)
            report.lines.append(
                f"{pad}DO {loop.index} = {loop.lower}, {loop.upper}"
            )
            inner_edges = [
                (src, sink, {l for l in levels if l == 0 or l > level})
                for src, sink, levels in relevant
                if src in component and sink in component
            ]
            inner_edges = [e for e in inner_edges if e[2]]
            _codegen(members, level + 1, inner_edges, report, indent + 1)
            report.lines.append(f"{pad}ENDDO")


def _emit_vector(
    info: _StmtInfo, level: int, report: VectorizationReport, pad: str
) -> None:
    vector_loops = info.loops[level - 1 :]
    if vector_loops:
        ranges = ", ".join(
            f"{l.index} = {l.lower}:{l.upper}" for l in vector_loops
        )
        report.lines.append(f"{pad}FORALL ({ranges})  {info.stmt}")
        report.vectorized.add(info.stmt.stmt_id)
    else:
        report.lines.append(f"{pad}{info.stmt}")


def _has_self_cycle(
    component: Set[int],
    edges: List[Tuple[int, int, Set[int]]],
    level: int,
) -> bool:
    for src, sink, levels in edges:
        if src in component and sink in component and src == sink:
            if any(l >= level for l in levels if l != 0):
                return True
    return False


def _sccs(
    ids: Set[int],
    edges: List[Tuple[int, int, Set[int]]],
    infos: List[_StmtInfo],
) -> List[Set[int]]:
    """Strongly connected components in topological order.

    Uses networkx when available, else a small Tarjan implementation.
    Ties are broken by source order so output is deterministic.
    """
    order_of = {info.stmt.stmt_id: info.order for info in infos}
    try:
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(ids)
        graph.add_edges_from((src, sink) for src, sink, _ in edges)
        condensed = nx.condensation(graph)
        components = [
            set(condensed.nodes[node]["members"])
            for node in nx.topological_sort(condensed)
        ]
    except ImportError:  # pragma: no cover - networkx is normally present
        components = _tarjan(ids, edges)
    components.sort(key=lambda comp: min(order_of[i] for i in comp))
    return _stable_topo(components, edges)


def _stable_topo(
    components: List[Set[int]], edges: List[Tuple[int, int, Set[int]]]
) -> List[Set[int]]:
    index_of: Dict[int, int] = {}
    for position, component in enumerate(components):
        for member in component:
            index_of[member] = position
    successors: Dict[int, Set[int]] = {i: set() for i in range(len(components))}
    indegree = [0] * len(components)
    for src, sink, _ in edges:
        a, b = index_of[src], index_of[sink]
        if a != b and b not in successors[a]:
            successors[a].add(b)
            indegree[b] += 1
    ready = sorted(i for i in range(len(components)) if indegree[i] == 0)
    ordered: List[Set[int]] = []
    while ready:
        node = ready.pop(0)
        ordered.append(components[node])
        for succ in sorted(successors[node]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    return ordered


def _tarjan(
    ids: Set[int], edges: List[Tuple[int, int, Set[int]]]
) -> List[Set[int]]:
    adjacency: Dict[int, List[int]] = {i: [] for i in ids}
    for src, sink, _ in edges:
        adjacency[src].append(sink)
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = [0]
    result: List[Set[int]] = []

    def strongconnect(node: int) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in adjacency[node]:
            if succ not in index:
                strongconnect(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            component = set()
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.add(member)
                if member == node:
                    break
            result.append(component)

    for node in sorted(ids):
        if node not in index:
            strongconnect(node)
    return result
