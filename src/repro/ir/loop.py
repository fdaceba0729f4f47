"""Loop-nest intermediate representation.

The IR models the Fortran subset the paper's study runs over: nests of
``DO`` loops with affine bounds (possibly referencing outer loop indices —
*triangular* nests — and loop-invariant symbols), containing assignment
statements whose operands are scalar or subscripted array references.

Control flow other than loops (IF bodies) is modelled by
:class:`Conditional`, which dependence testing treats conservatively: its
statements are analyzed exactly like unconditional ones (the paper's tests
do not exploit execution conditions; see its Section 7 discussion of the
All-Equals and subdomain tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.ir.expr import Expr, IndexedLoad, Var, as_expr

_stmt_counter = itertools.count(1)
_loop_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class ArrayRef:
    """A subscripted reference ``array(sub1, sub2, ...)``."""

    array: str
    subscripts: Tuple[Expr, ...]

    @property
    def ndim(self) -> int:
        """Number of subscript positions."""
        return len(self.subscripts)

    def __str__(self) -> str:
        inner = ", ".join(str(s) for s in self.subscripts)
        return f"{self.array}({inner})"


@dataclass(frozen=True, slots=True)
class ScalarRef:
    """A reference to an unsubscripted variable."""

    name: str

    def __str__(self) -> str:
        return self.name


Ref = Union[ArrayRef, ScalarRef]


class Stmt:
    """Base class for statements appearing in a loop body."""

    __slots__ = ()


@dataclass
class Assign(Stmt):
    """An assignment ``lhs = rhs``.

    ``writes`` and ``reads`` are derived views: the single written reference
    and all read references (array loads in ``rhs`` plus, for subscripted
    stores, the loads inside the LHS subscripts).
    """

    lhs: Ref
    rhs: Expr
    label: Optional[str] = None
    stmt_id: int = field(default_factory=lambda: next(_stmt_counter))

    @property
    def writes(self) -> Tuple[Ref, ...]:
        return (self.lhs,)

    @property
    def reads(self) -> Tuple[Ref, ...]:
        # Cached on first access: the view is pure derived data, built
        # once per statement however often the tree is walked.
        cached = getattr(self, "_reads", None)
        if cached is not None:
            return cached
        loads: List[Ref] = []
        for node in self.rhs.walk():
            if isinstance(node, IndexedLoad):
                loads.append(ArrayRef(node.array, node.subscripts))
            elif isinstance(node, Var):
                loads.append(ScalarRef(node.name))
        if isinstance(self.lhs, ArrayRef):
            for sub in self.lhs.subscripts:
                for node in sub.walk():
                    if isinstance(node, IndexedLoad):
                        loads.append(ArrayRef(node.array, node.subscripts))
        self._reads = cached = tuple(loads)
        return cached

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass
class Conditional(Stmt):
    """An ``IF (cond) THEN ... ENDIF`` region (condition kept as opaque text)."""

    condition: str
    body: List["Node"] = field(default_factory=list)
    stmt_id: int = field(default_factory=lambda: next(_stmt_counter))

    def __str__(self) -> str:
        return f"IF ({self.condition}) ..."


@dataclass
class Loop:
    """A ``DO`` loop: ``DO index = lower, upper [, step]``.

    Bounds are surface expressions; they must normalize to affine forms over
    outer loop indices and symbols for the dependence tests to use them
    (non-affine bounds degrade to unknown ranges).  ``step`` must be a
    nonzero integer constant; non-unit steps are removed by
    :mod:`repro.ir.normalize` before analysis.
    """

    index: str
    lower: Expr
    upper: Expr
    step: int = 1
    body: List["Node"] = field(default_factory=list)
    label: Optional[str] = None
    #: Stable per-construction serial used by :func:`repro.graph.loop_key`.
    #: Unlike ``id()`` it is ordinary data, so it survives pickling — a
    #: result that round-trips through pickle still keys to its loops.
    uid: int = field(
        default_factory=lambda: next(_loop_counter), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self.lower = as_expr(self.lower)
        self.upper = as_expr(self.upper)
        if self.step == 0:
            raise ValueError(f"loop {self.index} has zero step")

    def __str__(self) -> str:
        step = f", {self.step}" if self.step != 1 else ""
        return f"DO {self.index} = {self.lower}, {self.upper}{step}"


Node = Union[Loop, Stmt]


@dataclass
class AccessSite:
    """One static occurrence of an array reference with its loop context.

    ``loops`` is the stack of enclosing loops, outermost first; ``is_write``
    distinguishes stores from loads.  Dependence testing pairs up sites of
    the same array.
    """

    ref: ArrayRef
    stmt: Assign
    loops: Tuple[Loop, ...]
    is_write: bool
    position: int

    @property
    def indices(self) -> Tuple[str, ...]:
        """Enclosing loop indices, outermost first."""
        return tuple(loop.index for loop in self.loops)

    def __str__(self) -> str:
        mode = "write" if self.is_write else "read"
        return f"{self.ref} [{mode} in S{self.stmt.stmt_id}]"


def walk_nodes(body: Sequence[Node]) -> Iterator[Tuple[Tuple[Loop, ...], Stmt]]:
    """Yield ``(loop stack, statement)`` for every statement, in source order."""

    def _walk(items: Sequence[Node], stack: Tuple[Loop, ...]) -> Iterator[Tuple[Tuple[Loop, ...], Stmt]]:
        for item in items:
            if isinstance(item, Loop):
                yield from _walk(item.body, stack + (item,))
            elif isinstance(item, Conditional):
                yield from _walk(item.body, stack)
            else:
                yield (stack, item)

    yield from _walk(body, ())


def collect_access_sites(body: Sequence[Node]) -> List[AccessSite]:
    """All array access sites in a body, in execution/position order.

    Within a statement the reads are listed *before* the write, matching
    execution order (the right-hand side is evaluated first); position
    order therefore encodes "executes no later than" for loop-independent
    dependences.  Scalar references are skipped: the paper's study concerns
    subscripted variables (scalars are handled by classic scalar data-flow
    analysis).
    """
    sites: List[AccessSite] = []
    position = 0
    for stack, stmt in walk_nodes(body):
        if not isinstance(stmt, Assign):
            continue
        for read in stmt.reads:
            if isinstance(read, ArrayRef):
                sites.append(AccessSite(read, stmt, stack, False, position))
                position += 1
        if isinstance(stmt.lhs, ArrayRef):
            sites.append(AccessSite(stmt.lhs, stmt, stack, True, position))
            position += 1
    return sites


def loops_in(body: Sequence[Node]) -> Iterator[Loop]:
    """Yield every loop in the body, outer loops before their contents."""
    for item in body:
        if isinstance(item, Loop):
            yield item
            yield from loops_in(item.body)
        elif isinstance(item, Conditional):
            yield from loops_in(item.body)


def common_loops(a: AccessSite, b: AccessSite) -> Tuple[Loop, ...]:
    """The shared enclosing loops of two sites (longest common prefix)."""
    shared: List[Loop] = []
    for loop_a, loop_b in zip(a.loops, b.loops):
        if loop_a is loop_b:
            shared.append(loop_a)
        else:
            break
    return tuple(shared)


def format_body(body: Sequence[Node], indent: int = 0) -> str:
    """Pretty-print a body as indented pseudo-Fortran (for reports/examples)."""
    lines: List[str] = []
    pad = "  " * indent
    for item in body:
        if isinstance(item, Loop):
            lines.append(f"{pad}{item}")
            lines.append(format_body(item.body, indent + 1))
            lines.append(f"{pad}ENDDO")
        elif isinstance(item, Conditional):
            lines.append(f"{pad}IF ({item.condition}) THEN")
            lines.append(format_body(item.body, indent + 1))
            lines.append(f"{pad}ENDIF")
        else:
            lines.append(f"{pad}{item}")
    return "\n".join(line for line in lines if line)
