"""Experiment E5 (extension) — the Section 1.5 prepass assumption.

"We assume that all auxiliary induction variables have been detected and
replaced by linear functions of the loop indices [2, 3, 5, 52]."

This bench quantifies why the assumption matters: analyzing kernels that
subscript through scalar temporaries (LINPACK's ``kp1 = k + 1``) *without*
the forward-substitution/IV prepass leaves those subscripts symbolic, and
quantifies the difference on dgefa plus a running-offset microkernel where
the raw analysis is not merely imprecise but wrong.
"""

from repro.corpus.loader import KERNEL_ROOT, default_symbols, load_program
from repro.fortran.parser import parse_fragment, parse_program
from repro.graph.depgraph import DependenceType, build_dependence_graph
from repro.ir.scalars import substitute_scalars
from repro.transform.parallel import find_parallel_loops


def test_dgefa_with_and_without_prepass(benchmark):
    """LINPACK dgefa subscripts and bounds through ``kp1 = k + 1``; the
    prepass turns the opaque scalar into the triangular bound ``k + 1`` the
    Section 4.3 index-range algorithm can consume."""
    from repro.ir.loop import loops_in

    symbols = default_symbols()
    with_pass = load_program("linpack", "dgefa")  # loader applies the pass
    without = parse_program((KERNEL_ROOT / "linpack" / "dgefa.f").read_text())

    def bound_vars(program):
        names = set()
        for routine in program.routines:
            for loop in loops_in(routine.body):
                names |= loop.lower.variables() | loop.upper.variables()
        return names

    raw_bounds = bound_vars(without)
    cooked_bounds = bound_vars(with_pass)
    print()
    print(f"  bound variables without prepass: {sorted(raw_bounds)}")
    print(f"  bound variables with prepass:    {sorted(cooked_bounds)}")
    assert "kp1" in raw_bounds, "raw dgefa bounds go through the scalar"
    assert "kp1" not in cooked_bounds, "the prepass substitutes k + 1"
    assert "k" in cooked_bounds

    def analyze(program):
        edges = 0
        for routine in program.routines:
            graph = build_dependence_graph(routine.body, symbols=symbols)
            edges += len(graph.edges)
        return edges

    assert benchmark(analyze, with_pass) > 0


def test_running_offset_soundness():
    """Without the prepass the analyzer treats a loop-variant scalar as an
    invariant symbol and *misses a real dependence* — the paper's
    assumption is a soundness precondition, not an optimization."""
    src = """
ij = 0
do i = 1, 10
  ij = ij + 2
  a(ij) = a(ij + 2)
enddo
"""
    raw = build_dependence_graph(parse_fragment(src))
    cooked = build_dependence_graph(substitute_scalars(parse_fragment(src)))
    raw_carried = [
        e
        for e in raw.edges
        if e.dep_type in (DependenceType.FLOW, DependenceType.ANTI)
    ]
    cooked_carried = [
        e
        for e in cooked.edges
        if e.dep_type in (DependenceType.FLOW, DependenceType.ANTI)
    ]
    print()
    print(f"  raw flow/anti edges:    {len(raw_carried)} (missed dependence)")
    print(f"  cooked flow/anti edges: {len(cooked_carried)}")
    assert not raw_carried
    assert cooked_carried
    assert any(e.distance_vector() == (1,) for e in cooked_carried)
