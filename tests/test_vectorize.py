"""Tests for Allen-Kennedy layered vectorization."""

from repro.corpus.loader import default_symbols
from repro.fortran.parser import parse_fragment
from repro.pipeline import parse_source
from repro.transform.vectorize import vectorize


def stmt_ids(nodes):
    from repro.ir.loop import walk_nodes, Assign

    return [s.stmt_id for _, s in walk_nodes(nodes) if isinstance(s, Assign)]


def vectorize_source(source):
    """Vectorize one routine as ``repro-deps vectorize`` reads it."""
    (routine,) = parse_source(source, "kernel.f").routines
    return vectorize(routine.body, symbols=default_symbols()).lines


class TestVectorize:
    def test_fully_vectorizable(self):
        nodes = parse_fragment("do i = 1, 9\n a(i) = b(i) + 1\nenddo")
        report = vectorize(nodes)
        assert report.vectorized == set(stmt_ids(nodes))
        assert "FORALL" in report.text
        assert "DO" not in report.text

    def test_recurrence_serialized(self):
        nodes = parse_fragment("do i = 2, 9\n a(i) = a(i-1)\nenddo")
        report = vectorize(nodes)
        assert report.serialized == set(stmt_ids(nodes))
        assert "DO i" in report.text
        assert "FORALL" not in report.text

    def test_outer_recurrence_inner_vector(self):
        src = "do i = 2, 9\n do j = 1, 9\n a(i, j) = a(i-1, j)\n enddo\nenddo"
        nodes = parse_fragment(src)
        report = vectorize(nodes)
        # loop i serialized, statement vectorized over j
        assert "DO i" in report.text
        assert "FORALL (j" in report.text
        assert report.vectorized == set(stmt_ids(nodes))

    def test_loop_distribution(self):
        """S1 feeds S2 across iterations: distribution orders S1's loop
        before S2's, both vectorized."""
        src = """
do i = 2, 9
  a(i) = b(i)
  c(i) = a(i-1)
enddo
"""
        nodes = parse_fragment(src)
        report = vectorize(nodes)
        ids = stmt_ids(nodes)
        assert report.vectorized == set(ids)
        first = report.text.index("a(i) = ")
        second = report.text.index("c(i) = ")
        assert first < second

    def test_cycle_keeps_statements_together(self):
        src = """
do i = 2, 9
  a(i) = b(i-1)
  b(i) = a(i-1)
enddo
"""
        nodes = parse_fragment(src)
        report = vectorize(nodes)
        assert report.serialized == set(stmt_ids(nodes))
        assert report.text.count("DO i") == 1

    def test_wavefront_all_serial(self):
        src = (
            "do i = 2, 9\n do j = 2, 9\n"
            "  a(i, j) = a(i-1, j) + a(i, j-1)\n enddo\nenddo"
        )
        report = vectorize(parse_fragment(src))
        assert "DO i" in report.text and "DO j" in report.text
        assert not report.vectorized

    def test_statements_outside_loops(self):
        nodes = parse_fragment("a(1) = 2\nb(1) = a(1)")
        report = vectorize(nodes)
        assert "FORALL" not in report.text
        assert len(report.lines) == 2

    def test_mixed_depths(self):
        src = """
x(1) = 0
do i = 1, 9
  a(i) = x(1) + b(i)
enddo
"""
        nodes = parse_fragment(src)
        report = vectorize(nodes)
        assert "x(1) = 0" in report.text
        assert "FORALL (i" in report.text
        # the definition of x(1) must precede its vectorized use
        assert report.text.index("x(1) = 0") < report.text.index("FORALL")

    def test_report_str(self):
        report = vectorize(parse_fragment("do i=1,3\n a(i)=0\nenddo"))
        assert str(report) == report.text


class TestScalarAssignments:
    """A scalar assigned in a loop holds one value per iteration, so its
    definition and its uses share one serial loop, in source order."""

    def test_subscripted_subscript_stays_in_one_loop(self):
        lines = vectorize_source(
            "      subroutine s2(a, b, c, idx, n)\n"
            "      real a(100), b(100), c(100)\n"
            "      integer idx(100)\n"
            "      do 10 i = 1, n\n"
            "         k = idx(i)\n"
            "         a(k) = c(i)\n"
            "         b(k) = a(k-1)\n"
            "   10 continue\n"
            "      end\n"
        )
        assert lines == [
            "DO i = 1, n",
            "  k = idx(i)",
            "  a(k?) = c(i)",
            "  b(k?) = a((k? - 1))",
            "ENDDO",
        ]

    def test_renamed_index_assignment_stays_serial(self):
        lines = vectorize_source(
            "      subroutine s4(a, b, c, n)\n"
            "      real a(100), b(100), c(100)\n"
            "      do 10 i = 1, n\n"
            "         k = i\n"
            "         a(k) = c(i)\n"
            "         b(k) = a(k-1)\n"
            "   10 continue\n"
            "      end\n"
        )
        assert lines == [
            "DO i = 1, n",
            "  k = i",
            "ENDDO",
            "FORALL (i = 1:n)  a(i) = c(i)",
            "FORALL (i = 1:n)  b(i) = a((i - 1))",
        ]

    def test_scalar_read_only_by_a_store_subscript(self):
        lines = vectorize_source(
            "      subroutine s5(a, c, idx, n)\n"
            "      real a(100), c(100)\n"
            "      integer idx(100)\n"
            "      do 10 i = 1, n\n"
            "         k = idx(i)\n"
            "         a(k) = c(i)\n"
            "   10 continue\n"
            "      end\n"
        )
        assert lines == ["DO i = 1, n", "  k = idx(i)", "  a(k?) = c(i)", "ENDDO"]

    def test_scalar_read_by_an_inner_loop_bound(self):
        lines = vectorize_source(
            "      subroutine s6(a, idx, n)\n"
            "      real a(100, 100)\n"
            "      integer idx(100)\n"
            "      do 20 i = 1, n\n"
            "         m = idx(i)\n"
            "         do 10 j = 1, m\n"
            "            a(i, j) = 0.0\n"
            "   10    continue\n"
            "   20 continue\n"
            "      end\n"
        )
        assert lines == [
            "DO i = 1, n",
            "  m = idx(i)",
            "  FORALL (j = 1:m)  a(i, j) = 0.0",
            "ENDDO",
        ]

    def test_use_before_definition_keeps_its_order(self):
        # b(i) reads the previous iteration's t: the read stays first.
        src = "do i = 2, 9\n b(i) = t\n t = a(i)\nenddo"
        report = vectorize(parse_fragment(src))
        assert report.lines == [
            "DO i = 2, 9", "  b(i) = t", "  t = a(i)", "ENDDO"
        ]

    def test_scalar_outside_loops_keeps_array_vectorization(self):
        src = "t = 2\ndo i = 1, 9\n a(i) = b(i) + t\nenddo"
        report = vectorize(parse_fragment(src))
        assert report.lines == ["t = 2", "FORALL (i = 1:9)  a(i) = (b(i) + t)"]
