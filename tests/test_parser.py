"""Unit tests for the Fortran-subset parser."""

import pytest

from repro.corpus.loader import KERNEL_ROOT
from repro.engine.engine import DependenceEngine
from repro.fortran import parser
from repro.fortran.errors import FortranSyntaxError
from repro.fortran.lexer import preprocess
from repro.fortran.parser import (
    parse_expression,
    parse_fragment,
    parse_program,
    parse_reference,
)
from repro.ir.expr import Call, Const, IndexedLoad, RealConst, Var, to_linear
from repro.ir.loop import ArrayRef, Assign, Conditional, Loop, ScalarRef
from repro.pipeline import analyze_routine, parse_source, render_routine
from repro.symbolic.linexpr import LinearExpr


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2*i - j/1")
        assert to_linear(expr) == LinearExpr({"i": 2, "j": -1}, 1)

    def test_parentheses(self):
        expr = parse_expression("2*(i + 3)")
        assert to_linear(expr) == LinearExpr({"i": 2}, 6)

    def test_unary_minus(self):
        expr = parse_expression("-i + 1")
        assert to_linear(expr) == LinearExpr({"i": -1}, 1)

    def test_array_load(self):
        expr = parse_expression("a(i, j+1)")
        assert isinstance(expr, IndexedLoad)
        assert expr.array == "a"
        assert len(expr.subscripts) == 2

    def test_intrinsic_becomes_call(self):
        expr = parse_expression("sqrt(x)")
        assert isinstance(expr, Call)
        assert expr.name == "sqrt"

    def test_power_becomes_call(self):
        expr = parse_expression("i**2")
        assert isinstance(expr, Call)
        assert expr.name == "pow"

    def test_real_literal(self):
        expr = parse_expression("0.25")
        assert isinstance(expr, RealConst)

    def test_d_exponent(self):
        expr = parse_expression("1.5d2")
        assert isinstance(expr, RealConst)
        assert expr.value == 150.0

    def test_trailing_tokens_raise(self):
        with pytest.raises(FortranSyntaxError):
            parse_expression("i + 1 j")

    def test_reference_array(self):
        ref = parse_reference("a(i)")
        assert isinstance(ref, ArrayRef)

    def test_reference_scalar(self):
        ref = parse_reference("x")
        assert isinstance(ref, ScalarRef)


class TestStatements:
    def test_assignment(self):
        nodes = parse_fragment("a(i) = b(i) + 1")
        assert len(nodes) == 1
        stmt = nodes[0]
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.lhs, ArrayRef)

    def test_scalar_assignment(self):
        nodes = parse_fragment("t = a(k, j)")
        assert isinstance(nodes[0].lhs, ScalarRef)

    def test_do_enddo(self):
        nodes = parse_fragment("do i = 1, n\n a(i) = 0\nenddo")
        loop = nodes[0]
        assert isinstance(loop, Loop)
        assert loop.index == "i"
        assert len(loop.body) == 1

    def test_do_end_do_spaced(self):
        nodes = parse_fragment("do i = 1, n\n a(i) = 0\nend do")
        assert isinstance(nodes[0], Loop)

    def test_do_with_step(self):
        nodes = parse_fragment("do i = 1, n, 2\n a(i) = 0\nenddo")
        assert nodes[0].step == 2

    def test_do_negative_step(self):
        nodes = parse_fragment("do i = n, 1, -1\n a(i) = 0\nenddo")
        assert nodes[0].step == -1

    def test_labeled_do_continue(self):
        src = """
      do 10 i = 1, n
         a(i) = 0
   10 continue
"""
        nodes = parse_fragment(src)
        assert isinstance(nodes[0], Loop)
        assert len(nodes[0].body) == 1

    def test_shared_label_closes_both(self):
        src = """
      do 10 i = 1, n
      do 10 j = 1, n
         a(i, j) = 0
   10 continue
      b(1) = 1
"""
        nodes = parse_fragment(src)
        assert len(nodes) == 2
        outer = nodes[0]
        assert isinstance(outer, Loop) and outer.index == "i"
        inner = outer.body[0]
        assert isinstance(inner, Loop) and inner.index == "j"

    def test_labeled_assignment_closes_loop(self):
        src = """
      do 10 i = 1, n
   10 a(i) = a(i) + 1
      b(1) = 2
"""
        nodes = parse_fragment(src)
        assert len(nodes) == 2
        assert isinstance(nodes[0], Loop)
        assert len(nodes[0].body) == 1

    def test_block_if(self):
        src = """
if (x .gt. 0) then
   a(i) = 1
endif
"""
        nodes = parse_fragment(src)
        cond = nodes[0]
        assert isinstance(cond, Conditional)
        assert len(cond.body) == 1

    def test_if_else(self):
        src = """
if (x .gt. 0) then
   a(i) = 1
else
   a(i) = 2
endif
"""
        nodes = parse_fragment(src)
        assert len(nodes) == 2
        assert all(isinstance(n, Conditional) for n in nodes)

    def test_logical_if(self):
        nodes = parse_fragment("if (x .lt. 0) a(i) = 0")
        cond = nodes[0]
        assert isinstance(cond, Conditional)
        assert isinstance(cond.body[0], Assign)

    def test_declarations_skipped(self):
        src = """
      integer n, i
      real a(100)
      dimension b(10)
      a(1) = 0
"""
        nodes = parse_fragment(src)
        assert len(nodes) == 1

    def test_io_and_calls_skipped(self):
        src = """
      call foo(a, b)
      write(6, 100) x
      goto 20
      a(1) = 0
"""
        nodes = parse_fragment(src)
        assert len(nodes) == 1

    def test_do_while_rejected(self):
        with pytest.raises(FortranSyntaxError):
            parse_fragment("do while (x .gt. 0)\n x = x - 1\nenddo")

    def test_unclosed_loop_raises(self):
        with pytest.raises(FortranSyntaxError):
            parse_fragment("do i = 1, n\n a(i) = 0")

    def test_mismatched_close_raises(self):
        with pytest.raises(FortranSyntaxError):
            parse_fragment("do i = 1, n\n a(i) = 0\nendif")

    def test_non_constant_step_raises(self):
        with pytest.raises(FortranSyntaxError):
            parse_fragment("do i = 1, n, k\n a(i) = 0\nenddo")


class TestPrograms:
    def test_multiple_units(self):
        src = """
      subroutine one(a, n)
      real a(n)
      do 10 i = 1, n
         a(i) = 0
   10 continue
      end
      subroutine two(b)
      b(1) = 1
      end
"""
        program = parse_program(src, name="test")
        assert len(program.routines) == 2
        assert program.routines[0].name == "one"
        assert program.routines[1].name == "two"

    def test_typed_function_header(self):
        src = """
      real function f(x)
      f = x
      end
"""
        program = parse_program(src)
        assert program.routines[0].name == "f"

    def test_bare_fragment_is_one_routine(self):
        program = parse_program("a(1) = 2")
        assert len(program.routines) == 1

    def test_source_lines_counted(self):
        src = """
      subroutine one(a)
      a(1) = 0
      a(2) = 0
      end
"""
        program = parse_program(src)
        assert program.routines[0].source_lines >= 3

    def test_suite_recorded(self):
        program = parse_program("a(1) = 2", suite="spec")
        assert program.suite == "spec"


class TestOneLexPerLine:
    def test_parse_program_tokenizes_each_logical_line_once(self, monkeypatch):
        calls = []
        real_tokenize = parser.tokenize

        def counting(text, line_number=0):
            calls.append(line_number)
            return real_tokenize(text, line_number)

        monkeypatch.setattr(parser, "tokenize", counting)
        paths = sorted(KERNEL_ROOT.glob("*/*.f"))
        expected = 0
        for path in paths:
            source = path.read_text()
            lines = preprocess(source)
            before = len(calls)
            parse_program(source, name=path.stem)
            assert calls[before:] == [line.number for line in lines], path.name
            expected += len(lines)
        assert len(calls) == expected > 500


class TestDiagnostics:
    def diagnostic(self, source):
        with pytest.raises(FortranSyntaxError) as info:
            parse_program(source)
        return info.value.diagnostic()

    def test_unexpected_character_caret(self):
        source = (
            "      subroutine s(a, n)\n"
            "      do 10 i = 1 %% n\n"
            " 10   continue\n"
            "      end\n"
        )
        assert self.diagnostic(source) == (
            "syntax error: unexpected character '%' at line 2, column 13\n"
            "  do 10 i = 1 %% n\n"
            "              ^"
        )

    def test_unexpected_end_of_statement_caret(self):
        source = (
            "      subroutine s(a, n)\n"
            "      do 10\n"
            "      end\n"
        )
        assert self.diagnostic(source) == (
            "syntax error: unexpected end of statement at line 2, column 6\n"
            "  do 10\n"
            "       ^"
        )

    def test_string_in_expression_caret(self):
        source = "      subroutine s(a)\n      a(1) = 'one'\n      end\n"
        assert self.diagnostic(source) == (
            "syntax error: unexpected token \"'one'\" in expression"
            " at line 2, column 8\n"
            "  a(1) = 'one'\n"
            "         ^"
        )


class TestStringLiterals:
    WITH_STRINGS = """\
      subroutine s(a, b, n)
      real a(n), b(n)
      character*16 title
      data title /'wave''s front'/
      write(*, *) 'start: n = ', n
      do 10 i = 2, n
         a(i) = a(i-1) + b(i)
         print *, "a(i) = ", a(i), ' ! not a comment'
   10 continue
  100 format(1x, 'a(i) = (', f8.3, ')')
      call report("done; don't stop", a)
      end
"""
    WITHOUT_STRINGS = """\
      subroutine s(a, b, n)
      real a(n), b(n)
      character*16 title
      do 10 i = 2, n
         a(i) = a(i-1) + b(i)
   10 continue
      end
"""

    @staticmethod
    def reports(source):
        program = parse_source(source.encode(), "strings")
        engine = DependenceEngine()
        return [
            render_routine(analyze_routine(engine, r, engine.build_graph))
            for r in program.routines
        ]

    def test_same_graph_as_without_the_string_lines(self):
        with_strings = self.reports(self.WITH_STRINGS)
        assert with_strings == self.reports(self.WITHOUT_STRINGS)
        assert "flow a(i) (S1) -> a((i - 1)) (S1) {(<)}" in with_strings[0]

    def test_logical_if_with_string_statement(self):
        nodes = parse_fragment("if (x .gt. 0) write(*, *) 'x = ', x\n")
        assert isinstance(nodes[0], Conditional)
        assert nodes[0].body == []
