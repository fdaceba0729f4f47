"""Recursive-descent parser for the Fortran DO-loop subset.

This front end stands in for PFC's Fortran front end: it accepts the loop
kernels the paper's study runs over — classic fixed-form ``DO 10 I = 1, N``
loops closed by labeled ``CONTINUE``, modern ``DO``/``ENDDO`` loops, block
and logical ``IF`` statements, and assignments over scalar and subscripted
references.  Declarations, I/O, ``CALL``, ``GOTO``, and ``FORMAT``
statements are recognized and skipped (they carry no subscript pairs).

Entry points:

* :func:`parse_program` — a full file of ``SUBROUTINE``/``FUNCTION`` units.
* :func:`parse_fragment` — a bare statement list (tests and examples).
* :func:`parse_expression`, :func:`parse_reference` — expression-level.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.fortran.errors import FortranSyntaxError
from repro.fortran.lexer import LogicalLine, Token, preprocess, tokenize
from repro.ir.expr import (
    Add,
    Call,
    Const,
    Div,
    Expr,
    IndexedLoad,
    Mul,
    Neg,
    RealConst,
    Sub,
    Var,
)
from repro.ir.loop import ArrayRef, Assign, Conditional, Loop, Node, Ref, ScalarRef
from repro.ir.program import Program, Routine

#: Fortran-77 intrinsic functions: a name applied to arguments parses as an
#: opaque :class:`Call` rather than an array load.
INTRINSICS = frozenset(
    """
    abs iabs dabs cabs sqrt dsqrt csqrt exp dexp log alog dlog log10 alog10
    sin dsin cos dcos tan dtan asin dasin acos dacos atan datan atan2 datan2
    sign dsign isign mod amod dmod min max min0 max0 min1 max1 amin0 amax0
    amin1 amax1 dmin1 dmax1 float real dble int ifix idint nint idnint aint
    dint anint dnint cmplx conjg aimag dimag dim idim ddim dprod len index
    ichar char sngl lge lgt lle llt
    """.split()
)

#: Statement keywords that are recognized and skipped entirely.
_SKIPPED_KEYWORDS = frozenset(
    """
    integer real doubleprecision double dimension parameter implicit common
    data external intrinsic save equivalence character logical complex
    return stop call goto go write print read format rewind backspace open
    close pause entry assign namelist
    """.split()
)

_SKIPPED_SINGLE = frozenset({"continue", "return", "stop", "cycle", "exit"})


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------


class _TokenStream:
    """A cursor over one statement's tokens.

    The parse functions step past a token they have peeked at with
    ``stream.pos += 1`` rather than :meth:`next`, which checks again.
    """

    __slots__ = ("tokens", "pos", "line")

    def __init__(self, tokens: List[Token], line: LogicalLine):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> Optional[Token]:
        try:
            return self.tokens[self.pos]
        except IndexError:
            return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of statement")
        self.pos += 1
        return token

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token is None or token.text != text:
            found = token.text if token else "end of statement"
            raise self.error(f"expected {text!r}, found {found!r}")
        self.pos += 1
        return token

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def error(self, message: str) -> FortranSyntaxError:
        # Point at the token the parser is looking at; past the end, at
        # the position just after the last token.
        token = self.peek()
        if token is not None and token.column:
            column = token.column
        elif self.tokens and self.tokens[-1].column:
            last = self.tokens[-1]
            column = last.column + len(last.text)
        else:
            column = 0
        return FortranSyntaxError(
            message, self.line.number, self.line.text, column=column
        )


def _parse_expr(stream: _TokenStream) -> Expr:
    left = _parse_term(stream)
    while True:
        token = stream.peek()
        if token is None or token.text not in ("+", "-"):
            return left
        stream.pos += 1
        right = _parse_term(stream)
        left = Add(left, right) if token.text == "+" else Sub(left, right)


def _parse_term(stream: _TokenStream) -> Expr:
    left = _parse_power(stream)
    while True:
        token = stream.peek()
        if token is None or token.text not in ("*", "/"):
            return left
        stream.pos += 1
        right = _parse_power(stream)
        left = Mul(left, right) if token.text == "*" else Div(left, right)


def _parse_power(stream: _TokenStream) -> Expr:
    base = _parse_primary(stream)
    token = stream.peek()
    if token is not None and token.kind == "POW":
        stream.pos += 1
        exponent = _parse_power(stream)  # right associative
        return Call("pow", (base, exponent))
    return base


def _parse_primary(stream: _TokenStream) -> Expr:
    token = stream.peek()
    if token is None:
        raise stream.error("unexpected end of expression")
    kind = token.kind
    if kind == "IDENT":
        stream.pos += 1
        name = token.text
        if stream.accept("("):
            args = _parse_arglist(stream)
            if name in INTRINSICS:
                return Call(name, tuple(args))
            return IndexedLoad(name, tuple(args))
        return Var(name)
    if kind == "INT":
        stream.pos += 1
        return Const(int(token.text))
    if token.text == "(":
        stream.pos += 1
        inner = _parse_expr(stream)
        stream.expect(")")
        return inner
    if token.text == "-":
        stream.pos += 1
        operand = _parse_primary(stream)
        # Fold negated literals so `-1` is the constant -1, not Neg(1).
        if isinstance(operand, Const):
            return Const(-operand.value)
        if isinstance(operand, RealConst):
            return RealConst(-operand.value)
        return Neg(operand)
    if token.text == "+":
        stream.pos += 1
        return _parse_primary(stream)
    if kind == "REAL":
        stream.pos += 1
        return RealConst(float(token.text.lower().replace("d", "e")))
    raise stream.error(f"unexpected token {token.text!r} in expression")


def _parse_arglist(stream: _TokenStream) -> List[Expr]:
    args: List[Expr] = []
    if stream.accept(")"):
        return args
    args.append(_parse_expr(stream))
    while stream.accept(","):
        args.append(_parse_expr(stream))
    stream.expect(")")
    return args


def parse_expression(text: str) -> Expr:
    """Parse a standalone Fortran expression string."""
    line = LogicalLine(0, None, text)
    stream = _TokenStream(tokenize(text), line)
    expr = _parse_expr(stream)
    if not stream.at_end():
        raise stream.error(f"trailing tokens after expression: {stream.peek()}")
    return expr


def parse_reference(text: str) -> Ref:
    """Parse a reference string such as ``a(i, j+1)`` or ``x``."""
    expr = parse_expression(text)
    if isinstance(expr, IndexedLoad):
        return ArrayRef(expr.array, expr.subscripts)
    if isinstance(expr, Var):
        return ScalarRef(expr.name)
    raise FortranSyntaxError(f"{text!r} is not a scalar or array reference")


# ---------------------------------------------------------------------------
# Statement / block parsing
# ---------------------------------------------------------------------------


class _Frame:
    """One open block: the routine body, a loop, or a conditional arm."""

    def __init__(self, kind: str, body: List[Node], label: Optional[str] = None):
        self.kind = kind  # "top" | "loop" | "cond"
        self.body = body
        self.label = label  # closing label for labeled DO loops


class _BlockParser:
    """Parses a statement list (one routine body) from logical lines."""

    def __init__(self) -> None:
        self.root: List[Node] = []
        self.frames: List[_Frame] = [_Frame("top", self.root)]

    @property
    def current(self) -> List[Node]:
        return self.frames[-1].body

    def feed(self, line: LogicalLine, tokens: List[Token]) -> None:
        """Parse one logical line, given its tokens."""
        if not tokens:
            return
        self._dispatch(line, tokens)
        if line.label:
            self._close_labeled_loops(line.label)

    def finish(self, where: str = "") -> List[Node]:
        open_loops = [f for f in self.frames if f.kind != "top"]
        if open_loops:
            raise FortranSyntaxError(
                f"unclosed {open_loops[-1].kind} at end of {where or 'input'}"
            )
        return self.root

    # -- statement dispatch -------------------------------------------------

    def _dispatch(self, line: LogicalLine, tokens: List[Token]) -> None:
        head = tokens[0]
        stream = _TokenStream(tokens, line)
        # Assignment first: `if(...)=...` can't occur, but `do10i=1,5` and
        # variables named like keywords are distinguished by the '=' shape.
        if self._looks_like_assignment(tokens):
            self.current.append(self._parse_assignment(stream, line.label))
            return
        if head.text == "do":
            self._parse_do(stream)
            return
        if head.text in ("enddo",) or (
            head.text == "end" and len(tokens) > 1 and tokens[1].text == "do"
        ):
            self._close_block("loop", stream)
            return
        if head.text == "if":
            self._parse_if(line, stream)
            return
        if head.text in ("endif",) or (
            head.text == "end" and len(tokens) > 1 and tokens[1].text == "if"
        ):
            self._close_block("cond", stream)
            return
        if head.text == "elseif" or (
            head.text == "else" and len(tokens) > 1 and tokens[1].text == "if"
        ):
            self._swap_conditional_arm("elseif branch")
            return
        if head.text == "else":
            self._swap_conditional_arm("else branch")
            return
        if head.text in _SKIPPED_SINGLE:
            return
        if head.text in _SKIPPED_KEYWORDS:
            return
        if head.kind == "IDENT":
            # Unknown statement form: tolerate and skip (matches how PFC's
            # study only reads subscript pairs).
            return
        raise stream.error(f"cannot parse statement starting with {head.text!r}")

    @staticmethod
    def _looks_like_assignment(tokens: List[Token]) -> bool:
        if not tokens or tokens[0].kind != "IDENT":
            return False
        depth = 0
        for idx, token in enumerate(tokens):
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth -= 1
            elif token.text == "=" and depth == 0:
                # `do i = 1, n` also matches; exclude DO/IF keyword heads
                # followed by things that are not a bare designator.
                head = tokens[0].text
                if head == "do":
                    return False
                if head == "if" and idx > 1 and tokens[1].text == "(":
                    return False
                return idx >= 1
        return False

    def _parse_assignment(self, stream: _TokenStream, label: Optional[str]) -> Assign:
        target = _parse_primary(stream)
        if isinstance(target, IndexedLoad):
            lhs: Ref = ArrayRef(target.array, target.subscripts)
        elif isinstance(target, Var):
            lhs = ScalarRef(target.name)
        else:
            raise stream.error(f"invalid assignment target {target}")
        stream.expect("=")
        rhs = _parse_expr(stream)
        if not stream.at_end():
            raise stream.error(f"trailing tokens after assignment: {stream.peek()}")
        return Assign(lhs, rhs, label)

    def _parse_do(self, stream: _TokenStream) -> None:
        stream.expect("do")
        label: Optional[str] = None
        token = stream.peek()
        if token is not None and token.kind == "INT":
            label = stream.next().text
        index_token = stream.next()
        if index_token.kind != "IDENT":
            raise stream.error(f"expected loop index, found {index_token.text!r}")
        if index_token.text == "while":
            raise stream.error("DO WHILE loops are outside the subset")
        stream.expect("=")
        lower = _parse_expr(stream)
        stream.expect(",")
        upper = _parse_expr(stream)
        step = 1
        if stream.accept(","):
            step_expr = _parse_expr(stream)
            step = _constant_step(step_expr, stream)
        if not stream.at_end():
            raise stream.error(f"trailing tokens after DO: {stream.peek()}")
        loop = Loop(index_token.text, lower, upper, step, [], label)
        self.current.append(loop)
        self.frames.append(_Frame("loop", loop.body, label))

    def _parse_if(self, line: LogicalLine, stream: _TokenStream) -> None:
        stream.expect("if")
        stream.expect("(")
        condition, end_pos = self._capture_condition(stream)
        rest = stream.tokens[end_pos:]
        if rest and rest[0].text == "then":
            node = Conditional(condition, [])
            self.current.append(node)
            self.frames.append(_Frame("cond", node.body))
            return
        if not rest:
            raise stream.error("logical IF with no statement")
        # Logical (one-line) IF: parse the remainder as a nested statement.
        node = Conditional(condition, [])
        self.current.append(node)
        inner = _BlockParser()
        inner_line = LogicalLine(line.number, None, " ".join(t.text for t in rest))
        inner._dispatch(inner_line, rest)
        node.body.extend(inner.finish("logical IF"))

    def _capture_condition(self, stream: _TokenStream) -> Tuple[str, int]:
        """Consume tokens up to the matching ')' and return their text."""
        depth = 1
        parts: List[str] = []
        while True:
            token = stream.peek()
            if token is None:
                raise stream.error("unterminated IF condition")
            stream.pos += 1
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth -= 1
                if depth == 0:
                    return " ".join(parts), stream.pos
            if depth > 0:
                parts.append(token.text)

    def _close_block(self, kind: str, stream: _TokenStream) -> None:
        if self.frames[-1].kind != kind:
            raise stream.error(
                f"mismatched block close: expected open {kind}, "
                f"found {self.frames[-1].kind}"
            )
        self.frames.pop()

    def _swap_conditional_arm(self, description: str) -> None:
        if self.frames[-1].kind != "cond":
            raise FortranSyntaxError(f"{description} outside a block IF")
        self.frames.pop()
        node = Conditional(f"<{description}>", [])
        self.current.append(node)
        self.frames.append(_Frame("cond", node.body))

    def _close_labeled_loops(self, label: str) -> None:
        while self.frames[-1].kind == "loop" and self.frames[-1].label == label:
            self.frames.pop()


def _constant_step(expr: Expr, stream: _TokenStream) -> int:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Neg) and isinstance(expr.operand, Const):
        return -expr.operand.value
    raise stream.error(f"loop step must be an integer constant, found {expr}")


# ---------------------------------------------------------------------------
# Routine / program parsing
# ---------------------------------------------------------------------------

_UNIT_HEADS = ("subroutine", "function", "program", "blockdata")


def parse_fragment(source: str) -> List[Node]:
    """Parse a bare statement list (no SUBROUTINE/END wrapper)."""
    parser = _BlockParser()
    for line in preprocess(source):
        parser.feed(line, tokenize(line.text, line.number))
    return parser.finish("fragment")


def parse_routine(source: str, name: str = "main") -> Routine:
    """Parse a bare statement list into a named routine."""
    lines = preprocess(source)
    parser = _BlockParser()
    for line in lines:
        parser.feed(line, tokenize(line.text, line.number))
    return Routine(name, parser.finish(name), source_lines=len(lines))


def parse_program(source: str, name: str = "program", suite: Optional[str] = None) -> Program:
    """Parse a file of program units into a :class:`Program`.

    Units are delimited by ``SUBROUTINE``/``FUNCTION``/``PROGRAM`` headers
    and ``END`` lines.  Source with no unit headers parses as one implicit
    routine.
    """
    lines = preprocess(source)
    routines: List[Routine] = []
    parser: Optional[_BlockParser] = None
    routine_name = name
    routine_lines = 0

    def close_routine() -> None:
        nonlocal parser, routine_lines
        if parser is not None:
            routines.append(
                Routine(routine_name, parser.finish(routine_name), routine_lines)
            )
            parser = None
            routine_lines = 0

    for line in lines:
        tokens = tokenize(line.text, line.number)
        if not tokens:
            continue
        head = tokens[0].text
        if head in _UNIT_HEADS or _is_typed_function(tokens):
            close_routine()
            routine_name = _unit_name(tokens) or name
            parser = _BlockParser()
            routine_lines = 1
            continue
        if head == "end" and len(tokens) == 1:
            if parser is not None:
                routine_lines += 1
            close_routine()
            continue
        if parser is None:
            parser = _BlockParser()
            routine_name = name
            routine_lines = 0
        routine_lines += 1
        parser.feed(line, tokens)
    close_routine()
    return Program(name, routines, suite)


def _is_typed_function(tokens: List[Token]) -> bool:
    """Detect `REAL FUNCTION F(X)`-style headers."""
    if len(tokens) < 2:
        return False
    return (
        tokens[0].text in ("integer", "real", "double", "doubleprecision", "logical", "complex")
        and any(t.text == "function" for t in tokens[1:3])
    )


def _unit_name(tokens: List[Token]) -> Optional[str]:
    for idx, token in enumerate(tokens):
        if token.text in _UNIT_HEADS or token.text == "function":
            if idx + 1 < len(tokens) and tokens[idx + 1].kind == "IDENT":
                return tokens[idx + 1].text
    return None
