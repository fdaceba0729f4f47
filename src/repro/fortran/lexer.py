"""Tokenizer for the Fortran-subset expression and statement grammar.

The front end works line by line: :func:`preprocess` strips comments and
joins continuation lines, and :func:`tokenize` turns one logical line into a
token list.  The parser lexes each logical line exactly once.

:func:`tokenize` is one ``finditer`` pass of :data:`TOKEN_RE`.  Every
alternative of the pattern swallows the blanks before its token, and the
last one, ``BAD``, takes any other non-blank character, so consecutive
matches tile the line up to trailing blanks: a match is either a token or
the first character outside the subset, reported as a
:class:`FortranSyntaxError` at its line and column.  Identifiers and
dot-operators match in either case and are lowercased (Fortran is
case-insensitive); character constants (``'...'`` or ``"..."``, a
doubled quote standing for one) are ``STRING`` tokens kept verbatim, so
statements the parser skips (``WRITE``, ``FORMAT``, ``CALL`` ...) may
carry them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fortran.errors import FortranSyntaxError

#: One token, with the blanks before it.  The alternatives are tried in
#: order, most frequent first; only three orders matter: ``REAL`` before
#: ``INT``, ``POW`` before ``OP``, and ``RELOP`` before ``OP``, so ``/=``
#: and ``==`` lex as one ``RELOP`` token.  ``BAD`` must come last.
TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<IDENT>[A-Za-z][A-Za-z0-9_$]*)
    | (?P<POW>\*\*)
    | (?P<RELOP>[<>]=?|[=/]=)
    | (?P<OP>[-+*/(),=:])
    | (?P<REAL>\d+\.\d*(?:[eEdD][+-]?\d+)?|\.\d+(?:[eEdD][+-]?\d+)?|\d+[eEdD][+-]?\d+)
    | (?P<INT>\d+)
    | (?P<DOTOP>(?i:\.(?:eq|ne|lt|le|gt|ge|and|or|not|true|false)\.))
    | (?P<STRING>'(?:[^']|'')*'|"(?:[^"]|"")*")
    | (?P<BAD>\S)
    )
    """,
    re.VERBOSE,
)


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """One lexical token: a ``kind`` tag, its source text, and its column.

    ``column`` is the 1-based position in the logical line (0 when the
    token was built synthetically); it only feeds diagnostics, so it does
    not participate in token equality.  Not frozen, because a frozen
    dataclass sets each field through ``object.__setattr__``, which is
    slow on this hot path.
    """

    kind: str
    text: str
    column: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return self.text


def tokenize(line: str, line_number: int = 0) -> List[Token]:
    """Tokenize one logical source line.

    Raises :class:`FortranSyntaxError` on characters outside the subset,
    pointing at the offending line and column.
    """
    tokens: List[Token] = []
    append = tokens.append
    for match in TOKEN_RE.finditer(line):
        kind = match.lastgroup
        if kind == "IDENT" or kind == "DOTOP":
            append(Token(kind, match.group(kind).lower(), match.start(kind) + 1))
        elif kind == "BAD":
            column = match.start(kind)
            raise FortranSyntaxError(
                f"unexpected character {line[column]!r}",
                line_number,
                line,
                column=column + 1,
            )
        else:
            append(Token(kind, match.group(kind), match.start(kind) + 1))
    return tokens


@dataclass(frozen=True)
class LogicalLine:
    """A comment-stripped, continuation-joined source line."""

    number: int
    label: Optional[str]
    text: str


_COMMENT_LINE = re.compile(r"^[Cc*!]")
_LABELED = re.compile(r"^\s*(\d+)\s+(.*)$")


def preprocess(source: str) -> List[LogicalLine]:
    """Split source into logical lines.

    Handles: full-line comments (``C``, ``*``, ``!`` in column one), inline
    ``!`` comments, statement labels, free-form trailing-``&``
    continuations, and fixed-form continuation lines (a non-space, non-zero
    character in column 6 of a line whose first five columns are blank).
    """
    logical: List[LogicalLine] = []
    pending: Optional[Tuple[int, Optional[str], str]] = None
    expect_continuation = False

    def flush() -> None:
        nonlocal pending, expect_continuation
        if pending is not None:
            number, label, text = pending
            text = text.strip()
            if text:
                logical.append(LogicalLine(number, label, text))
            pending = None
        expect_continuation = False

    for number, line in enumerate(source.splitlines(), start=1):
        if _COMMENT_LINE.match(line):
            continue
        if "!" in line:
            bang = _find_comment(line)
            if bang is not None:
                line = line[:bang]
        if not line.strip():
            continue
        # Fixed-form continuation: columns 1-5 blank and a conventional
        # continuation character in column 6.  Strict Fortran-66 allows any
        # non-blank non-zero character there, but accepting letters would
        # misread free-ish sources that indent statements by five spaces, so
        # only the markers seen in practice are recognized.
        fixed_continuation = (
            pending is not None
            and len(line) >= 6
            and line[:5].strip() == ""
            and (line[5] in "&$*+-./#@" or line[5] in "123456789")
        )
        if fixed_continuation or (expect_continuation and pending is not None):
            extra = line[6:] if fixed_continuation else line.strip()
            expect_continuation = False
            while extra.rstrip().endswith("&"):
                extra = extra.rstrip()[:-1]
                expect_continuation = True
            pending = (pending[0], pending[1], pending[2] + " " + extra)
            continue
        flush()
        label: Optional[str] = None
        text = line.strip()
        labeled = _LABELED.match(line)
        if labeled:
            label = labeled.group(1)
            text = labeled.group(2).strip()
        while text.endswith("&"):
            text = text[:-1].rstrip()
            expect_continuation = True
        pending = (number, label, text)
    flush()
    return logical


def _find_comment(line: str) -> Optional[int]:
    """Index of an inline ``!`` comment, ignoring any inside strings.

    A string runs from a ``'`` or ``"`` to the next quote of the same kind
    (a doubled quote closes and reopens it, which comes to the same).
    """
    quote = ""
    for idx, char in enumerate(line):
        if quote:
            if char == quote:
                quote = ""
        elif char == "'" or char == '"':
            quote = char
        elif char == "!":
            return idx
    return None
