"""Unit tests for the Fortran-subset lexer and line preprocessor."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.corpus.loader import KERNEL_ROOT
from repro.fortran.errors import FortranSyntaxError
from repro.fortran.lexer import Token, preprocess, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)]


class TestTokenize:
    def test_identifiers_lowercased(self):
        assert texts("Foo BAR") == ["foo", "bar"]

    def test_integers_and_reals(self):
        assert kinds("42") == ["INT"]
        assert kinds("4.2") == ["REAL"]
        assert kinds("1.5e3") == ["REAL"]
        assert kinds("1.0d0") == ["REAL"]
        assert kinds(".25") == ["REAL"]

    def test_operators(self):
        assert texts("a = b*c + d/(e - 2)") == [
            "a", "=", "b", "*", "c", "+", "d", "/", "(", "e", "-", "2", ")",
        ]

    def test_power_token(self):
        assert kinds("x ** 2") == ["IDENT", "POW", "INT"]

    def test_dot_operators(self):
        assert kinds("a .gt. b .and. c") == [
            "IDENT", "DOTOP", "IDENT", "DOTOP", "IDENT",
        ]

    def test_dot_operators_in_any_case_lowercased(self):
        assert texts("B(I) .GT. 0.0 .And. .NOT. C") == [
            "b", "(", "i", ")", ".gt.", "0.0", ".and.", ".not.", "c",
        ]

    def test_two_character_relational_operators(self):
        assert texts("a /= b .or. c == d") == ["a", "/=", "b", ".or.", "c", "==", "d"]
        assert kinds("a /= b") == ["IDENT", "RELOP", "IDENT"]

    def test_unknown_character_raises(self):
        with pytest.raises(FortranSyntaxError):
            tokenize("a @ b")

    def test_column_outside_equality(self):
        assert Token("IDENT", "a", 3) == Token("IDENT", "a", 9)
        assert hash(Token("IDENT", "a", 3)) == hash(Token("IDENT", "a"))
        assert Token("IDENT", "a") != Token("INT", "a")


class TestStrings:
    def test_string_is_one_verbatim_token(self):
        tokens = tokenize("write(*,*) 'Hello, World = 1'")
        assert [t.kind for t in tokens][-1] == "STRING"
        assert tokens[-1].text == "'Hello, World = 1'"
        assert tokens[-1].column == 12
        assert tokens[0].text == "write"

    def test_doubled_quote_escapes(self):
        assert texts("x 'it''s' y") == ["x", "'it''s'", "y"]
        assert texts('"say ""hi"""') == ['"say ""hi"""']
        assert texts("'a\"b' \"c'd\" ") == ["'a\"b'", "\"c'd\""]

    def test_unterminated_string_raises_at_quote(self):
        with pytest.raises(FortranSyntaxError) as info:
            tokenize("print *, 'abc")
        assert info.value.column == 10
        assert info.value.message == "unexpected character \"'\""


class TestPreprocess:
    def test_comment_lines_skipped(self):
        lines = preprocess("c comment\n* star comment\n! bang\n      x = 1\n")
        assert len(lines) == 1
        assert lines[0].text == "x = 1"

    def test_inline_comment_stripped(self):
        lines = preprocess("      x = 1 ! trailing\n")
        assert lines[0].text == "x = 1"

    def test_labels_extracted(self):
        lines = preprocess("   10 continue\n")
        assert lines[0].label == "10"
        assert lines[0].text == "continue"

    def test_fixed_form_continuation(self):
        src = "      x = a + b\n     &      + c\n"
        lines = preprocess(src)
        assert len(lines) == 1
        assert " ".join(lines[0].text.split()) == "x = a + b + c"

    def test_free_form_continuation(self):
        src = "x = a + &\n    b\n"
        lines = preprocess(src)
        assert len(lines) == 1
        assert lines[0].text.replace(" ", "") == "x=a+b"

    def test_continuation_column_six_zero_not_continuation(self):
        src = "      x = 1\n     0y = 2\n"
        lines = preprocess(src)
        assert len(lines) == 2

    def test_blank_lines_skipped(self):
        assert len(preprocess("\n\n      x = 1\n\n")) == 1

    def test_line_numbers_recorded(self):
        lines = preprocess("c skip\n      x = 1\n      y = 2\n")
        assert [l.number for l in lines] == [2, 3]

    def test_multiple_continuations(self):
        src = "      x = a\n     & + b\n     & + c\n"
        lines = preprocess(src)
        assert len(lines) == 1
        assert " ".join(lines[0].text.split()) == "x = a + b + c"

    def test_bang_inside_strings_kept(self):
        lines = preprocess("""      write(*,*) 'a!b', "c!d" ! note\n""")
        assert lines[0].text == """write(*,*) 'a!b', "c!d\""""

    def test_bang_after_doubled_quote(self):
        lines = preprocess("      print *, 'it''s' ! comment\n")
        assert lines[0].text == "print *, 'it''s'"

    def test_bang_inside_other_quote_kind(self):
        lines = preprocess("""      print *, "it's ! here" ! gone\n""")
        assert lines[0].text == """print *, "it's ! here\""""


# ---------------------------------------------------------------------------
# The one-pass lexer against the per-match lexer it replaced
# ---------------------------------------------------------------------------

_REFERENCE_RE = re.compile(
    r"""
    (?P<REAL>\d+\.\d*([eEdD][+-]?\d+)?|\.\d+([eEdD][+-]?\d+)?|\d+[eEdD][+-]?\d+)
  | (?P<INT>\d+)
  | (?P<DOTOP>(?i:\.(?:eq|ne|lt|le|gt|ge|and|or|not|true|false)\.))
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_$]*)
  | (?P<POW>\*\*)
  | (?P<RELOP><=|>=|==|/=|<|>)
  | (?P<OP>[-+*/(),=:])
  | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


def reference_tokenize(line):
    """The earlier lexer: one match per token and per run of blanks.

    Returns ``(kind, text, column)`` triples, or the column of the first
    character outside the (quote-free) subset as ``("error", column)``.
    """
    tokens = []
    pos = 0
    while pos < len(line):
        match = _REFERENCE_RE.match(line, pos)
        if match is None:
            return ("error", pos + 1)
        kind = match.lastgroup
        text = match.group()
        if kind in ("IDENT", "DOTOP"):
            text = text.lower()
        if kind != "WS":
            tokens.append((kind, text, match.start() + 1))
        pos = match.end()
    return tokens


def lexed(line):
    try:
        return [(t.kind, t.text, t.column) for t in tokenize(line)]
    except FortranSyntaxError as exc:
        return ("error", exc.column)


_LETTERS = "abcxyzABCXYZdDeE"
_DIGITS = "0123456789"
_WORDS = st.one_of(
    # identifiers
    st.builds(
        str.__add__,
        st.sampled_from(_LETTERS),
        st.text(_LETTERS + _DIGITS + "_$", max_size=4),
    ),
    # integers and reals: `12`, `1.`, `1.5`, `.5`, `1e5`, `2.d-3`, lone `.`
    st.builds(
        "".join,
        st.tuples(
            st.text(_DIGITS, max_size=3),
            st.sampled_from(["", "", "."]),
            st.text(_DIGITS, max_size=3),
            st.sampled_from(["", "", "e5", "E+12", "d0", "D-2", "e", "d+"]),
        ),
    ),
    st.sampled_from(
        [".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge.", ".and.", ".or.",
         ".not.", ".true.", ".false.", ".EQ.", ".Gt.", ".eq", ".x."]
    ),
    st.sampled_from(
        ["**", "*", "/=", "==", "<=", ">=", "<", ">", "=", "/", "+", "-",
         "(", ")", ",", ":", "@", "%", "&", "#"]
    ),
)
_BLANKS = st.sampled_from(["", "", " ", "  ", "\t", " \t  ", "     "])


@st.composite
def quote_free_lines(draw):
    parts = draw(st.lists(st.tuples(_BLANKS, _WORDS), max_size=12))
    return "".join(blank + word for blank, word in parts) + draw(_BLANKS)


class TestReferenceEquivalence:
    @given(quote_free_lines())
    @example("if (a(i) /= b .and. x==y) z = 1.5e3 ** .5d0")
    @example("do 10 i = 1 %% n")
    @example("x = 1.eq.2 .or. 3.e-4 <= 2.D+1\t  @")
    @example("  a\t=  \t b  ")
    @settings(max_examples=200, deadline=None)
    def test_generated_lines(self, line):
        assert lexed(line) == reference_tokenize(line)

    def test_bundled_kernels(self):
        paths = sorted(KERNEL_ROOT.glob("*/*.f"))
        assert paths
        lines = [l.text for p in paths for l in preprocess(p.read_text())]
        assert len(lines) > 500
        for line in lines:
            assert lexed(line) == reference_tokenize(line), line


def upper_outside_strings(line):
    """``line`` upper-cased except inside character constants and
    after an inline ``!`` comment."""
    out, quote = [], ""
    for idx, char in enumerate(line):
        if quote:
            quote = "" if char == quote else quote
        elif char in "'\"":
            quote = char
        elif char == "!":
            out.append(line[idx:])
            break
        else:
            char = char.upper()
        out.append(char)
    return "".join(out)


def test_upper_cased_kernels_report_identically(tmp_path, capsys):
    tree = tmp_path / "upper"
    for path in sorted(KERNEL_ROOT.glob("*/*.f")):
        target = tree / path.relative_to(KERNEL_ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = path.read_text().split("\n")
        target.write_text("\n".join(upper_outside_strings(line) for line in lines))
    assert ".GT." in (tree / "cdl" / "induct.f").read_text()
    assert main(["corpus", "run", str(KERNEL_ROOT)]) == 0
    lower = capsys.readouterr()
    assert main(["corpus", "run", str(tree)]) == 0
    upper = capsys.readouterr()
    assert "quarantined=0" in upper.err
    assert upper.out == lower.out
