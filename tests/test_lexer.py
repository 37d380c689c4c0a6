"""Lexer unit tests."""

import pytest

from repro.frontend.lexer import (
    EOF,
    INT,
    LABEL,
    LexError,
    NAME,
    NEWLINE,
    OP,
    REAL,
    Token,
    tokenize,
)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.kind not in (NEWLINE, EOF)]


class TestBasicTokens:
    def test_names_are_lowercased(self):
        assert values("FOO Bar baz") == ["foo", "bar", "baz"]

    def test_integer_literal(self):
        toks = tokenize("42")
        assert toks[0].kind == INT
        assert toks[0].value == "42"

    def test_real_literal_forms(self):
        for text in ("1.5", ".5", "2.", "1e3", "1.5e-3", "2.5E+2"):
            toks = tokenize(text)
            assert toks[0].kind == REAL, text

    def test_double_precision_literal(self):
        toks = tokenize("1.5d0")
        assert toks[0].kind == REAL
        assert toks[0].value == "1.5d0"

    def test_operators(self):
        assert values("a + b * c ** 2 / d - e") == [
            "a", "+", "b", "*", "c", "**", "2", "/", "d", "-", "e",
        ]

    def test_parens_and_commas(self):
        assert values("a(i, j)") == ["a", "(", "i", ",", "j", ")"]

    def test_ends_with_eof(self):
        assert tokenize("x")[-1].kind == EOF

    def test_empty_source(self):
        toks = tokenize("")
        assert [t.kind for t in toks] == [EOF]


class TestDottedOperators:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("a .lt. b", "<"),
            ("a .le. b", "<="),
            ("a .gt. b", ">"),
            ("a .ge. b", ">="),
            ("a .eq. b", "=="),
            ("a .ne. b", "/="),
        ],
    )
    def test_relational(self, src, expected):
        assert expected in values(src)

    def test_logical_ops(self):
        assert values("a .and. b .or. .not. c") == [
            "a", ".and.", "b", ".or.", ".not.", "c",
        ]

    def test_logical_literals(self):
        assert values(".true. .false.") == [".true.", ".false."]

    def test_case_insensitive(self):
        assert "<" in values("a .LT. b")


class TestCommentsAndLines:
    def test_full_line_comment_c(self):
        assert values("c this is a comment\nx = 1") == ["x", "=", "1"]

    def test_full_line_comment_star(self):
        assert values("* comment\nx = 1") == ["x", "=", "1"]

    def test_inline_comment(self):
        assert values("x = 1 ! trailing") == ["x", "=", "1"]

    def test_blank_lines_skipped(self):
        src = "a = 1\n\n\nb = 2"
        newline_count = kinds(src).count(NEWLINE)
        assert newline_count == 2

    def test_line_numbers(self):
        toks = tokenize("a = 1\nb = 2")
        b_tok = next(t for t in toks if t.value == "b")
        assert b_tok.line == 2


class TestContinuation:
    def test_ampersand_joins_lines(self):
        src = "x = a +&\n    b"
        assert values(src) == ["x", "=", "a", "+", "b"]
        assert kinds(src).count(NEWLINE) == 1

    def test_multiple_continuations(self):
        src = "x = a +&\n  b +&\n  c"
        assert values(src) == ["x", "=", "a", "+", "b", "+", "c"]

    def test_continued_line_number_is_first_line(self):
        toks = tokenize("junk\nx = a +&\n  b")
        b_tok = next(t for t in toks if t.value == "b")
        assert b_tok.line == 2


class TestLabels:
    def test_label_token(self):
        toks = tokenize(" 10   continue")
        assert toks[0].kind == LABEL
        assert toks[0].value == "10"
        assert toks[1].value == "continue"

    def test_lone_integer_is_not_label(self):
        toks = tokenize("42")
        assert toks[0].kind == INT

    def test_label_on_assignment(self):
        toks = tokenize(" 20 x = 1")
        assert toks[0].kind == LABEL
        assert toks[1].kind == NAME


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as err:
            tokenize("x =   #")
        assert str(err.value) == "line 1: unexpected character '#'"

    def test_error_reports_line(self):
        with pytest.raises(LexError) as err:
            tokenize("ok = 1\nbad ?")
        assert err.value.line == 2


class TestDottedOperatorAfterInteger:
    """An integer directly followed by a dotted operator is an INT: the
    ``.`` starts the operator, it is not the REAL ``1.``."""

    def test_compound_condition_without_blanks(self):
        assert values("if (i.eq.1.and.j.eq.2) x = 1") == [
            "if", "(", "i", "==", "1", ".and.", "j", "==", "2", ")",
            "x", "=", "1",
        ]

    def test_integer_on_the_left(self):
        toks = tokenize("if (1.eq.n) x = 1")
        assert [(t.kind, t.value) for t in toks[2:5]] == [
            (INT, "1"), (OP, "=="), (NAME, "n"),
        ]

    @pytest.mark.parametrize("text", ["1.LT.n", "1.true.", "2.Or.x"])
    def test_any_spelling(self, text):
        assert tokenize(text)[0] == (INT, text[0], 1)

    @pytest.mark.parametrize("text,value", [
        ("1.e5", "1.e5"), ("3.d0", "3.d0"), ("2.", "2."), ("2.*y", "2."),
        ("8..false.", "8."),
    ])
    def test_reals_are_unchanged(self, text, value):
        tok = tokenize(text)[0]
        assert (tok.kind, tok.value) == (REAL, value)


class TestTokenValue:
    def test_real_text_keeps_its_case(self):
        assert values("X = 1.5E3 + 2.5D0") == ["x", "=", "1.5E3", "+", "2.5D0"]

    def test_a_letter_that_lowers_to_two_shifts_nothing(self):
        # "İ".lower() is two characters: tokens come from the line as
        # written, not from positions in a lower-cased copy
        assert values("İ = 1.5E3") == ["i̇", "=", "1.5E3"]

    def test_token_is_a_named_tuple(self):
        tok = tokenize("x")[0]
        assert (tok.kind, tok.value, tok.line) == (NAME, "x", 1)
        assert tok == (NAME, "x", 1) and tok == Token(NAME, "x", 1)


class TestKindFromText:
    """Each token's kind is told from its text alone, for every
    alternative of the token pattern on one line."""

    LINE = ("10 X = Y(1, 2) ** 2 + 1.5D0 - .5 * 2. / 3E2 .AND. 1.eq.2 "
            ".or. .TRUE. <= >= == /= < > : x**2 .not. .FALSE. .GE. b_1")

    def test_one_line_of_every_alternative(self):
        assert tokenize(self.LINE) == [
            (LABEL, "10", 1), (NAME, "x", 1), (OP, "=", 1),
            (NAME, "y", 1), (OP, "(", 1), (INT, "1", 1), (OP, ",", 1),
            (INT, "2", 1), (OP, ")", 1), (OP, "**", 1), (INT, "2", 1),
            (OP, "+", 1), (REAL, "1.5D0", 1), (OP, "-", 1),
            (REAL, ".5", 1), (OP, "*", 1), (REAL, "2.", 1), (OP, "/", 1),
            (REAL, "3E2", 1), (OP, ".and.", 1), (INT, "1", 1),
            (OP, "==", 1), (INT, "2", 1), (OP, ".or.", 1),
            (OP, ".true.", 1), (OP, "<=", 1), (OP, ">=", 1),
            (OP, "==", 1), (OP, "/=", 1), (OP, "<", 1), (OP, ">", 1),
            (OP, ":", 1), (NAME, "x", 1), (OP, "**", 1), (INT, "2", 1),
            (OP, ".not.", 1), (OP, ".false.", 1), (OP, ">=", 1),
            (NAME, "b_1", 1), (NEWLINE, "\n", 1), (EOF, "", 1),
        ]

    @pytest.mark.parametrize("source,line", [
        ("x = y + 1.5D0 #", 1),
        ("10 x = 1.eq.2 # 3", 1),
        ("x = 1\n  y = .TRUE. .and. #", 2),
    ])
    def test_a_stray_character_after_tokens(self, source, line):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value) == f"line {line}: unexpected character '#'"
        assert err.value.line == line

    def test_the_first_stray_character_is_named(self):
        with pytest.raises(LexError) as err:
            tokenize("x = a ? b # c")
        assert str(err.value) == "line 1: unexpected character '?'"
