"""Tokenizer for the Fortran-77 subset.

The lexer accepts a pragmatic mix of fixed- and free-form conventions so the
bundled benchmark sources stay readable:

* comments: full-line ``C``/``c``/``*`` in column 1 or ``!`` anywhere;
* statement labels: a leading integer on a line (used by ``DO 10 ... 10
  CONTINUE`` loops);
* continuations: a trailing ``&`` joins the next line;
* case-insensitive keywords and identifiers (normalized to lower case);
* Fortran operators ``.LT. .LE. .GT. .GE. .EQ. .NE. .AND. .OR. .NOT.
  .TRUE. .FALSE.`` as single tokens.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional


class LexError(Exception):
    """Raised on input the lexer cannot tokenize."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Token kinds
NAME = "NAME"
INT = "INT"
REAL = "REAL"
OP = "OP"
NEWLINE = "NEWLINE"
LABEL = "LABEL"
EOF = "EOF"

# Dotted operators mapped to canonical spellings.
_DOT_OPS = {
    ".lt.": "<",
    ".le.": "<=",
    ".gt.": ">",
    ".ge.": ">=",
    ".eq.": "==",
    ".ne.": "/=",
    ".and.": ".and.",
    ".or.": ".or.",
    ".not.": ".not.",
    ".true.": ".true.",
    ".false.": ".false.",
}

_DOTTED = r"\.(?:lt|le|gt|ge|eq|ne|and|or|not|true|false)\."

#: the operators other than the dotted ones, each its own value
_OPS = frozenset(("**", "<=", ">=", "==", "/=", *"-+*/(),=<>:"))

# One match per token, leading blanks included; the group holds the
# token's text, and ``tokenize`` tells its kind from that text.  Only
# REAL and INT start alike, so only their order matters.  ``1.eq.`` is
# the integer 1 and a dotted operator, not the REAL ``1.``.  Any other
# character matches outside the group, so ``findall`` gives it as "".
_TOKEN_RE = re.compile(
    rf"""[ \t]*(?:(
        [a-z][a-z0-9_]*                                  # name
      | \*\*|<=|>=|==|/=|[-+*/(),=<>:]                   # operator
      | {_DOTTED}                                        # dotted operator
      | (?:\d+\.\d*|\.\d+|\d+)[ed][+-]?\d+                # real
      | \d+(?!{_DOTTED})\.\d* | \.\d+
      | \d+                                              # integer
    ) | .)""",
    re.VERBOSE | re.IGNORECASE,
)

# A leading integer followed by a statement (which begins with a letter).
_LABEL_RE = re.compile(r"\s*(\d+)\s+[A-Za-z]")


class Token(NamedTuple):
    kind: str
    value: str
    line: int


def _logical_lines(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(first_line_number, text)`` logical lines with comments
    stripped and ``&`` continuations joined."""
    pending: Optional[str] = None
    pending_line = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        # Full-line comments (classic column-1 markers).
        if raw[:1] in ("C", "c", "*"):
            continue
        # Inline comments; what is left ends in no blank.
        text = raw.partition("!")[0].rstrip()
        if not text:
            continue
        if pending is not None:
            text = pending + " " + text.lstrip()
            lineno_out = pending_line
            pending = None
        else:
            lineno_out = lineno
        if text[-1] == "&":
            pending = text[:-1]
            pending_line = lineno_out
            continue
        yield lineno_out, text


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, returning a flat token list ending in EOF.

    Each logical line produces its tokens followed by one NEWLINE token.
    A leading integer on a line is emitted as a LABEL token.
    """
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without NamedTuple's Python-level __new__
    for lineno, text in _logical_lines(source):
        pos = 0
        label = _LABEL_RE.match(text)
        if label:
            append(new(Token, (LABEL, label.group(1), lineno)))
            pos = label.end(1)
        for value in _TOKEN_RE.findall(text, pos):
            # The text alone tells the alternative: a name starts with a
            # letter, an integer is all digits, a dotted operator starts
            # and ends with ".", and a REAL is what is left.
            if value in _OPS:
                kind = OP
            elif not value:
                raise LexError(
                    f"unexpected character {_stray(text, pos)!r}", lineno
                )
            elif value[0].isalpha():
                kind, value = NAME, value.lower()
            elif value.isdigit():
                kind = INT
            elif value[0] == "." and value[-1] == ".":
                kind, value = OP, _DOT_OPS[value.lower()]
            else:
                kind = REAL
            append(new(Token, (kind, value, lineno)))
        append(new(Token, (NEWLINE, "\n", lineno)))
    last_line = tokens[-1].line if tokens else 1
    append(Token(EOF, "", last_line))
    return tokens


def _stray(text: str, pos: int) -> str:
    """The first character of ``text`` from ``pos`` that starts no token
    (the last character of the first match outside the group)."""
    return next(
        match.group()[-1]
        for match in _TOKEN_RE.finditer(text, pos)
        if match.group(1) is None
    )
