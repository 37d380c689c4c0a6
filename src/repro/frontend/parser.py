"""Recursive-descent parser for the Fortran-77 subset.

Grammar (statements end at NEWLINE):

    program     := PROGRAM name NL {declaration NL} {statement NL} END
    declaration := type-spec entity {"," entity}
                 | DIMENSION entity {"," entity}
                 | PARAMETER "(" name "=" expr {"," name "=" expr} ")"
                 | IMPLICIT NONE
    type-spec   := INTEGER | REAL | DOUBLE PRECISION
    entity      := name ["(" dim {"," dim} ")"]
    dim         := expr [":" expr]
    statement   := assign | do | if | CONTINUE
    do          := DO [label] name "=" expr "," expr ["," expr] NL
                       {statement NL}
                   (ENDDO | label CONTINUE)
    if          := IF "(" expr ")" THEN NL {statement NL}
                   {ELSEIF "(" expr ")" THEN NL {statement NL}}
                   [ELSE NL {statement NL}] ENDIF
                 | IF "(" expr ")" assign          (logical IF)
    assign      := (name | array-ref) "=" expr

Expressions are parsed by one precedence-climbing loop.  Precedence
(loosest to tightest): ``.or.`` < ``.and.`` < ``.not.`` < relational (one
per operand, not chained) < additive < multiplicative < unary sign <
``**`` (right-associative).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .lexer import EOF, INT, LABEL, NAME, NEWLINE, OP, REAL, Token, tokenize


class ParseError(Exception):
    """Raised on syntactically invalid input."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"line {token.line}: {message} (at {token.value!r})")
        self.token = token


#: precedence levels, loosest first: ``.or.``, ``.and.``, prefix ``.not.``,
#: relational, additive, multiplicative, prefix sign, ``**``
_OR, _AND, _NOT, _REL, _ADD, _MUL, _SIGN, _POW = range(1, 9)
_PREFIX = {".not.": _NOT, "+": _SIGN, "-": _SIGN}
#: binary operator -> (its precedence, the least precedence of its right
#: operand): one above its own for left-associative operators, the
#: prefix sign's for ``**``
_BINARY = {
    ".or.": (_OR, _AND),
    ".and.": (_AND, _NOT),
    **dict.fromkeys(("<", "<=", ">", ">=", "==", "/="), (_REL, _ADD)),
    "+": (_ADD, _MUL),
    "-": (_ADD, _MUL),
    "*": (_MUL, _SIGN),
    "/": (_MUL, _SIGN),
    "**": (_POW, _SIGN),
}
_DECL_HEADS = {"integer", "real", "double", "dimension", "parameter", "implicit"}


class Parser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        self._tok = tokens[0]  # the current token, kept by ``_advance``

    # -- token helpers ----------------------------------------------------

    def _advance(self) -> Token:
        tok = self._tok
        if tok.kind != EOF:
            self._pos += 1
            self._tok = self._tokens[self._pos]
        return tok

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self._tok
        return tok.kind == kind and (value is None or tok.value == value)

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self._check(kind, value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}", self._tok)
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._tok.kind == NEWLINE:
            self._advance()

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = self._parse_program_unit()
        self._skip_newlines()
        self._expect(EOF)
        return program

    def parse_file(self) -> ast.SourceFile:
        """Parse one PROGRAM unit plus any SUBROUTINE units (any order)."""
        program: Optional[ast.Program] = None
        subroutines: List[ast.Subroutine] = []
        self._skip_newlines()
        while self._tok.kind != EOF:
            if self._check(NAME, "program"):
                if program is not None:
                    raise ParseError("duplicate PROGRAM unit", self._tok)
                program = self._parse_program_unit()
            elif self._check(NAME, "subroutine"):
                subroutines.append(self._parse_subroutine_unit())
            else:
                raise ParseError(
                    "expected PROGRAM or SUBROUTINE", self._tok
                )
            self._skip_newlines()
        if program is None:
            raise ParseError("no PROGRAM unit in file", self._tok)
        return ast.SourceFile(
            program=program, subroutines=tuple(subroutines)
        )

    def _parse_program_unit(self) -> ast.Program:
        self._skip_newlines()
        self._expect(NAME, "program")
        name = self._expect(NAME).value
        self._expect(NEWLINE)
        declarations = self._parse_declaration_block()
        body = self._parse_stmt_block(stop={"end"})
        self._expect(NAME, "end")
        return ast.Program(
            name=name, declarations=tuple(declarations), body=body
        )

    def _parse_subroutine_unit(self) -> ast.Subroutine:
        self._expect(NAME, "subroutine")
        name = self._expect(NAME).value
        params: List[str] = []
        if self._accept(OP, "("):
            if not self._check(OP, ")"):
                while True:
                    params.append(self._expect(NAME).value)
                    if not self._accept(OP, ","):
                        break
            self._expect(OP, ")")
        self._expect(NEWLINE)
        declarations = self._parse_declaration_block()
        body = self._parse_stmt_block(stop={"end"})
        self._expect(NAME, "end")
        return ast.Subroutine(
            name=name,
            params=tuple(params),
            declarations=tuple(declarations),
            body=body,
        )

    def _parse_declaration_block(self) -> List[ast.Declaration]:
        self._skip_newlines()
        declarations: List[ast.Declaration] = []
        while self._tok.kind == NAME and self._tok.value in _DECL_HEADS:
            decl = self._parse_declaration()
            if decl is not None:
                declarations.append(decl)
            self._expect(NEWLINE)
            self._skip_newlines()
        return declarations

    # -- declarations -----------------------------------------------------

    def _parse_declaration(self) -> Optional[ast.Declaration]:
        tok = self._advance()
        line = tok.line
        head = tok.value
        if head == "implicit":
            self._expect(NAME, "none")
            return None
        if head == "parameter":
            self._expect(OP, "(")
            bindings: List[Tuple[str, ast.Expr]] = []
            while True:
                pname = self._expect(NAME).value
                self._expect(OP, "=")
                bindings.append((pname, self._parse_expr()))
                if not self._accept(OP, ","):
                    break
            self._expect(OP, ")")
            return ast.ParameterDecl(bindings=tuple(bindings), line=line)
        if head == "dimension":
            return ast.DimensionDecl(entities=self._parse_entity_list(), line=line)
        # Type declarations.
        if head == "double":
            self._expect(NAME, "precision")
            dtype = "double"
        else:
            dtype = head
        return ast.TypeDecl(
            dtype=dtype, entities=self._parse_entity_list(), line=line
        )

    def _parse_entity_list(self) -> Tuple[ast.Entity, ...]:
        entities: List[ast.Entity] = []
        while True:
            name = self._expect(NAME).value
            dims: Tuple[ast.DimSpec, ...] = ()
            if self._accept(OP, "("):
                specs: List[ast.DimSpec] = []
                while True:
                    first = self._parse_expr()
                    if self._accept(OP, ":"):
                        specs.append(ast.DimSpec(lo=first, hi=self._parse_expr()))
                    else:
                        specs.append(ast.DimSpec(lo=ast.IntLit(1), hi=first))
                    if not self._accept(OP, ","):
                        break
                self._expect(OP, ")")
                dims = tuple(specs)
            entities.append(ast.Entity(name=name, dims=dims))
            if not self._accept(OP, ","):
                break
        return tuple(entities)

    # -- statements ---------------------------------------------------------

    def _parse_stmt_block(
        self, stop: set, stop_label: Optional[int] = None
    ) -> Tuple[ast.Stmt, ...]:
        """Parse statements until a stopping keyword (not consumed) or, for
        labelled DO loops, until the statement carrying ``stop_label`` has
        been parsed (consumed; its trailing NEWLINE is left for the caller,
        matching the convention that every statement parser leaves its
        terminating NEWLINE unconsumed)."""
        stmts: List[ast.Stmt] = []
        while True:
            self._skip_newlines()
            tok = self._tok
            if tok.kind == EOF:
                break
            if tok.kind == NAME and tok.value in stop:
                break
            label: Optional[int] = None
            if tok.kind == LABEL:
                label = int(self._advance().value)
            stmt = self._parse_statement()
            stmts.append(stmt)
            if stop_label is not None and label == stop_label:
                return tuple(stmts)
            self._expect(NEWLINE)
        if stop_label is not None:
            raise ParseError(f"missing statement label {stop_label}", self._tok)
        return tuple(stmts)

    def _parse_statement(self) -> ast.Stmt:
        tok = self._tok
        if tok.kind != NAME:
            raise ParseError("expected statement", tok)
        if tok.value == "do":
            return self._parse_do()
        if tok.value == "if":
            return self._parse_if(self._advance())
        if tok.value == "continue":
            self._advance()
            return ast.Continue(line=tok.line)
        if tok.value == "call":
            return self._parse_call()
        return self._parse_assign()

    def _parse_call(self) -> ast.CallStmt:
        call_tok = self._expect(NAME, "call")
        name = self._expect(NAME).value
        args: List[ast.Expr] = []
        if self._accept(OP, "("):
            if not self._check(OP, ")"):
                while True:
                    args.append(self._parse_expr())
                    if not self._accept(OP, ","):
                        break
            self._expect(OP, ")")
        return ast.CallStmt(name=name, args=tuple(args), line=call_tok.line)

    def _parse_do(self) -> ast.Do:
        do_tok = self._expect(NAME, "do")
        label: Optional[int] = None
        if self._tok.kind == INT:
            label = int(self._advance().value)
        var = self._expect(NAME).value
        self._expect(OP, "=")
        lo = self._parse_expr()
        self._expect(OP, ",")
        hi = self._parse_expr()
        step: Optional[ast.Expr] = None
        if self._accept(OP, ","):
            step = self._parse_expr()
        self._expect(NEWLINE)
        if label is None:
            body = self._parse_stmt_block(stop={"enddo"})
            self._expect(NAME, "enddo")
        else:
            body = self._parse_stmt_block(stop=set(), stop_label=label)
        return ast.Do(
            var=var, lo=lo, hi=hi, step=step, body=body, label=label,
            line=do_tok.line,
        )

    def _parse_if(self, if_tok: Token) -> ast.If:
        """The rest of an IF whose keyword ``if_tok`` (``IF``, or the
        ``ELSEIF`` of an enclosing chain) has been consumed."""
        self._expect(OP, "(")
        cond = self._parse_expr()
        self._expect(OP, ")")
        if not self._check(NAME, "then"):
            # Logical IF: a single statement on the same line.
            stmt = self._parse_statement()
            return ast.If(cond=cond, then_body=(stmt,), line=if_tok.line)
        self._expect(NAME, "then")
        self._expect(NEWLINE)
        then_body = self._parse_stmt_block(stop={"else", "elseif", "endif"})
        else_body: Tuple[ast.Stmt, ...] = ()
        if self._check(NAME, "elseif"):
            # The chain's rest is a nested IF in the else branch.
            else_body = (self._parse_if(self._advance()),)
            return ast.If(
                cond=cond, then_body=then_body, else_body=else_body,
                line=if_tok.line,
            )
        if self._accept(NAME, "else"):
            self._expect(NEWLINE)
            else_body = self._parse_stmt_block(stop={"endif"})
        self._expect(NAME, "endif")
        return ast.If(
            cond=cond, then_body=then_body, else_body=else_body, line=if_tok.line
        )

    def _parse_assign(self) -> ast.Assign:
        tok = self._tok
        target = self._parse_primary()
        if not isinstance(target, (ast.Var, ast.ArrayRef)):
            raise ParseError("invalid assignment target", tok)
        self._expect(OP, "=")
        expr = self._parse_expr()
        return ast.Assign(target=target, expr=expr, line=tok.line)

    # -- expressions --------------------------------------------------------

    def _parse_expr(self, min_prec: int = _OR) -> ast.Expr:
        """Precedence climbing: an operand, then every binary operator of
        precedence at least ``min_prec`` with its right operand.

        After an operator of precedence ``p`` only looser ones may extend
        the result — a relational one not even its own level, so
        ``a < b < c`` stops before the second ``<`` — which keeps the
        shape of the grammar's eight levels: ``.not.`` takes a whole
        relational, and ``**`` binds right to left through unary sign."""
        tok = self._tok
        prec = _PREFIX.get(tok.value) if tok.kind == OP else None
        if prec is not None and prec >= min_prec:
            self._advance()
            left = ast.UnaryOp(op=tok.value, operand=self._parse_expr(prec))
            ceiling = prec
        else:
            left = self._parse_primary()
            ceiling = _POW + 1
        while True:
            tok = self._tok
            if tok.kind != OP or tok.value not in _BINARY:
                return left
            prec, right_prec = _BINARY[tok.value]
            if not min_prec <= prec < ceiling:
                return left
            self._advance()
            left = ast.BinOp(
                op=tok.value, left=left, right=self._parse_expr(right_prec)
            )
            ceiling = prec if prec == _REL else prec + 1

    def _parse_primary(self) -> ast.Expr:
        tok = self._tok
        if tok.kind == INT:
            self._advance()
            return ast.IntLit(int(tok.value))
        if tok.kind == REAL:
            self._advance()
            text = tok.value.lower()
            is_double = "d" in text
            return ast.RealLit(float(text.replace("d", "e")), is_double=is_double)
        if tok.kind == OP and tok.value in (".true.", ".false."):
            self._advance()
            return ast.LogicalLit(tok.value == ".true.")
        if tok.kind == OP and tok.value == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect(OP, ")")
            return inner
        if tok.kind == NAME:
            self._advance()
            if self._accept(OP, "("):
                args: List[ast.Expr] = []
                if not self._check(OP, ")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept(OP, ","):
                            break
                self._expect(OP, ")")
                if tok.value in INTRINSICS:
                    return ast.Call(name=tok.value, args=tuple(args))
                return ast.ArrayRef(name=tok.value, subscripts=tuple(args))
            return ast.Var(name=tok.value)
        raise ParseError("expected expression", tok)


#: Recognized intrinsic functions; anything else with parentheses is an
#: array reference.  (The subset has no user function calls.)
INTRINSICS = frozenset(
    {
        "sqrt", "abs", "min", "max", "exp", "log", "sin", "cos", "tan",
        "mod", "sign", "dble", "real", "int", "float",
    }
)


def parse_source(source: str) -> ast.Program:
    """Parse single-unit Fortran-subset source text into a
    :class:`repro.frontend.ast.Program`.

    Multi-unit files (PROGRAM + SUBROUTINEs) go through
    :func:`parse_source_file` and the inliner instead.
    """
    return Parser(tokenize(source)).parse_program()


def parse_source_file(source: str) -> ast.SourceFile:
    """Parse a file containing one PROGRAM and any number of SUBROUTINE
    units."""
    return Parser(tokenize(source)).parse_file()
