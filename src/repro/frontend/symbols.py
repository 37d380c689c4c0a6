"""Symbol table construction for parsed programs.

Evaluates PARAMETER constants, merges type and DIMENSION declarations, and
classifies every declared name as a scalar or an array with known integer
extents.  Induction variables and any undeclared names default to INTEGER
scalars (Fortran implicit typing is otherwise not modelled; the bundled
sources declare everything).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import ast

#: bytes per element for each supported data type
DTYPE_BYTES = {"integer": 4, "real": 4, "double": 8, "logical": 4}


class SymbolError(Exception):
    """Raised for inconsistent or unevaluable declarations."""


@dataclass(frozen=True)
class ArraySymbol:
    """A declared array: name, element type, and per-dimension bounds.

    ``extents``, ``element_count`` and ``total_bytes`` are derived once,
    at construction; the symbol's identity (``==``, ``hash``, ``repr``,
    what it pickles to) is its three fields alone.
    """

    name: str
    dtype: str
    bounds: Tuple[Tuple[int, int], ...]  # inclusive (lo, hi) per dimension

    def __post_init__(self) -> None:
        extents = tuple(hi - lo + 1 for lo, hi in self.bounds)
        count = math.prod(extents)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "element_count", count)
        object.__setattr__(self, "total_bytes", count * DTYPE_BYTES[self.dtype])

    def __getstate__(self) -> dict:
        return {"name": self.name, "dtype": self.dtype, "bounds": self.bounds}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def rank(self) -> int:
        return len(self.bounds)

    @property
    def element_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]


@dataclass(frozen=True)
class ScalarSymbol:
    """A declared (or implicitly typed) scalar."""

    name: str
    dtype: str


Symbol = ArraySymbol | ScalarSymbol


class SymbolTable:
    """Name → symbol mapping plus the PARAMETER constant environment."""

    def __init__(self) -> None:
        self._symbols: Dict[str, Symbol] = {}
        self.constants: Dict[str, int | float] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __getitem__(self, name: str) -> Symbol:
        return self._symbols[name]

    def get(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name)

    def add(self, symbol: Symbol) -> None:
        self._symbols[symbol.name] = symbol

    def arrays(self) -> Tuple[ArraySymbol, ...]:
        return tuple(
            s for s in self._symbols.values() if isinstance(s, ArraySymbol)
        )

    def scalars(self) -> Tuple[ScalarSymbol, ...]:
        return tuple(
            s for s in self._symbols.values() if isinstance(s, ScalarSymbol)
        )

    def array(self, name: str) -> ArraySymbol:
        sym = self._symbols.get(name)
        if not isinstance(sym, ArraySymbol):
            raise SymbolError(f"{name!r} is not a declared array")
        return sym


def eval_const_expr(expr: ast.Expr, constants: Dict[str, int | float]):
    """Evaluate a compile-time-constant expression (literals, PARAMETER
    names, arithmetic)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.RealLit):
        return expr.value
    if isinstance(expr, ast.Var):
        if expr.name not in constants:
            raise SymbolError(
                f"{expr.name!r} used in a constant expression but is not a "
                "PARAMETER"
            )
        return constants[expr.name]
    if isinstance(expr, ast.UnaryOp):
        value = eval_const_expr(expr.operand, constants)
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        raise SymbolError(f"operator {expr.op!r} not allowed in constants")
    if isinstance(expr, ast.BinOp):
        left = eval_const_expr(expr.left, constants)
        right = eval_const_expr(expr.right, constants)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            # Fortran integer division truncates.
            if isinstance(left, int) and isinstance(right, int):
                return int(left / right)
            return left / right
        if expr.op == "**":
            return left**right
        raise SymbolError(f"operator {expr.op!r} not allowed in constants")
    raise SymbolError(f"cannot evaluate {type(expr).__name__} as a constant")


def build_symbol_table(
    program: ast.Program,
    extra_constants: Optional[Dict[str, int | float]] = None,
) -> SymbolTable:
    """Build the symbol table for ``program``.

    PARAMETER declarations are evaluated in order; later type/DIMENSION
    declarations may reference earlier constants in their bounds.
    ``extra_constants`` supplies additional compile-time values (the
    interpreter passes a subroutine's bound scalar arguments so dummy
    array bounds like ``u(m, m)`` evaluate).
    """
    table = SymbolTable()
    if extra_constants:
        table.constants.update(extra_constants)
    # dtype by name from type declarations (dimension info may arrive
    # separately via DIMENSION).
    dtypes: Dict[str, str] = {}
    dims: Dict[str, Tuple[Tuple[int, int], ...]] = {}

    def eval_dims(entity: ast.Entity) -> Tuple[Tuple[int, int], ...]:
        bounds = []
        for spec in entity.dims:
            lo = eval_const_expr(spec.lo, table.constants)
            hi = eval_const_expr(spec.hi, table.constants)
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise SymbolError(
                    f"array {entity.name!r} has non-integer bounds"
                )
            if hi < lo:
                raise SymbolError(
                    f"array {entity.name!r} has empty dimension {lo}:{hi}"
                )
            bounds.append((lo, hi))
        return tuple(bounds)

    for decl in program.declarations:
        if isinstance(decl, ast.ParameterDecl):
            for name, expr in decl.bindings:
                table.constants[name] = eval_const_expr(expr, table.constants)
        elif isinstance(decl, ast.TypeDecl):
            for entity in decl.entities:
                dtypes[entity.name] = decl.dtype
                if entity.dims:
                    dims[entity.name] = eval_dims(entity)
        elif isinstance(decl, ast.DimensionDecl):
            for entity in decl.entities:
                if not entity.dims:
                    raise SymbolError(
                        f"DIMENSION entry {entity.name!r} has no bounds"
                    )
                dims[entity.name] = eval_dims(entity)

    names = set(dtypes) | set(dims)
    extra = set(extra_constants or ())
    for name in sorted(names):
        dtype = dtypes.get(name, "integer")
        if name in table.constants and name not in extra:
            continue  # PARAMETER names are constants, not variables
        if name in dims:
            table.add(ArraySymbol(name=name, dtype=dtype, bounds=dims[name]))
        else:
            table.add(ScalarSymbol(name=name, dtype=dtype))

    # Loop induction variables and other undeclared names: integer scalars.
    for stmt in ast.walk_stmts(program.body):
        if isinstance(stmt, ast.Do) and stmt.var not in table:
            table.add(ScalarSymbol(name=stmt.var, dtype="integer"))
    return table
