"""Reference interpreter for the Fortran subset.

Executes programs sequentially with NumPy-backed arrays — the semantic
ground truth behind the source-level machinery:

* the bundled benchmark re-creations compute finite, sensible values;
* the inliner is *semantics-preserving*: running a multi-unit program
  (CALLs executed directly, Fortran reference semantics) gives exactly
  the same final state as running its inlined form;
* the unparser round-trips: a printed program executes identically.

Arrays are Fortran-style: column-major conceptually, declared bounds
honored (1-based by default), out-of-bounds subscripts raise.  Intrinsic
functions map to their Python equivalents.  The interpreter is for
validation at small problem sizes, not for performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import ast
from .symbols import ArraySymbol, SymbolTable, build_symbol_table


class InterpError(Exception):
    """Raised on runtime errors (bad subscripts, unknown names...)."""


_INTRINSICS = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "min": min,
    "max": max,
    "mod": lambda a, b: math.fmod(a, b) if isinstance(a, float) else a % b,
    "sign": lambda a, b: math.copysign(abs(a), b),
    "int": int,
    "float": float,
    "real": float,
    "dble": float,
}

_DTYPE_NP = {"integer": np.int64, "real": np.float32, "double": np.float64}


@dataclass
class FortranArray:
    """A declared array with its bounds and storage."""

    symbol: ArraySymbol
    data: np.ndarray

    @classmethod
    def allocate(cls, symbol: ArraySymbol) -> "FortranArray":
        return cls(
            symbol=symbol,
            data=np.zeros(symbol.extents,
                          dtype=_DTYPE_NP[symbol.dtype], order="F"),
        )

    def _index(self, subscripts: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(subscripts) != self.symbol.rank:
            raise InterpError(
                f"{self.symbol.name}: {len(subscripts)} subscripts for a "
                f"rank-{self.symbol.rank} array"
            )
        index = []
        for value, (lo, hi) in zip(subscripts, self.symbol.bounds):
            if not lo <= value <= hi:
                raise InterpError(
                    f"{self.symbol.name}: subscript {value} outside "
                    f"{lo}:{hi}"
                )
            index.append(value - lo)
        return tuple(index)

    def get(self, subscripts: Tuple[int, ...]):
        value = self.data[self._index(subscripts)]
        return value.item()

    def set(self, subscripts: Tuple[int, ...], value) -> None:
        self.data[self._index(subscripts)] = value


@dataclass
class Environment:
    """Execution state: arrays (possibly aliased through CALLs), scalars,
    and constant bindings."""

    arrays: Dict[str, FortranArray] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)
    constants: Dict[str, float] = field(default_factory=dict)

    def lookup(self, name: str):
        if name in self.scalars:
            return self.scalars[name]
        if name in self.constants:
            return self.constants[name]
        raise InterpError(f"undefined scalar {name!r}")


class Interpreter:
    """Executes one program unit (and any subroutines, by reference)."""

    def __init__(self, source_file: ast.SourceFile,
                 max_statements: int = 50_000_000):
        self.source_file = source_file
        self.subroutines = {s.name: s for s in source_file.subroutines}
        self.max_statements = max_statements
        self.statements_executed = 0

    # -- setup --------------------------------------------------------------

    def _build_env(
        self, unit, extra_constants: Optional[Dict[str, float]] = None
    ) -> Tuple[Environment, SymbolTable]:
        program = ast.Program(
            name=getattr(unit, "name", "unit"),
            declarations=unit.declarations,
            body=unit.body,
        )
        table = build_symbol_table(program, extra_constants=extra_constants)
        env = Environment()
        env.constants.update(table.constants)
        for symbol in table.arrays():
            env.arrays[symbol.name] = FortranArray.allocate(symbol)
        for symbol in table.scalars():
            env.scalars[symbol.name] = (
                0 if symbol.dtype == "integer" else 0.0
            )
        return env, table

    def run(self) -> Environment:
        """Execute the PROGRAM unit; returns its final environment."""
        env, _table = self._build_env(self.source_file.program)
        self._exec_block(self.source_file.program.body, env)
        return env

    # -- statements -----------------------------------------------------------

    def _tick(self) -> None:
        self.statements_executed += 1
        if self.statements_executed > self.max_statements:
            raise InterpError("statement budget exhausted (runaway loop?)")

    def _exec_block(self, stmts, env: Environment) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.Stmt, env: Environment) -> None:
        self._tick()
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.expr, env)
            target = stmt.target
            if isinstance(target, ast.Var):
                if target.name in env.arrays:
                    raise InterpError(
                        f"whole-array assignment to {target.name!r}"
                    )
                if isinstance(env.scalars.get(target.name), int) and \
                        not isinstance(value, bool):
                    env.scalars[target.name] = (
                        int(value) if isinstance(value, float) else value
                    )
                else:
                    env.scalars[target.name] = value
            else:
                array = env.arrays.get(target.name)
                if array is None:
                    raise InterpError(f"unknown array {target.name!r}")
                subs = tuple(
                    int(self._eval(s, env)) for s in target.subscripts
                )
                array.set(subs, value)
        elif isinstance(stmt, ast.Do):
            lo = int(self._eval(stmt.lo, env))
            hi = int(self._eval(stmt.hi, env))
            step = int(self._eval(stmt.step, env)) if stmt.step else 1
            if step == 0:
                raise InterpError("zero DO step")
            var = stmt.var
            value = lo
            while (step > 0 and value <= hi) or (step < 0 and value >= hi):
                env.scalars[var] = value
                self._exec_block(stmt.body, env)
                value += step
            env.scalars[var] = value
        elif isinstance(stmt, ast.If):
            if self._truthy(self._eval(stmt.cond, env)):
                self._exec_block(stmt.then_body, env)
            else:
                self._exec_block(stmt.else_body, env)
        elif isinstance(stmt, ast.Continue):
            return
        elif isinstance(stmt, ast.CallStmt):
            self._exec_call(stmt, env)
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _exec_call(self, call: ast.CallStmt, env: Environment) -> None:
        sub = self.subroutines.get(call.name)
        if sub is None:
            raise InterpError(f"unknown subroutine {call.name!r}")
        if len(call.args) != len(sub.params):
            raise InterpError(
                f"call to {call.name!r}: arity mismatch"
            )
        # Scalar arguments are evaluated first so dummy array bounds
        # (``u(m, m)``) are known when the callee's arrays are declared.
        scalar_bindings: Dict[str, float] = {}
        for dummy, actual in zip(sub.params, call.args):
            if isinstance(actual, ast.Var) and actual.name in env.arrays:
                continue
            value = (
                env.lookup(actual.name)
                if isinstance(actual, ast.Var)
                else self._eval(actual, env)
            )
            if isinstance(value, int):
                scalar_bindings[dummy] = value
        callee_env, _table = self._build_env(
            sub, extra_constants=scalar_bindings or None
        )
        # Bind dummies: arrays alias the caller's storage; scalars are
        # passed by reference when the actual is a variable.
        scalar_refs: Dict[str, str] = {}
        for dummy, actual in zip(sub.params, call.args):
            if isinstance(actual, ast.Var) and actual.name in env.arrays:
                caller = env.arrays[actual.name]
                dummy_symbol = (
                    callee_env.arrays[dummy].symbol
                    if dummy in callee_env.arrays else None
                )
                if dummy_symbol is None:
                    raise InterpError(
                        f"{call.name!r}: array passed to scalar dummy "
                        f"{dummy!r}"
                    )
                # Alias the storage; keep the callee's declared bounds
                # view (Fortran sequence association for equal shapes).
                callee_env.arrays[dummy] = FortranArray(
                    symbol=dummy_symbol,
                    data=caller.data,
                )
            elif isinstance(actual, ast.Var):
                callee_env.scalars[dummy] = env.lookup(actual.name)
                scalar_refs[dummy] = actual.name
            else:
                callee_env.scalars[dummy] = self._eval(actual, env)
        self._exec_block(sub.body, callee_env)
        # Copy back by-reference scalars.
        for dummy, caller_name in scalar_refs.items():
            if caller_name in env.scalars:
                env.scalars[caller_name] = callee_env.scalars[dummy]

    # -- expressions ------------------------------------------------------------

    def _truthy(self, value) -> bool:
        return bool(value)

    def _eval(self, expr: ast.Expr, env: Environment):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.LogicalLit):
            return expr.value
        if isinstance(expr, ast.Var):
            return env.lookup(expr.name)
        if isinstance(expr, ast.ArrayRef):
            array = env.arrays.get(expr.name)
            if array is None:
                raise InterpError(f"unknown array {expr.name!r}")
            subs = tuple(
                int(self._eval(s, env)) for s in expr.subscripts
            )
            return array.get(subs)
        if isinstance(expr, ast.UnaryOp):
            value = self._eval(expr.operand, env)
            if expr.op == "-":
                return -value
            if expr.op == "+":
                return value
            if expr.op == ".not.":
                return not self._truthy(value)
            raise InterpError(f"unknown unary {expr.op!r}")
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            if expr.op == ".and.":
                return self._truthy(left) and self._truthy(
                    self._eval(expr.right, env)
                )
            if expr.op == ".or.":
                return self._truthy(left) or self._truthy(
                    self._eval(expr.right, env)
                )
            right = self._eval(expr.right, env)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return int(left / right)  # Fortran truncation
                return left / right
            if expr.op == "**":
                return left ** right
            if expr.op == "<":
                return left < right
            if expr.op == "<=":
                return left <= right
            if expr.op == ">":
                return left > right
            if expr.op == ">=":
                return left >= right
            if expr.op == "==":
                return left == right
            if expr.op == "/=":
                return left != right
            raise InterpError(f"unknown operator {expr.op!r}")
        if isinstance(expr, ast.Call):
            fn = _INTRINSICS.get(expr.name)
            if fn is None:
                raise InterpError(f"unknown intrinsic {expr.name!r}")
            args = [self._eval(a, env) for a in expr.args]
            return fn(*args)
        raise InterpError(f"cannot evaluate {type(expr).__name__}")


def run_source(source: str, max_statements: int = 50_000_000
               ) -> Environment:
    """Parse and execute Fortran-subset source (multi-unit allowed),
    returning the final environment."""
    from .parser import parse_source_file

    return Interpreter(
        parse_source_file(source), max_statements=max_statements
    ).run()


def run_program(program: ast.Program, max_statements: int = 50_000_000
                ) -> Environment:
    """Execute an already-parsed single program unit."""
    return Interpreter(
        ast.SourceFile(program=program, subroutines=()),
        max_statements=max_statements,
    ).run()
