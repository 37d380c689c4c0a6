#!/usr/bin/env python3
"""Laying out a program written with subroutines.

The paper's prototype analyzes single procedures only — its authors ran a
hand-inlined Erlebacher.  The tool automates that: multi-unit files are
inlined before the four framework steps, so each call site gets its own
phases (and can get its own layout).

Here a line-sweep solver is called along both directions; after inlining
the assistant sees the same structure as the hand-written ADI kernel and
picks a layout accordingly.

    python examples/subroutines.py
"""

from repro.frontend.inline import parse_and_inline
from repro.frontend.printer import format_program
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts
from repro.tool.report import format_selection

SOURCE = """
program twosweeps
      implicit none
      integer n, steps
      parameter (n = 128, steps = 6)
      double precision u(n, n), cx(n, n), cy(n, n)
      integer i, j, t

      do j = 1, n
        do i = 1, n
          u(i, j) = 1.0 / (i + j)
          cx(i, j) = 0.25
          cy(i, j) = 0.25
        enddo
      enddo

      do t = 1, steps
        call sweepi(u, cx, n)
        call sweepj(u, cy, n)
      enddo
      end

subroutine sweepi(x, c, m)
      implicit none
      integer m
      double precision x(m, m), c(m, m)
      integer i, j
      do j = 1, m
        do i = 2, m
          x(i, j) = x(i, j) - c(i, j) * x(i - 1, j)
        enddo
      enddo
      end

subroutine sweepj(x, c, m)
      implicit none
      integer m
      double precision x(m, m), c(m, m)
      integer i, j
      do j = 2, m
        do i = 1, m
          x(i, j) = x(i, j) - c(i, j) * x(i, j - 1)
        enddo
      enddo
      end
"""


def main() -> None:
    inlined = parse_and_inline(SOURCE)
    print("=== inlined program (what the framework analyzes) ===")
    print(format_program(inlined))

    result = run_assistant(SOURCE, AssistantConfig(nprocs=16))
    print("=== selected layout ===")
    print(format_selection(result))

    m = measure_layouts(SOURCE, result.selected_layouts, nprocs=16)
    print(f"\nsimulated execution: {m.seconds:.4f} s "
          f"({m.remap_count} remaps)")


if __name__ == "__main__":
    main()
