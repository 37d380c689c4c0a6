#!/usr/bin/env python3
"""Quickstart: automatic data layout for a small Fortran kernel.

Runs the paper's four framework steps on a five-point-stencil + sweep
kernel and prints the candidate search spaces, the selected layout, and a
simulated execution of the choice.

    python examples/quickstart.py
"""

from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts
from repro.tool.report import format_search_spaces, format_selection

SOURCE = """
program demo
      implicit none
      integer n, steps
      parameter (n = 128, steps = 10)
      double precision u(n, n), f(n, n)
      integer i, j, t

c initialize the field and the right-hand side
      do j = 1, n
        do i = 1, n
          u(i, j) = 0.0
          f(i, j) = 1.0 / (i + j)
        enddo
      enddo

      do t = 1, steps
c five-point stencil relaxation (parallel in both dimensions)
        do j = 2, n - 1
          do i = 2, n - 1
            u(i, j) = 0.25 * (f(i + 1, j) + f(i - 1, j) +&
                              f(i, j + 1) + f(i, j - 1))
          enddo
        enddo
c line sweep along the first dimension (flow dependence on i)
        do j = 1, n
          do i = 2, n
            u(i, j) = u(i, j) - 0.5 * u(i - 1, j)
          enddo
        enddo
c copy back
        do j = 1, n
          do i = 1, n
            f(i, j) = u(i, j)
          enddo
        enddo
      enddo
      end
"""


def main() -> None:
    # Step 0: pick the target — machine, processors, compiler model.
    config = AssistantConfig(nprocs=16)

    # Steps 1-4: partition into phases, build search spaces, estimate,
    # select optimally with 0-1 integer programming.
    result = run_assistant(SOURCE, config)

    print("=== candidate search spaces (browsable) ===")
    print(format_search_spaces(result))
    print()
    print("=== selected layout ===")
    print(format_selection(result))

    # Validate the choice on the simulated iPSC/860.
    measurement = measure_layouts(
        SOURCE, result.selected_layouts, nprocs=config.nprocs
    )
    print()
    print(f"simulated execution: {measurement.seconds:.4f} s "
          f"({measurement.messages} messages, "
          f"{measurement.remap_count} remaps)")
    print(f"assistant predicted: {result.predicted_total_us / 1e6:.4f} s")


if __name__ == "__main__":
    main()
