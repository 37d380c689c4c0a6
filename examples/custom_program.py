#!/usr/bin/env python3
"""Laying out a user-written program with an alignment conflict.

This example writes a small mesh-relaxation code in which a workspace
array is accessed *transposed* in one phase — an inter-dimensional
alignment conflict that no single alignment can satisfy.  The assistant

1. detects the conflict (a path between two dimensions of ``w`` in the
   merged component affinity graph),
2. partitions the phases into two conflict-free classes,
3. exchanges alignment information between the classes via weighted
   imports (each resolved optimally by the 0-1 formulation), and
4. weighs transposed-workspace candidates against remapping and
   communication costs in the final selection.

    python examples/custom_program.py
"""

from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts
from repro.tool.report import format_search_spaces, format_selection

SOURCE = """
program relax
      implicit none
      integer n, steps
      parameter (n = 96, steps = 8)
      double precision grid(n, n), w(n, n)
      integer i, j, t

      do j = 1, n
        do i = 1, n
          grid(i, j) = 0.01 * i + 0.02 * j
          w(i, j) = 0.0
        enddo
      enddo

      do t = 1, steps
c workspace written canonically alongside the grid
        do j = 2, n - 1
          do i = 2, n - 1
            w(i, j) = grid(i + 1, j) - 2.0 * grid(i, j) + grid(i - 1, j)
          enddo
        enddo
c ...but consumed TRANSPOSED: the alignment conflict
        do j = 2, n - 1
          do i = 2, n - 1
            grid(i, j) = grid(i, j) + 0.2 * w(j, i)
          enddo
        enddo
      enddo
      end
"""


def main() -> None:
    result = run_assistant(SOURCE, AssistantConfig(nprocs=8))

    spaces = result.alignment_spaces
    print(f"alignment classes: {len(spaces.classes)}")
    print(f"conflicts resolved by 0-1 programming: "
          f"{len(spaces.resolutions)}")
    for res in spaces.resolutions:
        print(f"  model: {res.num_variables} variables, "
              f"{res.num_constraints} constraints, "
              f"cut weight {res.cut_weight:g} "
              f"({res.solution.stats.wall_time * 1000:.0f} ms)")
    print()
    print(format_search_spaces(result))
    print()
    print(format_selection(result))

    measurement = measure_layouts(
        SOURCE, result.selected_layouts, nprocs=8
    )
    print()
    print(f"simulated execution of the choice: "
          f"{measurement.seconds:.4f} s "
          f"({measurement.remap_count} remaps)")


if __name__ == "__main__":
    main()
