#!/usr/bin/env python3
"""Case study: reproducing the paper's Adi experiment (Figure 3/4).

Sweeps the Adi kernel across processor counts, measuring every promising
global layout scheme on the simulated iPSC/860 and comparing against the
assistant's estimates — the static-vs-dynamic trade-off that motivates
the whole framework:

* a static **row** layout fine-grain-pipelines the two i-direction
  sweeps;
* a static **column** layout *sequentializes* the two j-direction sweeps
  (always the worst choice);
* the **remapped** layout transposes the data between the sweep halves so
  every phase is dependence-local, at the price of four redistributions
  per time step.

Where the crossover falls depends on problem size and machine size —
exactly what the assistant decides per configuration.

    python examples/adi_case_study.py [n]
"""

import sys

from repro.tool.report import format_test_case
from repro.tool.schemes import matching_scheme
from repro.tool.testcases import TestCase, run_test_case


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    print(f"Adi {n}x{n}, double precision, 3 time steps\n")
    print(f"{'procs':>5} {'row':>10} {'column':>10} {'remapped':>10} "
          f"{'tool pick':>12} {'verdict':>10}")
    for procs in (2, 4, 8, 16, 32):
        result = run_test_case(
            TestCase("adi", n=n, dtype="double", nprocs=procs, maxiter=3)
        )
        by = {s.name: s for s in result.schemes}
        picked = matching_scheme(result.schemes,
                                 result.tool_scheme.selection)
        picked_name = picked.name if picked else "dynamic"
        verdict = "optimal" if result.tool_optimal else (
            f"+{result.loss_percent:.1f}%"
        )
        print(f"{procs:>5} "
              f"{by['row'].measured_us/1e6:>9.3f}s "
              f"{by['column'].measured_us/1e6:>9.3f}s "
              f"{by['remapped'].measured_us/1e6:>9.3f}s "
              f"{picked_name:>12} {verdict:>10}")

    print("\nFull table for the Figure 3 configuration "
          f"({n}x{n}, 16 processors):")
    result = run_test_case(
        TestCase("adi", n=n, dtype="double", nprocs=16, maxiter=3)
    )
    print(format_test_case(result))


if __name__ == "__main__":
    main()
