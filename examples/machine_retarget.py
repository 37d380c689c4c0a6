#!/usr/bin/env python3
"""Retargeting: the same program, two machines, different best layouts.

The framework is parameterized by the machine model (training sets are
regenerated per machine).  On the iPSC/860, whose messages are expensive,
Adi's fine-grain pipelines hurt and remapping can win; on a
Paragon-flavoured machine with ~30x the bandwidth, the trade-offs shift.
The assistant re-decides per machine — no code changes.

    python examples/machine_retarget.py
"""

from repro.machine.params import IPSC860, PARAGON
from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts
from repro.tool.schemes import enumerate_schemes


def main() -> None:
    source = PROGRAMS["adi"].source(n=256, dtype="double", maxiter=3)
    for machine in (IPSC860, PARAGON):
        result = run_assistant(
            source, AssistantConfig(nprocs=16, machine=machine)
        )
        schemes = enumerate_schemes(result)
        dynamic = "dynamic" if result.is_dynamic else "static"
        print(f"--- {machine.name} ---")
        print(f"selected: {dynamic} layout, predicted "
              f"{result.predicted_total_us / 1e6:.4f} s")
        for scheme in schemes:
            print(f"   {scheme.name:<10} estimated "
                  f"{scheme.estimated_us / 1e6:.4f} s")
        m = measure_layouts(
            source, result.selected_layouts, nprocs=16, machine=machine
        )
        print(f"simulated execution of the choice: {m.seconds:.4f} s\n")


if __name__ == "__main__":
    main()
