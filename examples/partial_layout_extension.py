#!/usr/bin/env python3
"""Extending a partially specified layout — the paper's second use case.

"Once the user has chosen data layouts for program parts crucial for the
overall performance, the layout assistant tool can be used to extend
these data layouts to a data layout for the entire program."

Here the user pins the Erlebacher z computation to a dim-3 distribution
(say, to match a neighbouring code's interface, even though it
sequentializes the z sweeps); the assistant extends that partial
specification optimally over the remaining 27 phases by re-running the
selection step with the pinned phases restricted.

    python examples/partial_layout_extension.py
"""

from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts


def main() -> None:
    source = PROGRAMS["erlebacher"].source(n=48)
    result = run_assistant(source, AssistantConfig(nprocs=16))

    # The z computation is phases 27..39 (the last symmetric third).
    pinned_phases = [p.index for p in result.partition.phases[27:]]

    # Pin those phases to their dim-3 (template dimension 2) candidates.
    allowed = {}
    for idx in pinned_phases:
        cands = result.layout_spaces.per_phase[idx]
        positions = {
            pos for pos, cand in enumerate(cands)
            if cand.layout.distribution.distributed_dims() == (2,)
        }
        if positions:
            allowed[idx] = positions

    free = result.selection
    extended = result.reselect(allowed=allowed)

    print("unconstrained optimum:   "
          f"{free.objective / 1e6:.4f} s predicted")
    print("user-pinned z sweep:     "
          f"{extended.objective / 1e6:.4f} s predicted "
          f"(pinned {len(allowed)} phases to dim-3)")

    # How the assistant filled in the rest:
    changed = [
        idx for idx in sorted(free.selection)
        if free.selection[idx] != extended.selection[idx]
        and idx not in allowed
    ]
    print(f"free phases the extension re-decided: {changed or 'none'}")

    # And what both cost on the simulated machine:
    for label, selection in (("unconstrained", free.selection),
                             ("extended", extended.selection)):
        layouts = {
            idx: result.layout_spaces.per_phase[idx][pos].layout
            for idx, pos in selection.items()
        }
        m = measure_layouts(source, layouts, nprocs=16)
        print(f"{label:>14}: measured {m.seconds:.4f} s "
              f"({m.remap_count} remaps)")


if __name__ == "__main__":
    main()
