"""The widest selection inputs, held to the bit.

Over ``DistributionOptions.extended()`` at the paper programs' default
sizes, five inputs have a residual component that no elimination order
keeps under ``TABLE_CAP``: Tomcatv at 8 and 16 processors and Shallow at
4, 8 and 16.  They are answered by conditioning on a cutset of phases,
with no solver.  The objectives (as ``float.hex``) and the selections
(one digit per phase, in phase order) were taken when these inputs were
still solved by HiGHS on the reduced component model.
"""

from __future__ import annotations

import pytest

from repro.distribution.search_space import DistributionOptions
from repro.obs import tracing
from repro.obs.events import spans_by_name
from repro.programs import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant

#: (program, procs) -> (objective as ``float.hex``, selection digits)
WIDE = {
    ("tomcatv", 8): ("0x1.6239c0af1c04ap+18", "11111110000111111"),
    ("tomcatv", 16): ("0x1.e363810d57ce0p+17", "11111110000111111"),
    ("shallow", 4): ("0x1.c61b5db9ec330p+21", "1" * 28),
    ("shallow", 8): ("0x1.d7dabb2adc439p+20", "1" * 28),
    ("shallow", 16): ("0x1.00f447d339150p+20", "1" * 28),
}


@pytest.mark.parametrize(
    "program,procs", list(WIDE), ids=[f"{p}@{n}" for p, n in WIDE]
)
def test_wide_input_is_conditioned_to_the_pinned_answer(program, procs):
    config = AssistantConfig(
        nprocs=procs, distributions=DistributionOptions.extended()
    )
    with tracing.activate(tracing.Tracer(detail=False)) as tracer:
        result = run_assistant(PROGRAMS[program].source(), config)
    selected = result.selection
    objective, digits = WIDE[program, procs]
    assert float(selected.objective).hex() == objective
    assert "".join(
        str(c) for _p, c in sorted(selected.selection.items())
    ) == digits
    assert selected.optimal
    assert selected.solution.stats.backend == "elimination"
    (span,) = [
        span for span in spans_by_name(tracer.to_dict(), "ilp.presolve")
        if span["attrs"]["name"] == "layout-selection"
    ]
    assert span["attrs"]["cutset"] > 0
    assert span["attrs"]["conditioned"] > 0
