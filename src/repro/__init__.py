"""repro — reproduction of Kennedy & Kremer, "Automatic Data Layout for
High Performance Fortran" (SC 1995).

Public API quick reference::

    from repro import AssistantConfig, run_assistant
    result = run_assistant(source_text, AssistantConfig(nprocs=16))
    print(result.selected_layouts)

Subpackages: ``frontend`` (Fortran subset), ``analysis`` (phases/PCFG/
dependences), ``alignment`` (CAG + 0-1 resolution), ``distribution``
(layout types + search spaces), ``perf`` (training sets + estimator),
``machine`` (simulated iPSC/860), ``codegen`` (SPMD lowering),
``selection`` (0-1 layout selection), ``tool`` (assistant + CLI),
``programs`` (Adi, Erlebacher, Tomcatv, Shallow).
"""

# the README quick-start names, kept for users; nothing else is re-exported
from .tool.assistant import AssistantConfig, run_assistant
from .tool.measurement import measure_layouts

__version__ = "1.0.0"
