"""Reference answers and answer verification.

``expected.json`` pins, per distinct input, the objective
(``predicted_total_us``) and a digest of the selected layouts (the HPF
rendering of every phase, in phase order).  Runs never write it; they
compare every op's answer against it after the timed section.

``regenerate`` writes it, and only when checks that do not share the
path under test agree with that path:

- ``graph.evaluate(selection)`` equals the claimed objective, on every
  input;
- the pure-Python ``branch-bound`` ILP backend reproduces the objective
  of every paper-program input it finishes within ``BRANCH_BOUND_CAP_S``
  (the benchmark runs the ``scipy`` backend);
- the brute-force oracles ``qa.oracles.check_alignment`` and
  ``check_selection`` pass on every generated input inside their
  enumeration limits.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")

#: objectives are floats summed in an order a later change may alter;
#: layouts are discrete and must match exactly
OBJECTIVE_REL_TOL = 1e-6

BRANCH_BOUND_CAP_S = 20.0

Answer = Tuple[float, str]


def layouts_digest(hpf_by_phase: Iterable[str]) -> str:
    h = hashlib.sha256()
    for text in hpf_by_phase:
        h.update(text.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:32]


def answer_of_result(result: Any) -> Answer:
    """What a caller of the library reads off an ``AssistantResult``."""
    layouts = result.selected_layouts
    return (
        result.predicted_total_us,
        layouts_digest(layouts[i].describe() for i in sorted(layouts)),
    )


def answer_of_reply(reply: Mapping[str, Any]) -> Optional[Answer]:
    """The same answer read off a service reply; ``None`` if the reply
    is an error or labeled degraded."""
    if not reply.get("ok") or reply.get("degraded"):
        return None
    layouts = reply["layouts"]
    return (
        reply["predicted_total_us"],
        layouts_digest(
            layouts[i]["hpf"] for i in sorted(layouts, key=int)
        ),
    )


def load() -> Dict[str, List[Any]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def matches(expected: Mapping[str, List[Any]], key: str,
            answer: Optional[Answer]) -> bool:
    if answer is None or key not in expected:
        return False
    objective, digest = expected[key]
    close = abs(answer[0] - objective) <= OBJECTIVE_REL_TOL * abs(objective)
    return close and answer[1] == digest


def verify(samples: Iterable[Any], limit_s: Optional[float] = None
           ) -> Tuple[int, int, List[str]]:
    """Judge a run's ops (each with ``op.key``, ``answer``, ``error``
    and ``seconds``) against the references: (failed ops, of which
    wrong answers, the first few reasons).  ``limit_s`` also fails ops
    that took longer without having been stopped."""
    answers = load()
    failed = wrong = 0
    reasons: List[str] = []
    for sample in samples:
        reason = sample.error
        if reason is None and limit_s is not None \
                and sample.seconds > limit_s:
            reason = f"over the op limit: {sample.seconds:.3f} s"
        if reason is None and not matches(answers, sample.op.key,
                                          sample.answer):
            reason = f"wrong answer {sample.answer}"
            wrong += 1
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{sample.op.key}: {reason}")
    return failed, wrong, reasons


# -- regeneration ----------------------------------------------------------


class _Cap(Exception):
    pass


def _raise_cap(signum, frame):
    raise _Cap()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)


def regenerate() -> int:
    """Recompute every reference; write the file only if every
    independent check agrees.  Returns a process exit code."""
    from repro.alignment.weights import build_phase_cag
    from repro.qa import oracles
    from repro.service.protocol import LayoutRequest
    from repro.tool.assistant import run_assistant

    import inputs

    lib_ops: Dict[str, inputs.LibOp] = {}
    for ops in inputs.paper_grid().values():
        lib_ops.update((op.key, op) for op in ops)
    for op in inputs.extended_inputs() + inputs.generated_inputs():
        lib_ops[op.key] = op
    for sop in inputs.service_universe():
        if sop.key not in lib_ops:
            request = LayoutRequest.from_dict(sop.payload)
            lib_ops[sop.key] = inputs.LibOp(
                key=sop.key, program=sop.payload["program"],
                source=request.resolve_source(),
                config=request.resolve_config(),
            )

    answers: Dict[str, List[Any]] = {}
    problems: List[str] = []
    uncapped: List[str] = []
    oracle_checked = 0
    signal.signal(signal.SIGALRM, _raise_cap)
    for n, (key, op) in enumerate(sorted(lib_ops.items())):
        result = run_assistant(op.source, op.config)
        objective, digest = answer_of_result(result)
        answers[key] = [objective, digest]
        evaluated = result.graph.evaluate(result.selection.selection)
        if not _close(evaluated, objective):
            problems.append(
                f"{key}: graph.evaluate {evaluated!r} != {objective!r}"
            )
        if key.startswith("gen/"):
            d = result.template.rank
            for phase in result.partition.phases:
                cag = build_phase_cag(phase, result.symbols)
                divergence = oracles.check_alignment(cag, d)
                if divergence is not None:
                    problems.append(f"{key}: {divergence}")
                oracle_checked += (
                    oracles.alignment_assignment_count(cag, d)
                    <= oracles.MAX_ALIGNMENT_ASSIGNMENTS
                )
            divergence = oracles.check_selection(result.graph)
            if divergence is not None:
                problems.append(f"{key}: {divergence}")
        else:
            signal.setitimer(signal.ITIMER_REAL, BRANCH_BOUND_CAP_S)
            try:
                other = run_assistant(
                    op.source,
                    replace(op.config, ilp_backend="branch-bound"),
                )
                if not _close(other.predicted_total_us, objective):
                    problems.append(
                        f"{key}: branch-bound "
                        f"{other.predicted_total_us!r} != {objective!r}"
                    )
            except _Cap:
                uncapped.append(key)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        if n % 100 == 0:
            print(f"  {n}/{len(lib_ops)} inputs", flush=True)
    print(f"inputs: {len(answers)}; generated phases inside the "
          f"alignment oracle's limit: {oracle_checked}; not cross-checked by "
          f"branch-bound within {BRANCH_BOUND_CAP_S:.0f} s: "
          f"{len(uncapped)} {uncapped}")
    if problems:
        print("NOT writing expected.json:")
        for line in problems:
            print("  " + line)
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": "bench/expected/v1",
            "objective_rel_tol": OBJECTIVE_REL_TOL,
            "not_cross_checked": uncapped,
            "answers": answers,
        }, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0
