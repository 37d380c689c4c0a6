"""A strict reference parser of the Prometheus text exposition, which
the tests read ``repro.obs.prometheus.render_prometheus`` output back
with to prove it stays parseable."""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    A deliberately strict reference parser: any non-comment, non-blank
    line that does not match the exposition grammar raises
    ``ValueError``.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _METRIC_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            labels = [(k, v) for k, v in _LABEL_RE.findall(raw)]
        value_txt = match.group("value")
        if value_txt == "NaN":
            value = float("nan")
        elif value_txt in ("+Inf", "-Inf"):
            value = float(value_txt.replace("Inf", "inf"))
        else:
            value = float(value_txt)
        out[(match.group("name"), tuple(labels))] = value
    return out
