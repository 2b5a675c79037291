"""What a workload hands back to ``run.py``, and the report lines every
run prints before its result."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class Outcome:
    attempted: int
    failed: int
    correct: bool
    #: Metric name -> value; units come from BENCHMARK.json.
    metrics: Dict[str, float] = field(default_factory=dict)


def report(**fields: Any) -> None:
    """One ``perfbench: key=value ...`` line of the run's report."""
    parts = [
        f"{key}={json.dumps(value) if not isinstance(value, str) else value}"
        for key, value in fields.items()
    ]
    print("perfbench: " + " ".join(parts), flush=True)
