"""Bench-history store: one JSONL line per perf run, with git SHA.

``benchmarks/history/<profile>.jsonl`` accumulates every
``make bench-perf`` run (appended by ``bench_perf_regression.py``), so
performance over time is queryable instead of being a single committed
snapshot.  Each record carries the commit SHA, the machine calibration
time and the calibration-normalized ratio per ``instance/solver`` key —
the portable quantity the regression check compares.

Writes are atomic: the new content lands in ``<file>.tmp`` first and is
moved into place with :func:`os.replace`, so a crashed run never leaves
a half-written history line behind.

The statistical check flags a key when, against at least
``min_samples`` prior runs, the current normalized ratio exceeds both
``mean + sigma * stdev`` and ``ratio_threshold * mean`` — the two-sided
guard keeps noisy-but-tiny samples from tripping it.  Keys with fewer
prior runs are not gated at all; :func:`ungated_keys` names them so an
inert gate is visible.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HISTORY_SCHEMA = "bench-history/v1"

#: Default location relative to the repository root.
DEFAULT_HISTORY_DIR = "benchmarks/history"


def git_revision(repo_root: Optional[Path] = None) -> str:
    """Current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def make_record(
    profile: str,
    calibration_ms: float,
    results: Dict[str, Dict[str, Any]],
    repo_root: Optional[Path] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """One history record for a finished perf run.

    ``results`` maps ``instance/solver`` keys to the measured numbers
    (``wall_ms`` at minimum); the calibration-normalized ratio is
    derived here so every record stores it consistently.  ``cpu_count``
    records the machine the numbers came from.
    """
    normalized = {}
    for key, measured in results.items():
        entry = dict(measured)
        if calibration_ms > 0 and "wall_ms" in entry:
            entry["normalized"] = entry["wall_ms"] / calibration_ms
        normalized[key] = entry
    return {
        "schema": HISTORY_SCHEMA,
        "timestamp": (
            float(timestamp) if timestamp is not None else time.time()
        ),
        "git_sha": git_revision(repo_root),
        "profile": profile,
        "calibration_ms": calibration_ms,
        "cpu_count": os.cpu_count(),
        "results": normalized,
    }


def history_file(history_dir: Path, profile: str) -> Path:
    return Path(history_dir) / f"{profile}.jsonl"


def load_history(history_dir: Path, profile: str) -> List[Dict[str, Any]]:
    """All committed records for ``profile`` (oldest first).

    Unparseable lines are skipped — a corrupted history must not brick
    the perf gate.
    """
    path = history_file(history_dir, profile)
    if not path.exists():
        return []
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(record, dict)
                and record.get("schema") == HISTORY_SCHEMA
            ):
                records.append(record)
    return records


def append_run(
    history_dir: Path, profile: str, record: Dict[str, Any]
) -> Path:
    """Append ``record`` to the profile's history file, atomically."""
    path = history_file(history_dir, profile)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = path.read_text(encoding="utf-8") if path.exists() else ""
    if existing and not existing.endswith("\n"):
        existing += "\n"
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(
        existing + json.dumps(record, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def _samples(history: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Normalized ratios per key across ``history``."""
    samples: Dict[str, List[float]] = {}
    for record in history:
        for key, entry in (record.get("results") or {}).items():
            value = entry.get("normalized")
            if isinstance(value, (int, float)):
                samples.setdefault(key, []).append(float(value))
    return samples


def ungated_keys(
    history: List[Dict[str, Any]],
    current: Dict[str, Any],
    min_samples: int = 3,
) -> Dict[str, int]:
    """Keys of ``current`` the gate skips: key -> prior samples (< min)."""
    samples = _samples(history)
    return {
        key: len(samples.get(key, []))
        for key in sorted(current.get("results") or {})
        if len(samples.get(key, [])) < min_samples
    }


def regression_messages(
    history: List[Dict[str, Any]],
    current: Dict[str, Any],
    min_samples: int = 3,
    sigma: float = 3.0,
    ratio_threshold: float = 1.2,
) -> List[str]:
    """Keys whose normalized time significantly regressed vs history.

    Returns one human-readable message per regressed key; an empty list
    means the run is statistically in line with its history.
    """
    samples = _samples(history)
    messages: List[str] = []
    for key, entry in sorted((current.get("results") or {}).items()):
        value = entry.get("normalized")
        past = samples.get(key, [])
        if not isinstance(value, (int, float)) or len(past) < min_samples:
            continue
        mean = statistics.fmean(past)
        spread = statistics.stdev(past) if len(past) > 1 else 0.0
        if value > mean + sigma * spread and value > ratio_threshold * mean:
            messages.append(
                f"{key}: normalized {value:.3f} vs history mean "
                f"{mean:.3f} (n={len(past)}, stdev {spread:.3f}) — "
                f"exceeds mean + {sigma:g}*stdev and "
                f"{ratio_threshold:g}x mean"
            )
    return messages
