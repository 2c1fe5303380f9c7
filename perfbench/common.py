"""Shared pieces of the benchmark: the result, the gate, the scratch directory."""

from __future__ import annotations

import os
import resource
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: How many times a run sets its workload up; ``setup_s`` is the median.
SETUP_REPEATS = 7


class GateFailure(Exception):
    """A correctness check failed: the run reports no metrics."""


def gate(condition: bool, message: str) -> None:
    """Fail the run's correctness gate unless ``condition`` holds."""
    if not condition:
        raise GateFailure(message)


@dataclass
class RunResult:
    """What one run of one workload measured.

    ``metrics`` maps a metric name to ``(value, unit)``; ``notes`` are
    human-readable lines printed before the JSON result line.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: The traced run's span store, dumped when the run ends.
    tracer: Any = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkDir:
    """A per-run scratch directory inside the checkout.

    Paths are kept *relative* to the working directory (the checkout
    root), so Unix socket paths stay far below the 107-byte limit
    wherever the checkout lives.  Everything except the span dumps is
    removed when the run ends.
    """

    def __init__(self, base: str) -> None:
        self.base = base
        self.path = os.path.join(base, f"run-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._made = 0

    def fresh(self, prefix: str) -> str:
        self._made += 1
        path = os.path.join(self.path, f"{prefix}-{self._made}")
        os.makedirs(path)
        return path

    def traces(self) -> str:
        path = os.path.join(self.base, "traces")
        os.makedirs(path, exist_ok=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
