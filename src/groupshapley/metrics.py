"""Convergence and share metrics: area under the convergence curve and
royalty shares."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ConvergenceCurve:
    """Ordered (evaluations, estimate, wall_time_ns) checkpoints."""

    checkpoints: list[tuple[int, float, int]] = field(default_factory=list)

    def append(self, evaluations: int, estimate: float, wall_time_ns: int | None = None):
        if self.checkpoints and evaluations <= self.checkpoints[-1][0]:
            raise ValueError("checkpoint evaluations must strictly increase")
        if wall_time_ns is None:
            wall_time_ns = time.perf_counter_ns()
        self.checkpoints.append((int(evaluations), float(estimate), int(wall_time_ns)))

    def __len__(self) -> int:
        return len(self.checkpoints)

    def evaluations(self) -> np.ndarray:
        return np.array([c[0] for c in self.checkpoints], dtype=int)

    def estimates(self) -> np.ndarray:
        return np.array([c[1] for c in self.checkpoints], dtype=float)

    def final_estimate(self) -> float:
        return self.checkpoints[-1][1]

    def to_jsonable(self) -> list[list]:
        return [list(c) for c in self.checkpoints]


class Recorder:
    """Appends a checkpoint to a curve every ``interval`` evaluations.

    ``update(evals, estimate)`` emits one checkpoint per interval multiple
    crossed since the last call, all carrying the current estimate.
    """

    def __init__(self, interval: int | None):
        self.interval = interval
        self.curve = ConvergenceCurve()
        self._next = interval

    def update(self, evals: int, estimate: float) -> None:
        if self.interval is None:
            return
        while self._next <= evals:
            self.curve.append(self._next, estimate)
            self._next += self.interval


def aucc(curve: ConvergenceCurve, truth: float, num_checkpoints: int = 100) -> float:
    """Mean absolute relative error over the first ``num_checkpoints``
    checkpoints of the curve."""
    if truth == 0:
        raise ZeroDivisionError("area under the convergence curve undefined for zero truth")
    if len(curve) < num_checkpoints:
        raise ValueError(
            f"curve has {len(curve)} checkpoints, need {num_checkpoints}"
        )
    est = curve.estimates()[:num_checkpoints]
    return float(np.mean(np.abs((truth - est) / truth)))


def royalty_shares(group_values) -> np.ndarray:
    """Each group's value divided by the total across groups. Negative inputs
    are normalized as-is, so shares may fall outside [0, 1]."""
    values = np.asarray(group_values, dtype=float)
    total = values.sum()
    if total == 0:
        raise ZeroDivisionError("royalty shares undefined: group values sum to zero")
    return values / total
