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


class Recorder:
    """Appends a checkpoint to a curve every ``interval`` evaluations.

    ``update(evals, estimate)`` emits one checkpoint per interval multiple
    crossed since the last call, all carrying the current estimate. With
    ``groups``, the recorder keeps one curve per group in ``curves`` instead
    of ``curve``: ``estimate`` is then a callable returning the value vector,
    called only when a checkpoint is due, and each group's curve records the
    sum of its members' values. An interval of None records nothing.
    """

    def __init__(self, interval: int | None, groups=None):
        if interval is not None and interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {interval}")
        self.interval = interval
        self.curve = ConvergenceCurve()
        self.groups = None if groups is None else \
            [np.asarray(list(g), dtype=np.intp) for g in groups]
        self.curves = None if self.groups is None or interval is None else \
            {gid: ConvergenceCurve() for gid in range(len(self.groups))}
        self._next = interval

    def update(self, evals: int, estimate) -> None:
        if self.interval is None or evals < self._next:
            return
        if self.curves is None:
            points = [(self.curve, estimate)]
        else:
            values = estimate()
            points = [(self.curves[gid], float(values[g].sum()))
                      for gid, g in enumerate(self.groups)]
        while self._next <= evals:
            for curve, value in points:
                curve.append(self._next, value)
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
