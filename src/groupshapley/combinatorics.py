"""Hypergeometric probabilities and uniform samplers over constrained subset families.

All probabilities are computed in log-space so that population sizes in the
thousands do not overflow; exponentiation happens only at the very end.
Samplers take a caller-supplied ``numpy.random.Generator`` and keep no state,
so one generator per worker is the whole concurrency story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def log_binom(n: int, k: int) -> float:
    """Natural log of C(n, k) via log-gamma. Raises for k outside [0, n]."""
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class HypergeomParams:
    """Population of ``n`` items, ``s0`` marked, ``s`` drawn without replacement."""

    n: int
    s0: int
    s: int

    def __post_init__(self):
        if not (0 <= self.s0 <= self.n):
            raise ValueError(f"s0={self.s0} out of range for n={self.n}")
        if not (0 <= self.s <= self.n):
            raise ValueError(f"s={self.s} out of range for n={self.n}")

    def support(self) -> tuple[int, int]:
        """Inclusive range of achievable overlap counts."""
        return max(0, self.s + self.s0 - self.n), min(self.s, self.s0)

    def pmf(self, s1: int) -> float:
        """P(overlap = s1); zero off-support, never raises."""
        lo, hi = self.support()
        if s1 < lo or s1 > hi:
            return 0.0
        log_p = (
            log_binom(self.s0, s1)
            + log_binom(self.n - self.s0, self.s - s1)
            - log_binom(self.n, self.s)
        )
        return math.exp(log_p)

    def pmf_vector(self) -> tuple[int, np.ndarray]:
        """Returns (lo, probs) with probs[j] = pmf(lo + j) over the support."""
        lo, hi = self.support()
        probs = np.array([self.pmf(s1) for s1 in range(lo, hi + 1)])
        return lo, probs


def log_family_size(n: int, s0: int, s: int, s1: int) -> float:
    """Log count of subsets S with |S| = s and |S ∩ S0| = s1."""
    return log_binom(s0, s1) + log_binom(n - s0, s - s1)


def _check_feasible(n: int, s0: int, s: int, s1: int) -> None:
    lo, hi = HypergeomParams(n, s0, s).support()
    if s1 < lo or s1 > hi:
        raise ValueError(
            f"overlap s1={s1} infeasible for n={n}, s0={s0}, s={s} "
            f"(support [{lo}, {hi}])"
        )


def _split_indices(members: np.ndarray, n: int) -> np.ndarray:
    comp = np.ones(n, dtype=bool)
    comp[members] = False
    return np.flatnonzero(comp)


def sample_subsets_with_intersection(
    rng: np.random.Generator,
    n: int,
    members: np.ndarray,
    s: int,
    s1: int,
    count: int,
) -> np.ndarray:
    """Boolean masks (count, n) of subsets uniform over {S : |S|=s, |S∩members|=s1}.

    Each draw takes s1 indices from ``members`` and s-s1 from the complement,
    both uniformly without replacement, via rank selection on random keys.
    """
    members = np.asarray(members, dtype=np.intp)
    _check_feasible(n, len(members), s, s1)
    comp = _split_indices(members, n)
    masks = np.zeros((count, n), dtype=bool)
    rows = np.arange(count)[:, None]
    if s1 > 0:
        keys = rng.random((count, len(members)))
        chosen = np.argpartition(keys, s1 - 1, axis=1)[:, :s1] if s1 < len(members) \
            else np.tile(np.arange(len(members)), (count, 1))
        masks[rows, members[chosen]] = True
    s2 = s - s1
    if s2 > 0:
        keys = rng.random((count, len(comp)))
        chosen = np.argpartition(keys, s2 - 1, axis=1)[:, :s2] if s2 < len(comp) \
            else np.tile(np.arange(len(comp)), (count, 1))
        masks[rows, comp[chosen]] = True
    return masks


def sample_paired_tuples(
    rng: np.random.Generator,
    n: int,
    members: np.ndarray,
    s: int,
    s1: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws (S, z1, z2) tuples: S as in :func:`sample_subsets_with_intersection`,
    z1 uniform over members∖S and z2 uniform over the complement of members, minus S.

    Returns (masks, z1s, z2s). Requires both residual pools to be non-empty.
    """
    members = np.asarray(members, dtype=np.intp)
    s0 = len(members)
    _check_feasible(n, s0, s, s1)
    if s0 - s1 < 1:
        raise ValueError(
            f"no member left outside S: |members|={s0}, overlap s1={s1}"
        )
    if (n - s0) - (s - s1) < 1:
        raise ValueError(
            f"no non-member left outside S: n-|members|={n - s0}, s-s1={s - s1}"
        )
    comp = _split_indices(members, n)
    masks = np.zeros((count, n), dtype=bool)
    rows = np.arange(count)[:, None]

    # Rank selection: the s1 smallest keys form S's member part and the
    # (s1+1)-th smallest is a uniform draw from the remainder.
    keys = rng.random((count, s0))
    order = np.argpartition(keys, s1, axis=1)
    if s1 > 0:
        masks[rows, members[order[:, :s1]]] = True
    z1 = members[order[:, s1]]

    s2 = s - s1
    keys = rng.random((count, len(comp)))
    order = np.argpartition(keys, s2, axis=1)
    if s2 > 0:
        masks[rows, comp[order[:, :s2]]] = True
    z2 = comp[order[:, s2]]
    return masks, z1, z2


def sample_uniform_subsets(
    rng: np.random.Generator, n: int, s: int, count: int
) -> np.ndarray:
    """Boolean masks (count, n) of uniform size-s subsets of {0..n-1}."""
    masks = np.zeros((count, n), dtype=bool)
    if s == 0:
        return masks
    if s == n:
        masks[:] = True
        return masks
    keys = rng.random((count, n))
    chosen = np.argpartition(keys, s - 1, axis=1)[:, :s]
    masks[np.arange(count)[:, None], chosen] = True
    return masks
