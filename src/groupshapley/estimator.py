"""Two-regime Monte Carlo estimator for the faithful group Shapley value.

Small coalition sizes get the full hypergeometric grid of conditional mean
utilities; large sizes collapse to a single paired difference at the expected
overlap, which is where almost all of the budget savings come from.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    HypergeomParams,
    _check_feasible,
    _member_indices,
    log_family_size,
    sample_paired_tuples,
    sample_subsets_with_intersection,
)
from .exact import _family_masks
from .games import Game, augment_with_null
from .metrics import ConvergenceCurve, Recorder

log = logging.getLogger(__name__)


@dataclass
class EstimatorConfig:
    """Knobs for the two-regime estimator.

    size_threshold: coalition sizes below this use the full overlap grid.
    grid_samples: Monte Carlo draws per grid point (small-size regime).
    pair_samples: paired draws per size (large-size regime).
    exhaustive_small_sizes: enumerate a grid family outright when it has no
        more than grid_samples subsets, giving the exact conditional mean.
    checkpoint_interval: evaluations between convergence-curve checkpoints
        (None disables the curve).
    """

    size_threshold: int
    grid_samples: int
    pair_samples: int
    seed: int | None = None
    exhaustive_small_sizes: bool = False
    checkpoint_interval: int | None = None

    def validate(self, n: int) -> None:
        if not (1 <= self.size_threshold <= n):
            raise ValueError(f"size_threshold must be in 1..{n}")
        if self.grid_samples < 1 or self.pair_samples < 1:
            raise ValueError("sample counts must be >= 1")


@dataclass
class GroupValueEstimate:
    """Result of one estimator run."""

    value: float
    per_size_terms: np.ndarray  # entry s-1 is the size-s contribution
    evaluations_used: int
    curve: ConvergenceCurve
    std_error: float = 0.0


def _size_plan(n: int, s0: int, size_threshold: int):
    """The coalition sizes one estimator run evaluates, in order.

    Yields ``(s, s1, probs)``. For a grid size below the threshold, ``s1``
    is the lowest feasible overlap and ``probs[j]`` the hypergeometric
    weight of overlap ``s1 + j``. For a paired size, ``s1`` is the expected
    overlap, clamped so that both residual pools stay non-empty, and
    ``probs`` is None. Paired sizes with no such overlap contribute zero and
    are left out.
    """
    alpha0 = s0 / n
    for s in range(1, n):
        if s < size_threshold:
            lo, probs = HypergeomParams(n, s0, s).pmf_vector()
            yield s, lo, probs
            continue
        lo = max(0, s + s0 - n + 1)
        hi = min(s, s0 - 1)
        if lo <= hi:
            yield s, min(max(math.floor(s * alpha0), lo), hi), None


def _mean_utility(
    game: Game, members: np.ndarray, s: int, s1: int, samples: int,
    rng: np.random.Generator, exhaustive: bool,
) -> tuple[float, float, int]:
    """Mean utility over one (size, overlap) family, the variance of that
    mean, which is zero when the family is enumerated, and the number of
    evaluations spent."""
    n, s0 = game.n, len(members)
    _check_feasible(n, s0, s, s1)
    if exhaustive and log_family_size(n, s0, s, s1) <= math.log(samples):
        masks = _family_masks(n, members, s, s1)
        return float(game.evaluate_masks(masks).mean()), 0.0, len(masks)
    masks = sample_subsets_with_intersection(rng, n, members, s, s1, samples)
    utils = game.evaluate_masks(masks)
    var = float(utils.var(ddof=1)) if samples > 1 else 0.0
    return float(utils.mean()), var / samples, samples


def estimate_mean_utility(
    game: Game,
    members,
    s: int,
    s1: int,
    samples: int,
    rng: np.random.Generator,
    exhaustive: bool = False,
) -> float:
    """Monte Carlo mean of the utility over subsets of size s with the given
    overlap; enumerates the whole family instead when ``exhaustive`` is set
    and the family is no larger than ``samples``."""
    members = _member_indices(members, game.n)
    return _mean_utility(game, members, s, s1, samples, rng, exhaustive)[0]


def estimate_mean_utility_gap(
    game: Game,
    members,
    s: int,
    s1: int,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Paired Monte Carlo estimate of the change in conditional mean utility
    when one more member replaces a non-member: averages
    U(S ∪ {member}) - U(S ∪ {non-member}) over shared base subsets S."""
    members = _member_indices(members, game.n)
    return _mean_utility_gap(game, members, s, s1, samples, rng)[0]


def _mean_utility_gap(
    game: Game, members: np.ndarray, s: int, s1: int, samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean and sample variance of the paired differences, for parsed
    members."""
    masks, z1, z2 = sample_paired_tuples(rng, game.n, members, s, s1, samples)
    rows = np.arange(samples)
    with_in = masks.copy()
    with_in[rows, z1] = True
    with_out = masks.copy()
    with_out[rows, z2] = True
    diffs = game.evaluate_masks(with_in) - game.evaluate_masks(with_out)
    var = float(diffs.var(ddof=1)) if samples > 1 else 0.0
    return float(diffs.mean()), var


def predicted_evaluations(n: int, s0: int, config: EstimatorConfig) -> int:
    """Utility-evaluation count of :func:`estimate_group_value` in pure
    sampling mode (no exhaustive enumeration), read off the size plan."""
    if s0 == 0:
        return 0
    if s0 == n:
        return 2
    return 2 + sum(
        config.grid_samples * len(probs) if probs is not None
        else 2 * config.pair_samples
        for _, _, probs in _size_plan(n, s0, config.size_threshold)
    )


def _run_plan(
    game: Game,
    members,
    config: EstimatorConfig,
    rng: np.random.Generator,
    pair_game: Game,
) -> GroupValueEstimate:
    """Runs the size plan: the efficiency endpoints and the grid cells on
    ``game``, the paired differences on ``pair_game``. The run counts the
    rows it sends, so other users of either game do not change its count."""
    n = game.n
    members = _member_indices(members, n)
    s0 = len(members)
    recorder = Recorder(config.checkpoint_interval)

    if s0 == 0:
        return GroupValueEstimate(0.0, np.zeros(max(n - 1, 0)), 0, recorder.curve)

    u_full = game.evaluate(range(n))
    u_empty = game.evaluate([])
    used = 2
    if s0 == n:
        value = u_full - u_empty
        recorder.update(used, value)
        return GroupValueEstimate(value, np.zeros(n - 1), used, recorder.curve)

    config.validate(n)
    alpha0 = s0 / n
    running = alpha0 * (u_full - u_empty)
    recorder.update(used, running)
    per_size = np.zeros(n - 1)
    variance_total = 0.0

    for s, s1, probs in _size_plan(n, s0, config.size_threshold):
        if probs is None:
            gap, var = _mean_utility_gap(
                pair_game, members, s, s1, config.pair_samples, rng
            )
            used += 2 * config.pair_samples
            coef = (n / (n - 1)) * alpha0 * (1 - alpha0)
            term = coef * gap
            variance_total += (coef**2) * var / config.pair_samples
            recorder.update(used, running + term)
        else:
            term = 0.0
            for cell_s1, p in enumerate(probs, start=s1):
                mu, mu_var, spent = _mean_utility(
                    game, members, s, cell_s1, config.grid_samples, rng,
                    config.exhaustive_small_sizes,
                )
                used += spent
                weight = p * (n / (n - s)) * (cell_s1 / s - alpha0)
                term += weight * mu
                variance_total += weight**2 * mu_var
                recorder.update(used, running + term)
        per_size[s - 1] = term
        running += term

    return GroupValueEstimate(
        running, per_size, used, recorder.curve, std_error=math.sqrt(variance_total)
    )


def estimate_group_value(
    game: Game,
    members,
    config: EstimatorConfig,
    rng: np.random.Generator | None = None,
) -> GroupValueEstimate:
    """Two-regime estimate of the faithful group Shapley value of ``members``.

    Sizes below the threshold use per-overlap mean-utility estimates combined
    with exact hypergeometric weights; larger sizes use a single paired
    difference at the expected overlap (clamped into the feasible range, with
    infeasible sizes contributing zero).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _run_plan(game, members, config, rng, pair_game=game)


def choose_parameters(
    n: int,
    s0: int,
    epsilon: float,
    delta: float,
    upsilon: float,
    budget_cap: int | None = None,
) -> EstimatorConfig:
    """Accuracy-driven parameter choice: threshold and sample sizes scaled for
    an (epsilon, delta)-approximation, all hidden constants set to 1. With a
    budget cap, both sample sizes are deflated proportionally."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if upsilon <= 0:
        raise ValueError("upsilon must be positive")
    alpha0 = s0 / n
    log_term = math.log(n / delta)
    s_bar = math.ceil(epsilon ** (-1.0 / upsilon))
    s_bar = max(1, min(s_bar, n))
    m1 = math.ceil(epsilon ** (-(4 + 2 * upsilon) / upsilon) * log_term)
    m2 = math.ceil(max(1.0, epsilon**-2 * (alpha0 * (1 - alpha0)) ** 2 * log_term**3))
    m1, m2 = max(1, m1), max(1, m2)
    config = EstimatorConfig(size_threshold=s_bar, grid_samples=m1, pair_samples=m2)
    if budget_cap is not None:
        predicted = predicted_evaluations(n, s0, config)
        if predicted > budget_cap:
            factor = budget_cap / predicted
            config.grid_samples = max(1, int(m1 * factor))
            config.pair_samples = max(1, int(m2 * factor))
            log.info("budget cap deflated sample sizes by factor %.4g", factor)
    return config


def estimate_group_value_augmented(
    game: Game,
    members,
    B: int,
    samples: int,
    null_sampler,
    config: EstimatorConfig | None = None,
    rng: np.random.Generator | None = None,
) -> GroupValueEstimate:
    """Paired-difference estimate over every coalition size, with the utility
    calls inside the differences padded up to B items by fresh non-informative
    draws when the input is smaller than B.

    The efficiency endpoint term uses the raw game's full-set and empty-set
    utilities; only the paired differences go through the padded wrapper.
    Only ``seed`` and ``checkpoint_interval`` are read from ``config``.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed if config else None)
    all_paired = EstimatorConfig(
        size_threshold=1, grid_samples=1, pair_samples=samples,
        checkpoint_interval=config.checkpoint_interval if config else None,
    )
    padded = augment_with_null(game, B, null_sampler=null_sampler, rng=rng)
    return _run_plan(game, members, all_paired, rng, pair_game=padded)
