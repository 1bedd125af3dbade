"""Two-regime Monte Carlo estimator for the faithful group Shapley value.

Small coalition sizes get the full hypergeometric grid of conditional mean
utilities; each large size collapses to one exact paired difference,
U(R ∪ {z1}) - U(R ∪ {z2}) with z1 a member, z2 a non-member and R uniform
over the rest (Myerson's balanced contributions), which is where almost all
of the budget savings come from.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .combinatorics import (
    _check_feasible,
    _member_indices,
    sample_paired_tuples,
    sample_subsets_with_intersection,
    size_term_weights,
)
from .exact import _family_masks
from .games import Game, NullAugmentedGame
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

    Yields ``(s, cells)``, each cell an ``(s1, weight)`` pair whose estimate
    enters the FGSV as ``weight * estimate``. A grid size below the
    threshold has one cell per feasible overlap, weighted by
    :func:`size_term_weights`, each a mean utility. A paired size s has one
    cell, weighted by n/(n-1)·α0(1-α0): the mean of U(R ∪ {z1}) - U(R ∪ {z2})
    with z1 uniform over the members, z2 uniform over the non-members and R,
    |R| = s - 1, uniform over the other n - 2 players. Its overlap is drawn,
    so its s1 is None. Weighted so, it equals the exact size-s term.
    """
    alpha0 = s0 / n
    paired_weight = (n / (n - 1)) * alpha0 * (1 - alpha0)
    for s in range(1, n):
        if s < size_threshold:
            lo, weights = size_term_weights(n, s0, s)
            yield s, list(enumerate(weights, start=lo))
        else:
            yield s, [(None, paired_weight)]


def _mean_and_variance(values: np.ndarray) -> tuple[float, float]:
    """Mean of sampled ``values`` and the variance of that mean (from the
    unbiased sample variance; zero for one value)."""
    m = len(values)
    mean = values.sum() / m
    if m < 2:
        return float(mean), 0.0
    dev = values - mean
    return float(mean), float(dev @ dev) / ((m - 1) * m)


def _grid_rows(n: int, s0: int, s: int, s1: int, samples: int,
               exhaustive: bool) -> tuple[int, bool]:
    """Rows one (size, overlap) family sends, and whether they enumerate it:
    all of it if ``exhaustive`` and no larger than ``samples``, else ``samples``."""
    if exhaustive:
        family = math.comb(s0, s1) * math.comb(n - s0, s - s1)
        if family <= samples:
            return family, True
    return samples, False


def _cell_rows(n: int, s0: int, s: int, s1: int | None,
               config: EstimatorConfig) -> tuple[int, bool]:
    """:func:`_grid_rows` of one cell of the size plan; a paired cell (s1 None)
    sends 2 * pair_samples rows."""
    if s1 is None:
        return 2 * config.pair_samples, False
    return _grid_rows(n, s0, s, s1, config.grid_samples, config.exhaustive_small_sizes)


def _mean_utility(
    game: Game, members: np.ndarray, s: int, s1: int, rows: int,
    rng: np.random.Generator, enumerate_family: bool,
) -> tuple[float, float]:
    """Mean utility over one feasible (size, overlap) family, enumerated or
    from ``rows`` draws, and the variance of that mean (zero if enumerated)."""
    if enumerate_family:
        masks = _family_masks(game.n, members, s, s1)
        return float(game.evaluate_masks(masks).mean()), 0.0
    masks = sample_subsets_with_intersection(rng, game.n, members, s, s1, rows)
    return _mean_and_variance(game.evaluate_masks(masks))


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
    _check_feasible(game.n, len(members), s, s1)
    rows, enumerate_family = _grid_rows(game.n, len(members), s, s1, samples, exhaustive)
    return _mean_utility(game, members, s, s1, rows, rng, enumerate_family)[0]


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
    U(S ∪ {member}) - U(S ∪ {non-member}) over shared base subsets S with
    |S| = s and overlap s1 fixed."""
    members = _member_indices(members, game.n)
    return _mean_utility_gap(game, members, s, s1, samples, rng)[0]


def _mean_utility_gap(
    game: Game, members: np.ndarray, s: int, s1: int | None, samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean of the paired differences over base subsets of size s (overlap
    s1, or drawn where s1 is None) and the variance of that mean, for parsed
    members; spends 2 * samples evaluations."""
    with_out, z1, z2 = sample_paired_tuples(rng, game.n, members, s, s1, samples)
    rows = np.arange(samples)
    with_in = with_out.copy()
    with_in[rows, z1] = True
    with_out[rows, z2] = True
    diffs = game.evaluate_masks(with_in) - game.evaluate_masks(with_out)
    return _mean_and_variance(diffs)


def predicted_evaluations(n: int, s0: int, config: EstimatorConfig) -> int:
    """Utility-evaluation count of :func:`estimate_group_value`, read off the
    size plan cell by cell."""
    if s0 == 0:
        return 0
    if s0 == n:
        return 2
    return 2 + sum(
        _cell_rows(n, s0, s, s1, config)[0]
        for s, cells in _size_plan(n, s0, config.size_threshold) for s1, _ in cells
    )


def _run_plan(
    game: Game,
    members,
    config: EstimatorConfig,
    rng: np.random.Generator,
    pair_game: Game,
) -> GroupValueEstimate:
    """Runs the size plan: the efficiency endpoints and the grid cells on
    ``game``, the paired differences on ``pair_game``. ``evaluations_used``
    is read off the plan, the rows of each cell it runs, so it does not
    depend on who else evaluates either game."""
    n = game.n
    config.validate(n)
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

    running = (s0 / n) * (u_full - u_empty)
    recorder.update(used, running)
    per_size = np.zeros(n - 1)
    variance_total = 0.0

    for s, cells in _size_plan(n, s0, config.size_threshold):
        term = 0.0
        for s1, weight in cells:
            rows, enumerate_family = _cell_rows(n, s0, s, s1, config)
            if s1 is None:
                mean, mean_var = _mean_utility_gap(
                    pair_game, members, s - 1, s1, config.pair_samples, rng)
            else:
                mean, mean_var = _mean_utility(
                    game, members, s, s1, rows, rng, enumerate_family)
            used += rows
            term += weight * mean
            variance_total += weight**2 * mean_var
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
    with exact hypergeometric weights; every larger size up to n - 1 uses one
    exact paired difference (see :func:`_size_plan`).
    """
    if rng is None:
        rng = np.random.default_rng()
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
    budget cap, both sample sizes are deflated proportionally, then grid
    samples (and pair samples, once grid samples reach 1) are lowered until
    the plan fits the cap. A cap below one sample per cell raises ValueError."""
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
    if budget_cap is None:
        return config

    def cost(grid: int, pair: int) -> int:
        return predicted_evaluations(n, s0, replace(config, grid_samples=grid,
                                                    pair_samples=pair))

    least = cost(1, 1)
    if least > budget_cap:
        raise ValueError(f"budget_cap {budget_cap} below the minimum {least} "
                         f"of one sample per cell")
    predicted = cost(m1, m2)
    if predicted > budget_cap:
        factor = budget_cap / predicted
        grid, pair = max(1, int(m1 * factor)), max(1, int(m2 * factor))
        # The floors of 1 and the endpoint evaluations can leave the plan
        # over the cap; the cost is linear in each sample count.
        excess = cost(grid, pair) - budget_cap
        if excess > 0 and grid > 1:
            grid = max(1, grid - -(-excess // (cost(2, 1) - least)))
            excess = cost(grid, pair) - budget_cap
        if excess > 0:
            pair -= -(-excess // (cost(1, 2) - least))
        config.grid_samples, config.pair_samples = grid, pair
        log.info("budget cap deflated sample sizes by factor %.4g", factor)
    return config


def estimate_group_value_augmented(
    game: Game,
    members,
    B: int,
    samples: int,
    null_sampler,
    rng: np.random.Generator | None = None,
) -> GroupValueEstimate:
    """Paired-difference estimate over every coalition size, with the utility
    calls inside the differences padded up to B items by fresh non-informative
    draws when the input is smaller than B.

    The efficiency endpoint term uses the raw game's full-set and empty-set
    utilities; only the paired differences go through the padded wrapper.
    """
    if rng is None:
        rng = np.random.default_rng()
    all_paired = EstimatorConfig(size_threshold=1, grid_samples=1, pair_samples=samples)
    padded = NullAugmentedGame(game, B, null_sampler=null_sampler, rng=rng)
    return _run_plan(game, members, all_paired, rng, pair_game=padded)
