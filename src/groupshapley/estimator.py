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
    HypergeomParams,
    _check_feasible,
    _member_indices,
    sample_paired_tuples,
    sample_subsets_with_intersection,
    size_term_weights,
)
from .exact import _family_masks
from .games import _BATCH_ENTRIES, Game, NullAugmentedGame
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


def _grid_rows(n: int, s0: int, s: int, s1: int, samples: int,
               exhaustive: bool) -> tuple[int, str]:
    """Rows one (size, overlap) family sends, and how: ``"enumerate"`` all of
    it if ``exhaustive`` and no larger than ``samples``, else ``"sample"``
    ``samples`` draws from it."""
    if exhaustive:
        family = math.comb(s0, s1) * math.comb(n - s0, s - s1)
        if family <= samples:
            return family, "enumerate"
    return samples, "sample"


def _cell_masks(rng: np.random.Generator, n: int, members: np.ndarray, s: int,
                s1: int | None, rows: int, how: str) -> np.ndarray:
    """The ``rows`` masks of one cell: the whole family of subsets of size s
    and overlap s1 (``how`` is ``"enumerate"``), draws from it
    (``"sample"``), or ``rows // 2`` paired draws (``"pair"``; s1 may be
    None), R ∪ {z1} stacked on R ∪ {z2} with |R| = s as
    :func:`sample_paired_tuples` draws them."""
    if how == "enumerate":
        return _family_masks(n, members, s, s1)
    if how == "sample":
        return sample_subsets_with_intersection(rng, n, members, s, s1, rows)
    half = rows // 2
    with_out, z1, z2 = sample_paired_tuples(rng, n, members, s, s1, half)
    masks = np.concatenate((with_out, with_out))
    masks[np.arange(half), z1] = True
    masks[np.arange(half, rows), z2] = True
    return masks


def _cell_mean(values: np.ndarray, how: str) -> tuple[float, float]:
    """Mean of one cell from the utilities of its :func:`_cell_masks`, of
    the values or of the paired differences U(R ∪ {z1}) - U(R ∪ {z2}), and
    the variance of that mean: from the unbiased sample variance, zero if
    enumerated or for one draw."""
    if how == "enumerate":
        return float(values.mean()), 0.0
    if how == "pair":
        half = len(values) // 2
        values = values[:half] - values[half:]
    m = len(values)
    mean = values.sum() / m
    if m < 2:
        return float(mean), 0.0
    dev = values - mean
    return float(mean), float(dev @ dev) / ((m - 1) * m)


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
    rows, how = _grid_rows(game.n, len(members), s, s1, samples, exhaustive)
    masks = _cell_masks(rng, game.n, members, s, s1, rows, how)
    return _cell_mean(game.evaluate_masks(masks), how)[0]


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
    |S| = s and overlap s1 fixed. Spends 2 * samples evaluations."""
    members = _member_indices(members, game.n)
    masks = _cell_masks(rng, game.n, members, s, s1, 2 * samples, "pair")
    return _cell_mean(game.evaluate_masks(masks), "pair")[0]


def predicted_evaluations(n: int, s0: int, config: EstimatorConfig) -> int:
    """Utility-evaluation count of :func:`estimate_group_value`: the
    endpoints, the rows of each grid cell (one per feasible overlap of each
    size below the threshold) and 2 * pair_samples per paired size."""
    if s0 == 0:
        return 0
    if s0 == n:
        return 2
    used = 2 + 2 * config.pair_samples * len(range(max(config.size_threshold, 1), n))
    for s in range(1, min(config.size_threshold, n)):
        lo, hi = HypergeomParams(n, s0, s).support()
        used += sum(_grid_rows(n, s0, s, s1, config.grid_samples,
                               config.exhaustive_small_sizes)[0] for s1 in range(lo, hi + 1))
    return used


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
    depend on who else evaluates either game.

    Cells are drawn in plan order, with the sampler calls of a cell-by-cell
    loop, and wait until their masks reach ``_BATCH_ENTRIES`` entries or the
    next cell is on the other game; then one kernel call scores them all.
    Each cell's slice of the utilities gives its mean, and the sums and the
    curve take the cells in plan order, so where the kernel is
    batch-invariant no bit of the estimate depends on the batching. The
    endpoints stay one-row calls: from 32 players on, the ridge kernel can
    round a one-row batch differently."""
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

    def batches():
        # Yields (game, masks, cells) for each kernel call, a cell being
        # (how, size, weight, rows), and empties both lists after it, so no
        # scored mask is alive while the next cell is drawn.
        batch_game, masks, cells = None, [], []
        for s, plan in _size_plan(n, s0, config.size_threshold):
            for s1, weight in plan:
                if s1 is None:
                    cell_game, base, rows, how = pair_game, s - 1, 2 * config.pair_samples, "pair"
                else:
                    cell_game, base = game, s
                    rows, how = _grid_rows(n, s0, s, s1, config.grid_samples,
                                           config.exhaustive_small_sizes)
                if cells and cell_game is not batch_game:
                    yield batch_game, masks, cells
                    masks.clear()
                    cells.clear()
                batch_game = cell_game
                masks.append(_cell_masks(rng, n, members, base, s1, rows, how))
                cells.append((how, s, weight, rows))
                if sum(m.size for m in masks) >= _BATCH_ENTRIES:
                    yield batch_game, masks, cells
                    masks.clear()
                    cells.clear()
        if cells:
            yield batch_game, masks, cells

    running = (s0 / n) * (u_full - u_empty)
    recorder.update(used, running)
    per_size = np.zeros(n - 1)
    term = variance_total = 0.0
    size = 1
    for batch_game, masks, cells in batches():
        values = batch_game.evaluate_masks(masks[0] if len(masks) == 1 else np.concatenate(masks))
        at = 0
        for how, s, weight, rows in cells:
            mean, mean_var = _cell_mean(values[at : at + rows], how)
            at += rows
            used += rows
            if s != size:
                running += term
                term, size = 0.0, s
            term += weight * mean
            variance_total += weight**2 * mean_var
            per_size[s - 1] = term
            recorder.update(used, running + term)
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
