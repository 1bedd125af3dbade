"""Individual-Shapley-value estimators run under a shared evaluation budget.

Each estimator returns the full value vector; group values are obtained by
summation. Every estimator runs one schedule: fixed evaluations, then
batches of equal-cost draws. Evaluation counts and minimum budgets are read
off that schedule, so budget accounting can be checked exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .combinatorics import _member_indices, sample_uniform_subsets
from .games import Game
from .metrics import ConvergenceCurve, Recorder

log = logging.getLogger(__name__)


class NumericError(RuntimeError):
    """A linear solve failed even after ridge regularization."""


@dataclass
class SvEstimate:
    """Estimated Shapley values plus budget accounting and optional
    per-group convergence curves."""

    values: np.ndarray
    evaluations_used: int
    curves: dict[int, ConvergenceCurve] | None = None


def group_sum(estimate: SvEstimate, members) -> float:
    """Group value as the sum of its members' estimated values."""
    members = _member_indices(members, len(estimate.values))
    return float(estimate.values[members].sum())


def _parse_groups(groups, n: int):
    """Each group's sorted unique members, parsed as :func:`group_sum` parses
    them, so a bad index fails before any evaluation is spent."""
    return None if groups is None else [_member_indices(g, n) for g in groups]


class _Schedule(NamedTuple):
    """What one run spends: ``fixed`` evaluations before any draw, then
    ``draws`` draws of ``cost`` evaluations each, ``batch`` draws at a time."""

    fixed: int
    cost: int
    draws: int
    batch: int

    @property
    def evaluations(self) -> int:
        return self.fixed + self.cost * self.draws


def _schedule(method: str, n: int, budget: int | None = None,
              checkpoint_interval: int | None = None) -> _Schedule:
    """The schedule of one run of ``method`` on ``n`` players under
    ``budget``, or of its smallest run when ``budget`` is None.

    The smallest run is one full ordering (permutation), one draw (group
    testing, complement contribution, LeverageSHAP), n draws (both
    KernelSHAPs) or no draw (one-for-all). One-for-all samples nothing when
    n < 4: it has no interior size 2..n-2. Each batch draws
    ``checkpoint_interval`` evaluations' worth, by default 512 or 1024;
    permutation sampling draws whole orderings, the n+1 prefixes of each,
    at least one per batch. Raises ValueError for an unknown method, for
    n < 2 where the method needs two players, for a budget below the
    smallest run and for a checkpoint interval below 1.
    """
    if method not in BASELINE_ESTIMATORS:
        raise ValueError(f"unknown method {method!r}")
    if checkpoint_interval is not None and checkpoint_interval < 1:
        raise ValueError(f"checkpoint interval must be >= 1, got {checkpoint_interval}")
    min_n, fixed, cost, least, per_batch = {
        "permutation": (1, 0, 1, n + 1, 1024),
        "group_testing": (1, 0, 1, 1, 512),
        "complement_contribution": (1, 0, 2, 1, 1024),
        "one_for_all": (2, 2 * n + 2, 1, 0, 512),
        "kernelshap": (2, 2, 1, n, 1024),
        "unbiased_kernelshap": (2, 2, 1, n, 1024),
        "leverageshap": (2, 2, 2, 1, 1024),
    }[method]
    if n < min_n:
        raise ValueError(f"{method} needs n >= {min_n} players, got n={n}")
    draws = least if budget is None else (budget - fixed) // cost
    if draws < least:
        raise ValueError(
            f"budget {budget} below the minimum {fixed + cost * least} for {method}"
        )
    if method == "one_for_all" and n < 4:
        draws = 0
    step = n + 1 if method == "permutation" else 1
    batch = max((checkpoint_interval or per_batch) // (cost * step), 1) * step
    return _Schedule(fixed, cost, draws, batch)


def _run(schedule: _Schedule, draw, values, groups, checkpoint_interval,
         final=None) -> SvEstimate:
    """Runs ``draw(c)`` for each batch of c draws after the schedule's fixed
    evaluations, and checkpoints the group sums of ``values()`` from the
    fixed evaluations on: after each batch, or, where ``draw`` is a
    generator, after each count of the batch's draws it yields. The estimate
    is ``final()``, by default ``values()``."""
    rec = Recorder(checkpoint_interval if groups is not None else None, groups)
    rec.update(schedule.fixed, values)
    done = 0
    while done < schedule.draws:
        c = min(schedule.batch, schedule.draws - done)
        for spent in draw(c) or (c,):
            rec.update(schedule.fixed + schedule.cost * (done + spent), values)
        done += c
    return SvEstimate((final or values)(), schedule.evaluations, rec.curves)


def _add_to_strata(sums, counts, masks, strata, v) -> None:
    """Adds v[t] to sums[i, strata[t]], and 1 to counts[i, strata[t]], for
    every player i in row t of ``masks``: one ``bincount`` per array on the
    flat index, ~2x faster than ``np.add.at``."""
    t, i = np.nonzero(masks)
    flat = i * sums.shape[1] + strata[t]
    sums += np.bincount(flat, weights=v[t], minlength=sums.size).reshape(sums.shape)
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)


def _stratum_means(sums, counts) -> np.ndarray:
    """sums / counts, with 0 where a stratum was never hit."""
    means = np.zeros_like(sums)
    np.divide(sums, counts, out=means, where=counts > 0)
    return means


def permutation_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Averages marginal contributions along random player orderings. Each
    full ordering costs n+1 evaluations (empty set plus n prefixes); the last
    ordering is truncated so exactly ``budget`` evaluations are spent.

    One kernel call scores a batch's orderings, then their marginals are
    added one ordering at a time, so each checkpoint records the estimate
    after the ordering that crosses it."""
    n = game.n
    schedule = _schedule("permutation", n, budget, checkpoint_interval)
    groups = _parse_groups(groups, n)
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)

    def draw(c):
        perms = np.array([rng.permutation(n) for _ in range(-(-c // (n + 1)))])
        # Row t of an ordering holds its first t players: those at a
        # position below t.
        positions = np.empty_like(perms)
        np.put_along_axis(positions, perms, np.arange(n)[None, :], axis=1)
        masks = (np.arange(n + 1)[:, None] > positions[:, None, :]).reshape(-1, n)
        u = game.evaluate_masks(masks[:c])
        for j, perm in enumerate(perms):
            uj = u[j * (n + 1) : (j + 1) * (n + 1)]
            players = perm[: len(uj) - 1]
            sums[players] += uj[1:] - uj[:-1]
            counts[players] += 1
            yield j * (n + 1) + len(uj)

    return _run(schedule, draw, lambda: _stratum_means(sums, counts),
                groups, checkpoint_interval)


def group_testing_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Randomized inclusion tests with an extra dummy player as the zero
    reference; one evaluation per sampled coalition. Values are the scaled
    differences between each player's utility column sum and the dummy's."""
    n = game.n
    schedule = _schedule("group_testing", n, budget, checkpoint_interval)
    groups = _parse_groups(groups, n)
    sizes_support = np.arange(1, n + 1)
    q = 1.0 / sizes_support + 1.0 / (n - sizes_support + 1)
    Z = float(q.sum())
    p = q / Z
    colsums = np.zeros(n)
    dummysum = 0.0
    rows = 0

    def draw(c):
        nonlocal colsums, dummysum, rows
        sizes = rng.choice(sizes_support, size=c, p=p)
        ext = sample_uniform_subsets(rng, n + 1, sizes, c)
        real = ext[:, :n]
        u = game.evaluate_masks(real)
        # Float masks let the product use BLAS; boolean ones do not.
        colsums += u @ real.astype(float)
        dummysum += float(u[ext[:, n]].sum())
        rows += c

    def values():
        return (Z / max(rows, 1)) * (colsums - dummysum)

    return _run(schedule, draw, values, groups, checkpoint_interval)


def complement_contribution_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Stratified sampling of coalition/complement pairs: each draw costs two
    evaluations and its utility difference feeds every player's stratum mean.
    Strata never hit contribute zero (logged)."""
    n = game.n
    schedule = _schedule("complement_contribution", n, budget, checkpoint_interval)
    groups = _parse_groups(groups, n)
    sums = np.zeros((n, n + 1))
    counts = np.zeros((n, n + 1), dtype=np.int64)

    def draw(c):
        sizes = rng.integers(1, n + 1, size=c)
        masks = sample_uniform_subsets(rng, n, sizes, c)
        comp = ~masks
        v = game.evaluate_masks(masks) - game.evaluate_masks(comp)
        _add_to_strata(sums, counts, masks, sizes, v)
        _add_to_strata(sums, counts, comp, n - sizes, -v)

    def values():
        return _stratum_means(sums, counts)[:, 1:].sum(axis=1) / n

    est = _run(schedule, draw, values, groups, checkpoint_interval)
    empty = int((counts[:, 1:] == 0).sum())
    if empty:
        log.debug("complement contribution: %d empty strata contribute 0", empty)
    return est


def one_for_all_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Deterministic evaluations for coalition sizes {0, 1, n-1, n} plus
    size-weighted sampling of the interior sizes, with every sampled coalition
    feeding all players' in/out stratum means."""
    n = game.n
    schedule = _schedule("one_for_all", n, budget, checkpoint_interval)
    groups = _parse_groups(groups, n)

    det_masks = np.zeros((2 * n + 2, n), dtype=bool)
    det_masks[1] = True  # full set
    det_masks[2 : n + 2] = np.eye(n, dtype=bool)  # singletons
    det_masks[n + 2 :] = ~np.eye(n, dtype=bool)  # leave-one-out sets
    u = game.evaluate_masks(det_masks)
    u_empty, u_full = u[0], u[1]
    u_single = u[2 : n + 2]
    u_loo = u[n + 2 :]

    det = (u_full - u_empty) + (u_single - u_loo)
    det = det + (u_loo.sum() - u_loo) / (n - 1) - (u_single.sum() - u_single) / (n - 1)
    det = det / n

    in_sums = np.zeros((n, n + 1))
    in_counts = np.zeros((n, n + 1), dtype=np.int64)
    out_sums = np.zeros((n, n + 1))
    out_counts = np.zeros((n, n + 1), dtype=np.int64)
    interior = np.arange(2, n - 1)
    q = 1.0 / np.sqrt(interior * (n - interior))
    q = q / q.sum()

    def draw(c):
        sizes = rng.choice(interior, size=c, p=q)
        masks = sample_uniform_subsets(rng, n, sizes, c)
        uu = game.evaluate_masks(masks)
        _add_to_strata(in_sums, in_counts, masks, sizes, uu)
        _add_to_strata(out_sums, out_counts, ~masks, sizes, uu)

    def values():
        in_means = _stratum_means(in_sums, in_counts)
        out_means = _stratum_means(out_sums, out_counts)
        return det + (in_means - out_means).sum(axis=1) / n

    return _run(schedule, draw, values, groups, checkpoint_interval)


def solve_constrained_ls(A: np.ndarray, b: np.ndarray, total: float) -> np.ndarray:
    """Minimizer of the quadratic with gram matrix A and moment vector b under
    the constraint that the entries sum to ``total``.

    ``np.linalg.cholesky``, which reads only the lower triangle, checks that
    A is positive definite; one dense solve then takes b and the ones vector
    together. If A is not positive definite, A + 1e-10·I is tried. NumericError
    when that fails too, or when A, b or ``total`` is not finite."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(total)):
        raise NumericError("non-finite gram matrix, moment vector or total")
    n = len(b)
    rhs = np.stack((b, np.ones(n)), axis=1)
    for attempt, mat in enumerate((A, A + 1e-10 * np.eye(n))):
        try:
            np.linalg.cholesky(mat)
            x0, y = np.linalg.solve(mat, rhs).T
            break
        except np.linalg.LinAlgError:
            if attempt == 1:
                raise NumericError("gram matrix singular even after ridge fallback")
            log.debug("gram matrix not positive definite; applying ridge fallback")
    return x0 - y * ((x0.sum() - total) / y.sum())


def closed_form_gram(n: int) -> np.ndarray:
    """Expected coalition-indicator gram matrix under kernel-weighted size
    sampling: 1/2 on the diagonal and a single shared off-diagonal constant
    (zero when n < 3, where the defining sum is empty; logged)."""
    if n < 3:
        off = 0.0
        log.debug("closed-form gram off-diagonal undefined for n=%d; using 0", n)
    else:
        s = np.arange(2, n)
        num = ((s - 1) / (n - s)).sum()
        sizes = np.arange(1, n)
        den = (1.0 / (sizes * (n - sizes))).sum()
        off = num / den / (n * (n - 1))
    A = np.full((n, n), off)
    np.fill_diagonal(A, 0.5)
    return A


def _weighted_ls_estimator(
    method, game, budget, rng, groups, checkpoint_interval,
    size_probs_fn, paired: bool, empirical_gram: bool,
):
    """Shared engine for the three regression-based estimators."""
    n = game.n
    schedule = _schedule(method, n, budget, checkpoint_interval)
    groups = _parse_groups(groups, n)
    u_full = game.evaluate(range(n))
    u_empty = game.evaluate([])
    total = u_full - u_empty
    sizes_support = np.arange(1, n)
    probs, weight_fn = size_probs_fn(n, sizes_support)

    A_acc = np.zeros((n, n))
    b_acc = np.zeros(n)
    A_fixed = None if empirical_gram else closed_form_gram(n)
    draws = 0

    def draw(c):
        nonlocal A_acc, b_acc, draws
        sizes = rng.choice(sizes_support, size=c, p=probs)
        masks = sample_uniform_subsets(rng, n, sizes, c)
        w = weight_fn(sizes)
        u1 = game.evaluate_masks(masks)
        # Float masks let the products use BLAS; boolean ones do not.
        incl = masks.astype(float)
        if paired:
            u2 = game.evaluate_masks(~masks)
            excl = 1.0 - incl
            if empirical_gram:
                A_acc += incl.T @ (incl * w[:, None]) + excl.T @ (excl * w[:, None])
            b_acc += (w * (u1 - u_empty)) @ incl + (w * (u2 - u_empty)) @ excl
        else:
            if empirical_gram:
                A_acc += incl.T @ (incl * w[:, None])
            b_acc += (w * (u1 - u_empty)) @ incl
        draws += c

    def solve():
        rows = schedule.cost * max(draws, 1)
        A_hat = A_acc / rows if empirical_gram else A_fixed
        return solve_constrained_ls(A_hat, b_acc / rows, total)

    def values():
        try:
            return solve()
        except NumericError:
            return np.zeros(n)

    return _run(schedule, draw, values, groups, checkpoint_interval, final=solve)


def _kernel_size_probs(n, sizes):
    """Sizes drawn in proportion to the Shapley kernel weight; unit row
    weights."""
    q = 1.0 / (sizes * (n - sizes))
    return q / q.sum(), lambda s: np.ones(len(s))


def kernelshap_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Weighted-least-squares characterization of Shapley values with an
    empirical gram matrix; coalition sizes drawn proportional to the
    Shapley kernel weights."""
    return _weighted_ls_estimator(
        "kernelshap", game, budget, rng, groups, checkpoint_interval,
        _kernel_size_probs, paired=False, empirical_gram=True,
    )


def unbiased_kernelshap_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Kernel-weighted least squares with the gram matrix replaced by its
    closed-form expectation."""
    return _weighted_ls_estimator(
        "unbiased_kernelshap", game, budget, rng, groups, checkpoint_interval,
        _kernel_size_probs, paired=False, empirical_gram=False,
    )


def leverageshap_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Uniform coalition sizes with each sampled row downweighted by the
    sqrt(s(n-s)) correction factor, so the effective per-coalition weight
    matches the exact kernel; paired sampling of each coalition with its
    complement (two evaluations per draw)."""

    def probs(n, sizes):
        p = np.full(len(sizes), 1.0 / len(sizes))
        return p, lambda s: 1.0 / (s * (n - s))

    return _weighted_ls_estimator(
        "leverageshap", game, budget, rng, groups, checkpoint_interval,
        probs, paired=True, empirical_gram=True,
    )


BASELINE_ESTIMATORS = {
    "permutation": permutation_estimator,
    "group_testing": group_testing_estimator,
    "complement_contribution": complement_contribution_estimator,
    "one_for_all": one_for_all_estimator,
    "kernelshap": kernelshap_estimator,
    "unbiased_kernelshap": unbiased_kernelshap_estimator,
    "leverageshap": leverageshap_estimator,
}


def min_baseline_budget(method: str, n: int) -> int:
    """Smallest budget the estimator accepts: the evaluations of its
    smallest run, read off its schedule."""
    return _schedule(method, n).evaluations


def predicted_baseline_evaluations(method: str, n: int, budget: int) -> int:
    """Evaluations the estimator spends under ``budget``, read off its
    schedule."""
    return _schedule(method, n, budget).evaluations
