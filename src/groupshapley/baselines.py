"""Individual-Shapley-value estimators run under a shared evaluation budget.

Each estimator returns the full value vector; group values are obtained by
summation. Evaluation counts follow documented closed forms so budget
accounting can be checked exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .games import Game
from .metrics import ConvergenceCurve

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
    extras: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        out = {
            "values": self.values.tolist(),
            "evaluations_used": self.evaluations_used,
            "extras": self.extras,
        }
        if self.curves is not None:
            out["curves"] = {str(k): c.to_jsonable() for k, c in self.curves.items()}
        return out


def group_sum(estimate: SvEstimate, members) -> float:
    """Group value as the sum of its members' estimated values."""
    members = [int(i) for i in members]
    n = len(estimate.values)
    if any(i < 0 or i >= n for i in members):
        raise ValueError("member index out of range")
    return float(estimate.values[members].sum()) if members else 0.0


class _GroupRecorder:
    """Checkpoints the group sums of a running value vector every
    ``interval`` evaluations."""

    def __init__(self, interval, groups):
        self.active = interval is not None and groups is not None
        self.interval = interval
        self.groups = [np.asarray(list(g), dtype=np.intp) for g in groups] if groups else []
        self.curves = {gid: ConvergenceCurve() for gid in range(len(self.groups))} \
            if self.active else None
        self._next = interval

    def update(self, evals: int, values_fn) -> None:
        if not self.active or evals < self._next:
            return
        values = values_fn()
        sums = [float(values[g].sum()) for g in self.groups]
        while self._next <= evals:
            for gid, s in enumerate(sums):
                self.curves[gid].append(self._next, s)
            self._next += self.interval


def _ranked_masks(rng: np.random.Generator, count: int, width: int, sizes) -> np.ndarray:
    """Uniform subsets of per-row sizes: row i selects sizes[i] columns."""
    keys = rng.random((count, width))
    ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
    return ranks < np.asarray(sizes)[:, None]


def _chunks(total: int, size: int):
    done = 0
    while done < total:
        step = min(size, total - done)
        yield step
        done += step


def permutation_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Averages marginal contributions along random player orderings. Each
    full ordering costs n+1 evaluations (empty set plus n prefixes); the last
    ordering is truncated so exactly ``budget`` evaluations are spent."""
    n = game.n
    _require_budget("permutation", n, budget)
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    rec = _GroupRecorder(checkpoint_interval, groups)

    def values_fn():
        out = np.zeros(n)
        np.divide(sums, counts, out=out, where=counts > 0)
        return out

    evals = 0
    while evals < budget:
        perm = rng.permutation(n)
        k = min(n + 1, budget - evals)  # evaluations spent on this ordering
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        masks = np.arange(k)[:, None] > inv[None, :]
        u = game.evaluate_masks(masks)
        players = perm[: k - 1]
        sums[players] += u[1:] - u[:-1]
        counts[players] += 1
        evals += k
        rec.update(evals, values_fn)
    return SvEstimate(values_fn(), evals, rec.curves)


def group_testing_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Randomized inclusion tests with an extra dummy player as the zero
    reference; one evaluation per sampled coalition. Values are the scaled
    differences between each player's utility column sum and the dummy's."""
    n = game.n
    _require_budget("group_testing", n, budget)
    sizes_support = np.arange(1, n + 1)
    q = 1.0 / sizes_support + 1.0 / (n - sizes_support + 1)
    Z = float(q.sum())
    p = q / Z
    colsums = np.zeros(n)
    dummysum = 0.0
    rec = _GroupRecorder(checkpoint_interval, groups)
    evals = 0

    def values_fn():
        return (Z / max(evals, 1)) * (colsums - dummysum)

    chunk_size = checkpoint_interval or 512
    for c in _chunks(budget, chunk_size):
        sizes = rng.choice(sizes_support, size=c, p=p)
        ext = _ranked_masks(rng, c, n + 1, sizes)
        real = ext[:, :n]
        u = game.evaluate_masks(real)
        colsums += real.T @ u
        dummysum += float(u[ext[:, n]].sum())
        evals += c
        rec.update(evals, values_fn)
    return SvEstimate(
        values_fn(), evals, rec.curves,
        extras={"dummy_column_mean": dummysum / budget},
    )


def complement_contribution_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Stratified sampling of coalition/complement pairs: each draw costs two
    evaluations and its utility difference feeds every player's stratum mean.
    Strata never hit contribute zero (logged)."""
    n = game.n
    _require_budget("complement_contribution", n, budget)
    pairs = budget // 2
    sums = np.zeros((n, n + 1))
    counts = np.zeros((n, n + 1), dtype=np.int64)
    rec = _GroupRecorder(checkpoint_interval, groups)
    evals = 0

    def values_fn():
        means = np.zeros_like(sums)
        np.divide(sums, counts, out=means, where=counts > 0)
        return means[:, 1:].sum(axis=1) / n

    chunk_size = max((checkpoint_interval or 1024) // 2, 1)
    for c in _chunks(pairs, chunk_size):
        sizes = rng.integers(1, n + 1, size=c)
        masks = _ranked_masks(rng, c, n, sizes)
        comp = ~masks
        v = game.evaluate_masks(masks) - game.evaluate_masks(comp)
        t_in, i_in = np.nonzero(masks)
        np.add.at(sums, (i_in, sizes[t_in]), v[t_in])
        np.add.at(counts, (i_in, sizes[t_in]), 1)
        t_out, i_out = np.nonzero(comp)
        np.add.at(sums, (i_out, n - sizes[t_out]), -v[t_out])
        np.add.at(counts, (i_out, n - sizes[t_out]), 1)
        evals += 2 * c
        rec.update(evals, values_fn)
    empty = int((counts[:, 1:] == 0).sum())
    if empty:
        log.debug("complement contribution: %d empty strata contribute 0", empty)
    return SvEstimate(values_fn(), evals, rec.curves)


def one_for_all_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Deterministic evaluations for coalition sizes {0, 1, n-1, n} plus
    size-weighted sampling of the interior sizes, with every sampled coalition
    feeding all players' in/out stratum means."""
    n = game.n
    _require_budget("one_for_all", n, budget)
    rec = _GroupRecorder(checkpoint_interval, groups)

    det_masks = np.zeros((2 * n + 2, n), dtype=bool)
    det_masks[1] = True  # full set
    det_masks[2 : n + 2] = np.eye(n, dtype=bool)  # singletons
    det_masks[n + 2 :] = ~np.eye(n, dtype=bool)  # leave-one-out sets
    u = game.evaluate_masks(det_masks)
    u_empty, u_full = u[0], u[1]
    u_single = u[2 : n + 2]
    u_loo = u[n + 2 :]

    det = (u_full - u_empty) + (u_single - u_loo)
    if n >= 2:
        det = det + (u_loo.sum() - u_loo) / (n - 1) - (u_single.sum() - u_single) / (n - 1)
    det = det / n
    evals = 2 * n + 2
    rec.update(evals, lambda: det)

    in_sums = np.zeros((n, n + 1))
    in_counts = np.zeros((n, n + 1), dtype=np.int64)
    out_sums = np.zeros((n, n + 1))
    out_counts = np.zeros((n, n + 1), dtype=np.int64)

    def values_fn():
        in_means = np.zeros_like(in_sums)
        np.divide(in_sums, in_counts, out=in_means, where=in_counts > 0)
        out_means = np.zeros_like(out_sums)
        np.divide(out_sums, out_counts, out=out_means, where=out_counts > 0)
        return det + (in_means - out_means).sum(axis=1) / n

    interior = np.arange(2, n - 1)
    if len(interior) == 0:
        return SvEstimate(det, evals, rec.curves)
    q = 1.0 / np.sqrt(interior * (n - interior))
    q = q / q.sum()
    chunk_size = checkpoint_interval or 512
    for c in _chunks(budget - evals, chunk_size):
        sizes = rng.choice(interior, size=c, p=q)
        masks = _ranked_masks(rng, c, n, sizes)
        uu = game.evaluate_masks(masks)
        t_in, i_in = np.nonzero(masks)
        np.add.at(in_sums, (i_in, sizes[t_in]), uu[t_in])
        np.add.at(in_counts, (i_in, sizes[t_in]), 1)
        t_out, i_out = np.nonzero(~masks)
        np.add.at(out_sums, (i_out, sizes[t_out]), uu[t_out])
        np.add.at(out_counts, (i_out, sizes[t_out]), 1)
        evals += c
        rec.update(evals, values_fn)
    return SvEstimate(values_fn(), evals, rec.curves)


def solve_constrained_ls(A: np.ndarray, b: np.ndarray, total: float) -> np.ndarray:
    """Minimizer of the quadratic with gram matrix A and moment vector b under
    the constraint that the entries sum to ``total``; symmetric dense solve
    with a tiny ridge fallback for singular A."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(b)
    ones = np.ones(n)
    for attempt, mat in enumerate((A, A + 1e-10 * np.eye(n))):
        try:
            factor = scipy.linalg.cho_factor(mat, lower=True)
            x0 = scipy.linalg.cho_solve(factor, b)
            y = scipy.linalg.cho_solve(factor, ones)
            break
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
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
    _require_budget(method, n, budget)
    u_full = game.evaluate(range(n))
    u_empty = game.evaluate([])
    total = u_full - u_empty
    sizes_support = np.arange(1, n)
    probs, weight_fn = size_probs_fn(n, sizes_support)

    A_acc = np.zeros((n, n))
    b_acc = np.zeros(n)
    rec = _GroupRecorder(checkpoint_interval, groups)
    evals = 2
    draws = 0

    if not empirical_gram:
        A_fixed = closed_form_gram(n)

    def values_fn():
        d = max(draws, 1)
        A_hat = A_acc / (2 * d if paired else d) if empirical_gram else A_fixed
        b_hat = b_acc / (2 * d if paired else d)
        try:
            return solve_constrained_ls(A_hat, b_hat, total)
        except NumericError:
            return np.zeros(n)

    n_draws = (budget - 2) // 2 if paired else budget - 2
    chunk_size = max((checkpoint_interval or 1024) // (2 if paired else 1), 1)
    for c in _chunks(n_draws, chunk_size):
        sizes = rng.choice(sizes_support, size=c, p=probs)
        masks = _ranked_masks(rng, c, n, sizes)
        w = weight_fn(sizes)
        u1 = game.evaluate_masks(masks)
        if paired:
            comp = ~masks
            u2 = game.evaluate_masks(comp)
            if empirical_gram:
                A_acc += masks.T @ (masks * w[:, None]) + comp.T @ (comp * w[:, None])
            b_acc += masks.T @ (w * (u1 - u_empty)) + comp.T @ (w * (u2 - u_empty))
            evals += 2 * c
        else:
            if empirical_gram:
                A_acc += masks.T @ (masks * w[:, None])
            b_acc += masks.T @ (w * (u1 - u_empty))
            evals += c
        draws += c
        rec.update(evals, values_fn)

    d = max(draws, 1)
    A_hat = A_acc / (2 * d if paired else d) if empirical_gram else A_fixed
    b_hat = b_acc / (2 * d if paired else d)
    values = solve_constrained_ls(A_hat, b_hat, total)
    return SvEstimate(values, evals, rec.curves)


def kernelshap_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Weighted-least-squares characterization of Shapley values with an
    empirical gram matrix; coalition sizes drawn proportional to the
    Shapley kernel weights."""

    def probs(n, sizes):
        q = 1.0 / (sizes * (n - sizes))
        return q / q.sum(), lambda s: np.ones(len(s))

    return _weighted_ls_estimator(
        "kernelshap", game, budget, rng, groups, checkpoint_interval,
        probs, paired=False, empirical_gram=True,
    )


def unbiased_kernelshap_estimator(
    game: Game, budget: int, rng: np.random.Generator,
    groups=None, checkpoint_interval=None,
) -> SvEstimate:
    """Kernel-weighted least squares with the gram matrix replaced by its
    closed-form expectation."""

    def probs(n, sizes):
        q = 1.0 / (sizes * (n - sizes))
        return q / q.sum(), lambda s: np.ones(len(s))

    return _weighted_ls_estimator(
        "unbiased_kernelshap", game, budget, rng, groups, checkpoint_interval,
        probs, paired=False, empirical_gram=False,
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
    """Smallest budget each estimator accepts: one full ordering
    (permutation), one coalition (group testing), one coalition pair
    (complement contribution), the deterministic block of sizes 0, 1, n-1
    and n (one-for-all), the two endpoints plus n draws (both KernelSHAPs),
    or the two endpoints plus one coalition pair (LeverageSHAP)."""
    minima = {
        "permutation": n + 1,
        "group_testing": 1,
        "complement_contribution": 2,
        "one_for_all": 2 * n + 2,
        "kernelshap": n + 2,
        "unbiased_kernelshap": n + 2,
        "leverageshap": 4,
    }
    if method not in minima:
        raise ValueError(f"unknown method {method!r}")
    return minima[method]


def _require_budget(method: str, n: int, budget: int) -> None:
    need = min_baseline_budget(method, n)
    if budget < need:
        raise ValueError(f"budget {budget} below the minimum {need} for {method}")


def predicted_baseline_evaluations(method: str, n: int, budget: int) -> int:
    """Closed-form evaluation counts matching each estimator's consumption."""
    if method == "permutation":
        return budget
    if method == "group_testing":
        return budget
    if method == "complement_contribution":
        return 2 * (budget // 2)
    if method == "one_for_all":
        return budget if n >= 4 else 2 * n + 2
    if method in ("kernelshap", "unbiased_kernelshap"):
        return budget
    if method == "leverageshap":
        return 2 + 2 * ((budget - 2) // 2)
    raise ValueError(f"unknown method {method!r}")
