import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from groupshapley.baselines import (
    BASELINE_ESTIMATORS,
    NumericError,
    closed_form_gram,
    complement_contribution_estimator,
    group_sum,
    group_testing_estimator,
    kernelshap_estimator,
    leverageshap_estimator,
    min_baseline_budget,
    one_for_all_estimator,
    permutation_estimator,
    predicted_baseline_evaluations,
    solve_constrained_ls,
    unbiased_kernelshap_estimator,
)
from groupshapley.exact import exact_shapley_values
from groupshapley.games import (RegressionGame, SIZE_UTILITIES, SOUGame, SizeOnlyGame,
                                sou_generate)


class AdditiveGame(SizeOnlyGame):
    """U(S) = sum of fixed per-player contributions."""

    def __init__(self, contributions):
        self.contributions = np.asarray(contributions, dtype=float)
        super(SizeOnlyGame, self).__init__(len(self.contributions))

    def _values(self, masks):
        return masks @ self.contributions


class TestPermutation:
    def test_additive_game_exact(self):
        c = [0.5, -1.0, 2.0, 0.25]
        g = AdditiveGame(c)
        est = permutation_estimator(g, 5, np.random.default_rng(0))
        assert est.values == pytest.approx(c, abs=1e-12)

    def test_single_permutation_budget(self):
        g = sou_generate(6, 10, 1)
        est = permutation_estimator(g, 7, np.random.default_rng(0))
        assert est.evaluations_used == 7

    def test_truncation_spends_exact_budget(self, kernel_rows):
        g = sou_generate(6, 10, 1)
        counted = kernel_rows(g)
        est = permutation_estimator(g, 25, np.random.default_rng(0))
        assert est.evaluations_used == 25
        assert counted.rows == 25

    def test_budget_too_small(self):
        g = sou_generate(6, 10, 1)
        with pytest.raises(ValueError):
            permutation_estimator(g, 6, np.random.default_rng(0))

    def test_mean_within_clt_band(self):
        g = sou_generate(8, 15, 44)
        truth = g.exact_shapley_vector()
        runs = np.array([
            permutation_estimator(g, 10 * 9, np.random.default_rng(s)).values
            for s in range(200)
        ])
        mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
        assert (np.abs(mean - truth) <= 4 * se + 1e-12).all()


def _frozen_permutation(game, budget, rng, groups, checkpoint_interval):
    """Permutation sampling as it ran before orderings were batched: one
    ordering per kernel call, a checkpoint after each. Kept as the reference
    that the batched estimator must match bit for bit."""
    from groupshapley.metrics import Recorder

    n = game.n
    sums, counts = np.zeros(n), np.zeros(n, dtype=np.int64)

    def values():
        means = np.zeros(n)
        np.divide(sums, counts, out=means, where=counts > 0)
        return means

    rec = Recorder(checkpoint_interval if groups is not None else None, groups)
    rec.update(0, values)
    done = 0
    while done < budget:
        c = min(n + 1, budget - done)
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        u = game.evaluate_masks(np.arange(c)[:, None] > inv[None, :])
        sums[perm[: c - 1]] += u[1:] - u[:-1]
        counts[perm[: c - 1]] += 1
        done += c
        rec.update(done, values)
    return values(), rec.curves


class TestPermutationBatches:
    """One kernel call scores a batch of orderings; values and every curve
    point equal those of the frozen one-ordering-per-call loop."""

    @pytest.mark.parametrize("budget", [17 * 60, 17 * 60 + 1, 17 * 60 + 2, 2000, 17])
    @pytest.mark.parametrize("interval", [None, 1, 17, 200, 333, 5000])
    def test_matches_one_ordering_per_call(self, kernel_rows, budget, interval):
        game = sou_generate(16, 64, 3)
        groups = [range(0, 16, 4), range(1, 16, 4), [2, 3, 6, 7, 10, 11, 14, 15]]
        want, want_curves = _frozen_permutation(game, budget, np.random.default_rng(5),
                                                groups, interval)
        counted = kernel_rows(game)
        got = permutation_estimator(game, budget, np.random.default_rng(5), groups=groups,
                                    checkpoint_interval=interval)
        assert got.values.tobytes() == want.tobytes()
        assert counted.rows == got.evaluations_used == budget
        if interval is None:
            assert got.curves is None
            return
        for gid in range(len(groups)):
            assert [c[:2] for c in got.curves[gid].checkpoints] == \
                [c[:2] for c in want_curves[gid].checkpoints]

    def test_ridge_game(self):
        rng = np.random.default_rng(8)
        X, Xt = rng.normal(size=(16, 4)), rng.normal(size=(8, 4))
        beta = rng.normal(size=4)
        game = RegressionGame(X, X @ beta + 0.5 * rng.normal(size=16),
                              Xt, Xt @ beta + 0.5 * rng.normal(size=8), lam=1.0)
        groups = [range(g, 16, 4) for g in range(4)]
        want, want_curves = _frozen_permutation(game, 2000, np.random.default_rng(1),
                                                groups, 200)
        got = permutation_estimator(game, 2000, np.random.default_rng(1), groups=groups,
                                    checkpoint_interval=200)
        assert got.values.tobytes() == want.tobytes()
        for gid in range(4):
            assert [c[:2] for c in got.curves[gid].checkpoints] == \
                [c[:2] for c in want_curves[gid].checkpoints]

    def test_kernel_calls(self, kernel_rows):
        # 200 // 17 = 11 orderings (187 rows) per call: 10 full calls, then
        # 130 rows, the last ordering truncated to 11 of its 17 prefixes.
        game = sou_generate(16, 64, 3)
        counted = kernel_rows(game)
        permutation_estimator(game, 2000, np.random.default_rng(0),
                              groups=[range(g, 16, 4) for g in range(4)],
                              checkpoint_interval=200)
        assert (counted.calls, counted.rows) == (11, 2000)


class TestGroupTesting:
    def test_single_row(self):
        g = sou_generate(6, 10, 2)
        est = group_testing_estimator(g, 1, np.random.default_rng(0))
        assert est.evaluations_used == 1

    def test_dummy_mean_near_zero(self):
        # the dummy pseudo-player's value estimate is the scaled dummy
        # column minus itself, structurally zero; check the pairwise
        # construction instead: estimates of two players differ by the
        # difference of their column sums
        g = sou_generate(8, 15, 3)
        truth = g.exact_shapley_vector()
        runs = np.array([
            group_testing_estimator(g, 4000, np.random.default_rng(s)).values
            for s in range(60)
        ])
        diffs = runs[:, 0] - runs[:, 1]
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean() - (truth[0] - truth[1])) <= 4 * se + 1e-12

    def test_pairwise_difference_convergence(self):
        g = sou_generate(8, 15, 3)
        truth = g.exact_shapley_vector()
        est = group_testing_estimator(g, 3 * 10**5, np.random.default_rng(1))
        got = est.values
        for i in range(8):
            for j in range(i + 1, 8):
                assert (got[i] - got[j]) == pytest.approx(
                    truth[i] - truth[j], abs=0.05
                )


class TestComplementContribution:
    def test_symmetric_game_equal_values(self):
        g = SizeOnlyGame(7, lambda s: math.sqrt(s))
        est = complement_contribution_estimator(g, 4000, np.random.default_rng(0))
        assert np.ptp(est.values) < 1e-9

    def test_single_pair(self):
        g = sou_generate(6, 10, 4)
        est = complement_contribution_estimator(g, 2, np.random.default_rng(0))
        assert est.evaluations_used == 2

    def test_odd_budget_rounds_down(self):
        g = sou_generate(6, 10, 4)
        est = complement_contribution_estimator(g, 11, np.random.default_rng(0))
        assert est.evaluations_used == 10

    def test_convergence(self):
        g = sou_generate(8, 15, 5)
        truth = g.exact_shapley_vector()
        est = complement_contribution_estimator(g, 2 * 10**5,
                                                np.random.default_rng(2))
        assert np.abs(est.values - truth).max() < 0.02


class TestOneForAll:
    def test_n3_deterministic_is_exact(self):
        g = sou_generate(3, 6, 9)
        truth = exact_shapley_values(g)
        est = one_for_all_estimator(g, 8, np.random.default_rng(0))
        assert est.values == pytest.approx(truth, abs=1e-12)
        assert est.evaluations_used == 8

    def test_budget_too_small(self):
        g = sou_generate(5, 5, 0)
        with pytest.raises(ValueError):
            one_for_all_estimator(g, 11, np.random.default_rng(0))

    def test_spends_full_budget(self):
        g = sou_generate(8, 10, 0)
        est = one_for_all_estimator(g, 500, np.random.default_rng(0))
        assert est.evaluations_used == 500

    def test_convergence(self):
        g = sou_generate(8, 15, 6)
        truth = g.exact_shapley_vector()
        est = one_for_all_estimator(g, 2 * 10**5, np.random.default_rng(3))
        assert np.abs(est.values - truth).max() < 0.02


class TestKernelShap:
    def test_constraint(self):
        g = sou_generate(8, 15, 7)
        total = g.evaluate(range(8)) - g.evaluate([])
        est = kernelshap_estimator(g, 3000, np.random.default_rng(0))
        assert est.values.sum() == pytest.approx(total, abs=1e-9)

    def test_two_players_exact(self):
        # with two players only singletons can be sampled and the solve
        # returns the exact values whenever the efficiency correction is
        # zero, as for this additive game
        g = SOUGame(2, [[0], [1]], [2.0, 1.0])
        truth = exact_shapley_values(g)
        est = kernelshap_estimator(g, 50, np.random.default_rng(0))
        assert est.values == pytest.approx(truth, abs=1e-9)
        # non-additive two-player games still satisfy the constraint and
        # agree in expectation
        g2 = SOUGame(2, [[0], [0, 1]], [2.0, 1.0])
        truth2 = exact_shapley_values(g2)
        runs = np.array([
            kernelshap_estimator(g2, 2000, np.random.default_rng(s)).values
            for s in range(40)
        ])
        se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
        assert (np.abs(runs.mean(axis=0) - truth2) <= 4 * se + 1e-3).all()

    def test_budget_too_small(self):
        g = sou_generate(6, 10, 0)
        with pytest.raises(ValueError):
            kernelshap_estimator(g, 7, np.random.default_rng(0))

    def test_convergence(self):
        g = sou_generate(8, 15, 8)
        truth = g.exact_shapley_vector()
        est = kernelshap_estimator(g, 4 * 10**5, np.random.default_rng(4))
        assert np.abs(est.values - truth).max() < 0.05


class TestUnbiasedKernelShap:
    def test_gram_diagonal(self):
        for n in (3, 5, 12):
            A = closed_form_gram(n)
            assert (np.diag(A) == 0.5).all()

    def test_gram_off_diagonal_n3(self):
        A = closed_form_gram(3)
        assert A[0, 1] == pytest.approx(1 / 6, abs=1e-14)

    def test_gram_matches_enumeration(self):
        # expectation of the indicator outer product under kernel-weighted
        # size sampling, enumerated directly
        import itertools
        n = 6
        sizes = np.arange(1, n)
        p = 1.0 / (sizes * (n - sizes))
        p = p / p.sum()
        A_ref = np.zeros((n, n))
        for s, ps in zip(sizes, p):
            cnt = math.comb(n, s)
            for S in itertools.combinations(range(n), s):
                v = np.zeros(n)
                v[list(S)] = 1
                A_ref += (ps / cnt) * np.outer(v, v)
        assert closed_form_gram(n) == pytest.approx(A_ref, abs=1e-12)

    def test_small_n_off_diagonal_zero(self):
        A = closed_form_gram(2)
        assert A[0, 1] == 0.0

    def test_constraint_and_convergence(self):
        g = sou_generate(8, 15, 9)
        truth = g.exact_shapley_vector()
        total = g.evaluate(range(8)) - g.evaluate([])
        est = unbiased_kernelshap_estimator(g, 3 * 10**5, np.random.default_rng(5))
        assert est.values.sum() == pytest.approx(total, abs=1e-9)
        assert np.abs(est.values - truth).max() < 0.05


class TestLeverageShap:
    def test_pair_consumption(self):
        g = sou_generate(6, 10, 0)
        est = leverageshap_estimator(g, 101, np.random.default_rng(0))
        assert est.evaluations_used == 2 + 2 * ((101 - 2) // 2)

    def test_constraint(self):
        g = sou_generate(8, 15, 10)
        total = g.evaluate(range(8)) - g.evaluate([])
        est = leverageshap_estimator(g, 2000, np.random.default_rng(0))
        assert est.values.sum() == pytest.approx(total, abs=1e-9)

    def test_convergence(self):
        g = sou_generate(8, 15, 11)
        truth = g.exact_shapley_vector()
        est = leverageshap_estimator(g, 4 * 10**5, np.random.default_rng(6))
        assert np.abs(est.values - truth).max() < 0.05


class TestGroupSum:
    def test_all_players(self):
        g = sou_generate(6, 10, 12)
        est = permutation_estimator(g, 70, np.random.default_rng(0))
        assert group_sum(est, range(6)) == pytest.approx(est.values.sum())

    def test_empty(self):
        g = sou_generate(6, 10, 12)
        est = permutation_estimator(g, 70, np.random.default_rng(0))
        assert group_sum(est, []) == 0.0

    def test_mod_group_matches_closed_form(self):
        g = sou_generate(8, 15, 13)
        truth = g.exact_shapley_vector()
        est = permutation_estimator(g, 10**5, np.random.default_rng(0))
        members = [i for i in range(8) if i % 4 == 0]
        assert group_sum(est, members) == pytest.approx(
            truth[members].sum(), abs=0.05
        )

    def test_out_of_range(self):
        g = sou_generate(6, 10, 12)
        est = permutation_estimator(g, 70, np.random.default_rng(0))
        with pytest.raises(ValueError):
            group_sum(est, [0, 6])


class TestConstrainedSolve:
    def test_identity_zero_b(self):
        x = solve_constrained_ls(np.eye(4), np.zeros(4), 4.0)
        assert x == pytest.approx(np.ones(4))

    def test_identity_general_b(self):
        b = np.array([1.0, 2.0, -1.0])
        total = 5.0
        x = solve_constrained_ls(np.eye(3), b, total)
        assert x == pytest.approx(b - (b.sum() - total) / 3)

    def test_kkt_residual(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        A = M @ M.T + np.eye(5)
        b = rng.normal(size=5)
        total = 2.5
        x = solve_constrained_ls(A, b, total)
        assert x.sum() == pytest.approx(total, abs=1e-10)
        # stationarity: residual of the gradient must lie along the all-ones
        # constraint normal
        grad = A @ x - b
        centered = grad - grad.mean()
        assert np.abs(centered).max() < 1e-10

    def test_singular_ridge_fallback(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0  # rank deficient, ridge saves the solve
        x = solve_constrained_ls(A, np.zeros(3), 3.0)
        assert np.isfinite(x).all()
        assert x.sum() == pytest.approx(3.0, rel=1e-6)

    def test_hopeless_matrix(self):
        A = np.full((3, 3), np.nan)
        with pytest.raises(NumericError):
            solve_constrained_ls(A, np.zeros(3), 1.0)

    def test_infinite_matrix(self):
        A = np.eye(3)
        A[1, 2] = A[2, 1] = np.inf
        with pytest.raises(NumericError):
            solve_constrained_ls(A, np.zeros(3), 1.0)

    def test_nan_moment_vector(self):
        with pytest.raises(NumericError):
            solve_constrained_ls(np.eye(3), np.array([0.0, np.nan, 1.0]), 1.0)

    def test_indefinite_matrix(self):
        # Not positive definite even with the ridge: one negative eigenvalue.
        with pytest.raises(NumericError):
            solve_constrained_ls(np.diag([1.0, -1.0, 1.0]), np.zeros(3), 1.0)

    @staticmethod
    def _cho_reference(A, b, total):
        n = len(b)
        for attempt, mat in enumerate((A, A + 1e-10 * np.eye(n))):
            try:
                factor = scipy.linalg.cho_factor(mat, lower=True)
                break
            except np.linalg.LinAlgError:
                if attempt == 1:
                    raise
        x0 = scipy.linalg.cho_solve(factor, b)
        y = scipy.linalg.cho_solve(factor, np.ones(n))
        return x0 - y * ((x0.sum() - total) / y.sum())

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_matches_cholesky_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            M = rng.normal(size=(n, n))
            A = M @ M.T / n + 0.1 * np.eye(n)
            b = rng.normal(size=n)
            total = float(rng.normal())
            ref = self._cho_reference(A, b, total)
            x = solve_constrained_ls(A, b, total)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_ridge_fallback_matches_cholesky_reference(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        b = np.array([0.5, -1.0, 2.0])
        ref = self._cho_reference(A, b, 3.0)
        x = solve_constrained_ls(A, b, 3.0)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBudgetHonesty:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 12), name=st.sampled_from(sorted(BASELINE_ESTIMATORS)),
           extra=st.integers(0, 400), interval=st.none() | st.integers(1, 50),
           k=st.none() | st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_random_configs(self, n, name, extra, interval, k, seed, kernel_rows):
        g = sou_generate(n, n, seed)
        counted = kernel_rows(g)
        budget = min_baseline_budget(name, n) + extra
        groups = None if k is None else [list(range(i, n, k)) for i in range(min(k, n))]
        est = BASELINE_ESTIMATORS[name](g, budget, np.random.default_rng(seed),
                                        groups=groups, checkpoint_interval=interval)
        used = est.evaluations_used
        assert used == predicted_baseline_evaluations(name, n, budget) == counted.rows
        assert used <= budget
        if interval is None or groups is None:
            assert est.curves is None
        else:
            assert set(est.curves) == set(range(len(groups)))
            for curve in est.curves.values():
                assert list(curve.evaluations()) == list(range(interval, used + 1, interval))

    @pytest.mark.parametrize("name", sorted(BASELINE_ESTIMATORS))
    def test_minimum_budget_is_the_estimators_own(self, name):
        g = sou_generate(6, 10, 1)
        fn = BASELINE_ESTIMATORS[name]
        need = min_baseline_budget(name, 6)
        with pytest.raises(ValueError, match="minimum"):
            fn(g, need - 1, np.random.default_rng(0))
        est = fn(g, need, np.random.default_rng(0))
        assert est.evaluations_used == predicted_baseline_evaluations(name, 6, need)


class TestCheckpointInterval:
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("interval", [0, -5])
    @pytest.mark.parametrize("name", sorted(BASELINE_ESTIMATORS))
    def test_interval_below_one(self, name, interval, grouped, kernel_rows):
        g = sou_generate(6, 10, 1)
        counted = kernel_rows(g)
        groups = [[0, 1, 2], [3, 4, 5]] if grouped else None
        with pytest.raises(ValueError, match="checkpoint interval must be >= 1"):
            BASELINE_ESTIMATORS[name](g, 100, np.random.default_rng(0),
                                      groups=groups, checkpoint_interval=interval)
        assert counted.rows == 0


class TestGroups:
    @pytest.mark.parametrize("bad", [[-1], [6]], ids=["negative", "too_large"])
    @pytest.mark.parametrize("name", sorted(BASELINE_ESTIMATORS))
    def test_bad_group_rejected_before_evaluating(self, name, bad, kernel_rows):
        # Parsed as group_sum parses a group, before any evaluation.
        g = sou_generate(6, 10, 1)
        counted = kernel_rows(g)
        with pytest.raises(ValueError, match="out of range"):
            BASELINE_ESTIMATORS[name](g, 100, np.random.default_rng(0),
                                      groups=[[0, 1], bad], checkpoint_interval=10)
        assert counted.rows == 0


class TestOnePlayer:
    """At n = 1 the methods that need two players refuse to run."""

    @pytest.mark.parametrize("name", sorted(BASELINE_ESTIMATORS))
    def test_one_player(self, name, kernel_rows):
        g = SizeOnlyGame(1, SIZE_UTILITIES["linear"])
        counted = kernel_rows(g)
        fn = BASELINE_ESTIMATORS[name]
        if name in ("permutation", "group_testing", "complement_contribution"):
            est = fn(g, 20, np.random.default_rng(0))
            assert est.evaluations_used == predicted_baseline_evaluations(name, 1, 20)
            if name != "group_testing":
                assert est.values == pytest.approx([1.0])
            return
        with pytest.raises(ValueError, match="n >= 2"):
            fn(g, 20, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n >= 2"):
            min_baseline_budget(name, 1)
        assert counted.rows == 0


class TestDeterminismAndCurves:
    def test_same_seed_same_values(self):
        for name, fn in BASELINE_ESTIMATORS.items():
            g1 = sou_generate(7, 12, 19)
            g2 = sou_generate(7, 12, 19)
            a = fn(g1, 400, np.random.default_rng(11))
            b = fn(g2, 400, np.random.default_rng(11))
            assert (a.values == b.values).all(), name

    def test_group_curves_recorded(self):
        groups = [(0, 4), (1, 5), (2, 6), (3, 7)]
        for name, fn in BASELINE_ESTIMATORS.items():
            g = sou_generate(8, 12, 23)
            est = fn(g, 2000, np.random.default_rng(0),
                     groups=groups, checkpoint_interval=200)
            assert set(est.curves) == {0, 1, 2, 3}, name
            curve = est.curves[2]
            assert len(curve) >= 9
            assert curve.final_estimate() == pytest.approx(
                group_sum(est, groups[2]), abs=1e-9
            )
