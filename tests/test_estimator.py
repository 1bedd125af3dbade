import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from groupshapley.estimator import (
    EstimatorConfig,
    _size_plan,
    estimate_group_value,
    estimate_group_value_augmented,
    estimate_mean_utility,
    estimate_mean_utility_gap,
    choose_parameters,
    predicted_evaluations,
)
from groupshapley.exact import (
    exact_faithful_group_shapley,
    exact_mean_utility,
    exact_size_term,
)
from groupshapley.games import (
    IntersectionSizeGame,
    RegressionGame,
    SIZE_UTILITIES,
    SizeOnlyGame,
    sou_generate,
)


class TestMeanUtilityEstimate:
    def test_constant_integrand(self):
        g = IntersectionSizeGame(8, [0, 1, 2], lambda s1, s: float(s1))
        rng = np.random.default_rng(0)
        for s, s1 in [(4, 1), (5, 3), (2, 0)]:
            assert estimate_mean_utility(g, [0, 1, 2], s, s1, 7, rng) == float(s1)

    def test_exhaustive_equals_exact(self):
        g = sou_generate(7, 15, 5)
        rng = np.random.default_rng(0)
        members = [1, 3, 5]
        for s, s1 in [(3, 1), (4, 2), (5, 3)]:
            got = estimate_mean_utility(
                g, members, s, s1, 10**6, rng, exhaustive=True
            )
            assert got == pytest.approx(
                exact_mean_utility(g, members, s, s1), abs=1e-14
            )

    def test_infeasible(self):
        g = sou_generate(6, 5, 0)
        with pytest.raises(ValueError):
            estimate_mean_utility(g, [0, 1], 2, 3, 5, np.random.default_rng(0))

    def test_clt_band(self):
        # unbiasedness: the sample mean stays within 4 sigma-hat bands of the
        # exact family mean in nearly every trial
        g = sou_generate(8, 20, 23)
        members = [0, 2, 5]
        s, s1, m1 = 4, 2, 32
        mu = exact_mean_utility(g, members, s, s1)
        from groupshapley.exact import _family_masks
        family_vals = g.evaluate_masks(_family_masks(8, np.array(members), s, s1))
        sigma = float(family_vals.std())
        rng = np.random.default_rng(7)
        hits = 0
        trials = 1000
        for _ in range(trials):
            est = estimate_mean_utility(g, members, s, s1, m1, rng)
            if abs(est - mu) <= 4 * sigma / math.sqrt(m1):
                hits += 1
        assert hits >= 0.99 * trials


class TestGapEstimate:
    def test_overlap_counting_game(self):
        g = IntersectionSizeGame(9, [0, 1, 2, 3], lambda s1, s: float(s1))
        rng = np.random.default_rng(1)
        assert estimate_mean_utility_gap(g, [0, 1, 2, 3], 4, 2, 11, rng) == 1.0

    def test_size_only_game(self):
        g = SizeOnlyGame(9, SIZE_UTILITIES["cubic"])
        rng = np.random.default_rng(1)
        assert estimate_mean_utility_gap(g, [0, 1, 2], 4, 1, 11, rng) == 0.0

    def test_clt_band_against_mu_difference(self):
        g = sou_generate(8, 20, 29)
        members = [1, 4, 6]
        s, s1, m2 = 4, 1, 32
        target = (exact_mean_utility(g, members, s + 1, s1 + 1)
                  - exact_mean_utility(g, members, s + 1, s1))
        rng = np.random.default_rng(3)
        samples = [
            estimate_mean_utility_gap(g, members, s, s1, m2, rng)
            for _ in range(1000)
        ]
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
        assert abs(mean - target) <= 4 * se

    def test_consumes_two_evals_per_sample(self, kernel_rows):
        g = sou_generate(8, 10, 0)
        counted = kernel_rows(g)
        estimate_mean_utility_gap(g, [0, 1], 3, 1, 25, np.random.default_rng(0))
        assert counted.rows == 50


class TestEstimateGroupValue:
    def test_exhaustive_threshold_equals_exact(self, kernel_rows):
        rng = np.random.default_rng(55)
        for _ in range(5):
            n = int(rng.integers(5, 9))
            g = sou_generate(n, 2 * n, int(rng.integers(10**6)))
            s0 = int(rng.integers(1, n))
            members = rng.choice(n, size=s0, replace=False)
            cfg = EstimatorConfig(
                size_threshold=n, grid_samples=10**9, pair_samples=1,
                exhaustive_small_sizes=True,
            )
            counted = kernel_rows(g)
            est = estimate_group_value(g, members, cfg, rng=rng)
            assert est.evaluations_used == counted.rows
            assert est.value == pytest.approx(
                exact_faithful_group_shapley(g, members), abs=1e-9
            )

    def test_enumerated_terms_equal_exact_size_terms(self):
        # Engine and oracle weight the same conditional means with the same
        # size-term weights, so enumerated runs agree bit for bit.
        for n, seed, members in ((7, 3, [0, 2, 5]), (8, 11, [1, 2, 3, 6]), (9, 4, [4])):
            g = sou_generate(n, 3 * n, seed)
            cfg = EstimatorConfig(size_threshold=n, grid_samples=10**9, pair_samples=1,
                                  exhaustive_small_sizes=True)
            est = estimate_group_value(g, members, cfg, rng=np.random.default_rng(0))
            for s in range(1, n):
                assert est.per_size_terms[s - 1] == exact_size_term(g, members, s)

    @pytest.mark.parametrize("members", [[], range(6)], ids=["empty", "full"])
    def test_config_validated_before_shortcuts(self, members):
        g = sou_generate(6, 10, 4)
        bad = EstimatorConfig(size_threshold=0, grid_samples=0, pair_samples=0)
        with pytest.raises(ValueError):
            estimate_group_value(g, members, bad, rng=np.random.default_rng(0))

    def test_full_group_short_circuit(self):
        g = sou_generate(6, 10, 4)
        cfg = EstimatorConfig(size_threshold=3, grid_samples=5, pair_samples=5)
        est = estimate_group_value(g, range(6), cfg, rng=np.random.default_rng(0))
        assert est.value == pytest.approx(g.evaluate(range(6)) - g.evaluate([]))
        assert est.evaluations_used == 2

    def test_empty_group(self):
        g = sou_generate(6, 10, 4)
        cfg = EstimatorConfig(size_threshold=3, grid_samples=5, pair_samples=5)
        est = estimate_group_value(g, [], cfg, rng=np.random.default_rng(0))
        assert est.value == 0.0
        assert est.evaluations_used == 0

    def test_budget_formula_exact(self, kernel_rows):
        rng = np.random.default_rng(88)
        for _ in range(10):
            n = int(rng.integers(4, 14))
            g = sou_generate(n, n, int(rng.integers(10**6)))
            s0 = int(rng.integers(1, n))
            members = rng.choice(n, size=s0, replace=False)
            cfg = EstimatorConfig(
                size_threshold=int(rng.integers(1, n + 1)),
                grid_samples=int(rng.integers(1, 9)),
                pair_samples=int(rng.integers(1, 9)),
            )
            counted = kernel_rows(g)
            est = estimate_group_value(g, members, cfg, rng=rng)
            used = counted.rows
            assert est.evaluations_used == used
            assert used == predicted_evaluations(n, s0, cfg)

    def test_budget_formula_exact_when_exhaustive(self, kernel_rows):
        # An enumerated family spends its size, not grid_samples, and the
        # plan predicts that too: the first three configs spend 380, 346 and
        # 65 536 evaluations, not 482, 1 210 and 63 000 002.
        g = sou_generate(16, 64, 7)
        configs = [(16, [0, 3, 5, 11], 4, 32), (16, [0, 3, 5, 11], 3, 200),
                   (16, [0, 3, 5, 11], 16, 10**6)]
        rng = np.random.default_rng(89)
        for _ in range(12):
            n = int(rng.integers(4, 14))
            members = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            configs.append((n, members, int(rng.integers(1, n + 1)),
                            int(rng.integers(1, 300))))
        for n, members, threshold, grid in configs:
            game = g if n == 16 else sou_generate(n, n, int(rng.integers(10**6)))
            cfg = EstimatorConfig(size_threshold=threshold, grid_samples=grid,
                                  pair_samples=8, exhaustive_small_sizes=True)
            counted = kernel_rows(game)
            est = estimate_group_value(game, members, cfg, rng=rng)
            assert est.evaluations_used == predicted_evaluations(n, len(members), cfg) \
                == counted.rows

    def test_determinism(self):
        g1 = sou_generate(9, 18, 6)
        g2 = sou_generate(9, 18, 6)
        cfg = EstimatorConfig(size_threshold=4, grid_samples=20, pair_samples=20,
                              checkpoint_interval=50)
        a = estimate_group_value(g1, [0, 3, 7], cfg, rng=np.random.default_rng(5))
        b = estimate_group_value(g2, [0, 3, 7], cfg, rng=np.random.default_rng(5))
        assert a.value == b.value
        assert (a.per_size_terms == b.per_size_terms).all()
        assert [c[:2] for c in a.curve.checkpoints] == \
            [c[:2] for c in b.curve.checkpoints]

    def test_largest_size_is_estimated(self):
        # At s = n-1 the paired step's R is every player but z1 and z2, so the
        # row takes one of s0 * (n - s0) values; its mean is the exact term.
        g = sou_generate(6, 10, 2)
        members, m = [0, 1], 4000
        cfg = EstimatorConfig(size_threshold=1, grid_samples=1, pair_samples=m)
        est = estimate_group_value(g, members, cfg, rng=np.random.default_rng(0))
        weight = (6 / 5) * (2 / 6) * (4 / 6)
        diffs = [g.evaluate(set(range(6)) - {z2}) - g.evaluate(set(range(6)) - {z1})
                 for z1 in members for z2 in range(2, 6)]
        assert est.per_size_terms[4] != 0.0
        assert est.per_size_terms[4] == pytest.approx(
            exact_size_term(g, members, 5), abs=4 * weight * np.std(diffs) / math.sqrt(m))

    def test_curve_records_running_sum(self):
        g = sou_generate(8, 16, 10)
        cfg = EstimatorConfig(size_threshold=3, grid_samples=30, pair_samples=30,
                              checkpoint_interval=20)
        est = estimate_group_value(g, [0, 1, 2], cfg, rng=np.random.default_rng(1))
        assert len(est.curve) >= est.evaluations_used // 20
        assert est.curve.final_estimate() == pytest.approx(est.value, abs=1e-12)

    def test_config_validation(self):
        g = sou_generate(5, 5, 0)
        bad = EstimatorConfig(size_threshold=9, grid_samples=1, pair_samples=1)
        with pytest.raises(ValueError):
            estimate_group_value(g, [0], bad, rng=np.random.default_rng(0))

    def test_member_index_validation(self):
        g = sou_generate(5, 5, 0)
        cfg = EstimatorConfig(size_threshold=2, grid_samples=1, pair_samples=1)
        with pytest.raises(ValueError):
            estimate_group_value(g, [0, 9], cfg)

    def test_grid_std_error_matches_spread(self):
        # All sizes on the grid: the reported standard error must track the
        # spread of the estimates across seeds.
        g = sou_generate(10, 30, 1)
        cfg = EstimatorConfig(size_threshold=10, grid_samples=16, pair_samples=1)
        runs = [
            estimate_group_value(g, [0, 1, 2], cfg, rng=np.random.default_rng(seed))
            for seed in range(300)
        ]
        sd = np.std([r.value for r in runs], ddof=1)
        rms_se = math.sqrt(np.mean([r.std_error**2 for r in runs]))
        assert 0.8 <= sd / rms_se <= 1.25

    def test_exhaustive_grid_has_zero_std_error(self):
        g = sou_generate(7, 15, 5)
        cfg = EstimatorConfig(size_threshold=7, grid_samples=10**6, pair_samples=1,
                              exhaustive_small_sizes=True)
        est = estimate_group_value(g, [1, 3, 5], cfg, rng=np.random.default_rng(0))
        assert est.std_error == 0.0

    def test_convergence_in_samples(self):
        # The estimator is unbiased, so the error falls with the spread
        # across seeds, as 1/sqrt(m); the mean absolute error must not rise.
        g = sou_generate(10, 30, 14)
        members = [0, 2, 4, 6]
        truth = exact_faithful_group_shapley(g, members)
        samples = (8, 64, 512)
        spreads, errors = [], []
        for m in samples:
            cfg = EstimatorConfig(size_threshold=4, grid_samples=m, pair_samples=m)
            runs = np.array([
                estimate_group_value(g, members, cfg,
                                     rng=np.random.default_rng(1000 + r)).value
                for r in range(64)
            ])
            spreads.append(runs.std(ddof=1))
            errors.append(np.mean(np.abs(runs - truth)))
        for m, sd in zip(samples[1:], spreads[1:]):
            ratio = (sd / spreads[0]) / math.sqrt(samples[0] / m)
            assert 0.5 < ratio < 2.0, (m, spreads)
        assert errors[-1] <= errors[0], errors


class TestChooseParameters:
    def test_threshold_example(self):
        cfg = choose_parameters(100, 30, epsilon=0.5, delta=0.1, upsilon=1.0)
        assert cfg.size_threshold == 2

    def test_degenerate_alpha_pair_samples(self):
        for s0 in (0, 100):
            cfg = choose_parameters(100, s0, epsilon=0.3, delta=0.1, upsilon=1.0)
            assert cfg.pair_samples == 1

    def test_budget_cap_deflation(self):
        free = choose_parameters(50, 10, epsilon=0.3, delta=0.1, upsilon=1.0)
        capped = choose_parameters(50, 10, epsilon=0.3, delta=0.1, upsilon=1.0,
                                   budget_cap=20000)
        assert predicted_evaluations(50, 10, capped) <= 20000
        assert capped.grid_samples <= free.grid_samples
        assert capped.pair_samples <= free.pair_samples

    def test_budget_cap_never_overspent(self):
        # Proportional deflation alone leaves the floors of one sample and the
        # paired rows' cost over the cap (52 grid samples, 660 evaluations).
        capped = choose_parameters(100, 10, epsilon=0.3, delta=0.1, upsilon=1.0,
                                   budget_cap=500)
        assert predicted_evaluations(100, 10, capped) <= 500
        assert capped.grid_samples >= 1 and capped.pair_samples >= 1
        least = predicted_evaluations(
            100, 10, EstimatorConfig(size_threshold=capped.size_threshold,
                                     grid_samples=1, pair_samples=1))
        with pytest.raises(ValueError, match=f"below the minimum {least} "):
            choose_parameters(100, 10, epsilon=0.3, delta=0.1, upsilon=1.0, budget_cap=50)

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_parameters(10, 3, epsilon=0.0, delta=0.1, upsilon=1.0)
        with pytest.raises(ValueError):
            choose_parameters(10, 3, epsilon=0.3, delta=1.5, upsilon=1.0)
        with pytest.raises(ValueError):
            choose_parameters(10, 3, epsilon=0.3, delta=0.1, upsilon=0.0)


class TestAugmentedEstimator:
    def test_size_only_exact(self):
        ubar = SIZE_UTILITIES["saturating2"]
        g = SizeOnlyGame(10, ubar)
        est = estimate_group_value_augmented(
            g, [0, 1, 2, 3], B=5, samples=4, null_sampler=None,
            rng=np.random.default_rng(0),
        )
        assert est.value == pytest.approx((4 / 10) * (ubar(10) - ubar(0)),
                                          abs=1e-12)

    def test_evaluations_follow_all_paired_plan(self, kernel_rows):
        g = SizeOnlyGame(10, SIZE_UTILITIES["cubic"])
        counted = kernel_rows(g)
        est = estimate_group_value_augmented(
            g, [0, 1, 2], B=4, samples=7, null_sampler=None,
            rng=np.random.default_rng(0),
        )
        plan = EstimatorConfig(size_threshold=1, grid_samples=1, pair_samples=7)
        assert est.evaluations_used == counted.rows
        assert est.evaluations_used == predicted_evaluations(10, 3, plan)

    def test_b_one_matches_unaugmented_distribution(self):
        # with B=1 the padding never fires, so a run equals the plain
        # single-pair-regime estimator under the same random stream
        g = SizeOnlyGame(8, SIZE_UTILITIES["cubic"])
        aug = estimate_group_value_augmented(
            g, [0, 1, 2], B=1, samples=6, null_sampler=None,
            rng=np.random.default_rng(9),
        )
        plain = estimate_group_value(
            g, [0, 1, 2],
            EstimatorConfig(size_threshold=1, grid_samples=1, pair_samples=6),
            rng=np.random.default_rng(9),
        )
        assert aug.value == pytest.approx(plain.value, abs=1e-12)

    def test_unsupported_game(self):
        g = sou_generate(6, 6, 0)
        from groupshapley.games import UnsupportedGameError
        with pytest.raises(UnsupportedGameError):
            estimate_group_value_augmented(g, [0, 1], B=3, samples=3,
                                           null_sampler=None)

    def test_regression_self_consistency(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 3))
        beta = np.array([1.0, 0.5, -1.0])
        y = X @ beta + 0.2 * rng.normal(size=16)
        Xt = rng.normal(size=(12, 3))
        yt = Xt @ beta + 0.2 * rng.normal(size=12)
        from groupshapley.games import RegressionGame
        game = RegressionGame(X, y, Xt, yt, lam=0.01)
        results = []
        for seed in (1, 2):
            est = estimate_group_value_augmented(
                game, [0, 1, 2, 3], B=6, samples=200,
                null_sampler=game.default_null_sampler,
                rng=np.random.default_rng(seed),
            )
            results.append(est)
        gap = abs(results[0].value - results[1].value)
        band = 4 * math.hypot(results[0].std_error, results[1].std_error)
        assert gap <= max(band, 1e-3)


def _pair_weight(n, s0):
    ((_, [(s1, weight)]),) = [row for row in _size_plan(n, s0, n - 1) if row[0] == n - 1]
    assert s1 is None
    return weight


class TestExactPairedStep:
    """Each paired row is the exact size term: the plan's weight times the
    mean of U(R ∪ {z1}) - U(R ∪ {z2}) over z1 a member, z2 a non-member and R,
    |R| = s - 1, a subset of the other n - 2 players."""

    @pytest.mark.parametrize("n, seed, members", [
        (3, 1, [2]), (6, 1, [0, 1]), (7, 3, [0, 2, 5]), (8, 11, [1, 2, 3, 6]),
        (8, 4, [0, 1, 2, 3, 4, 5, 7]),
    ])
    def test_enumeration_identity(self, n, seed, members):
        g = sou_generate(n, 3 * n, seed)
        weight = _pair_weight(n, len(members))
        for s in range(1, n):
            diffs = []
            for z1, z2 in itertools.product(members, sorted(set(range(n)) - set(members))):
                rest = sorted(set(range(n)) - {z1, z2})
                for r in itertools.combinations(rest, s - 1):
                    diffs.append(g.evaluate([*r, z1]) - g.evaluate([*r, z2]))
            assert weight * np.mean(diffs) == pytest.approx(
                exact_size_term(g, members, s), abs=1e-12)

    def test_coverage_against_closed_form_truth(self):
        # SOU games have closed-form Shapley values. Over 200 seeds per game
        # the 95% interval must cover the truth at a rate inside the 95%
        # binomial band, and the mean error must sit within 3 standard errors
        # of zero.
        seeds = 200
        low, high = scipy.stats.binom.interval(0.95, seeds, 0.95)
        for n, d, seed, members, threshold, m in (
            (10, 30, 14, [0, 2, 4, 6], 4, 512),
            (12, 36, 5, [1, 6, 10], 3, 256),
            (16, 48, 7, list(range(0, 16, 2)), 5, 256),
        ):
            g = sou_generate(n, d, seed)
            truth = float(g.exact_shapley_vector()[members].sum())
            cfg = EstimatorConfig(size_threshold=threshold, grid_samples=m, pair_samples=m)
            runs = [estimate_group_value(g, members, cfg, rng=np.random.default_rng(r))
                    for r in range(seeds)]
            errors = np.array([r.value - truth for r in runs])
            covered = np.count_nonzero(np.abs(errors) <= 1.96 * np.array(
                [r.std_error for r in runs]))
            assert low <= covered <= high, (n, covered)
            assert abs(errors.mean()) <= 3 * errors.std(ddof=1) / math.sqrt(seeds), n


def _regression_game(n, seed):
    rng = np.random.default_rng(seed)
    X, Xt = rng.normal(size=(n, 2)), rng.normal(size=(5, 2))
    beta = np.array([1.0, -0.5])
    return RegressionGame(X, X @ beta + 0.3 * rng.normal(size=n),
                          Xt, Xt @ beta + 0.3 * rng.normal(size=5), lam=0.1)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["sou", "size_only", "regression"]), n=st.integers(2, 7),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_exhaustive_estimate_equals_exact(kind, n, seed, data):
    # With every size on the grid and every family enumerated, the estimator
    # is the exact faithful group value.
    g = {"sou": lambda: sou_generate(n, 2 * n, seed),
         "size_only": lambda: SizeOnlyGame(n, SIZE_UTILITIES["cubic"]),
         "regression": lambda: _regression_game(n, seed)}[kind]()
    members = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    cfg = EstimatorConfig(size_threshold=n, grid_samples=10**9, pair_samples=1,
                          exhaustive_small_sizes=True)
    est = estimate_group_value(g, members, cfg, rng=np.random.default_rng(seed))
    assert est.std_error == 0.0
    assert est.value == pytest.approx(exact_faithful_group_shapley(g, members),
                                      abs=1e-12)
