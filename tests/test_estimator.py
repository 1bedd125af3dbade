import itertools
import math
import tracemalloc

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


def _frozen_cell_by_cell(game, members, config, rng, pair_game):
    """The engine as it ran before cells were batched: one kernel call per
    grid cell, two per paired cell and one per endpoint, each cell's
    estimate added as soon as it is scored. Kept as the reference that the
    batched engine must match bit for bit."""
    from groupshapley.combinatorics import (sample_paired_tuples,
                                            sample_subsets_with_intersection,
                                            size_term_weights)
    from groupshapley.exact import _family_masks
    from groupshapley.metrics import Recorder

    def mean_and_variance(values):
        m = len(values)
        mean = values.sum() / m
        if m < 2:
            return float(mean), 0.0
        dev = values - mean
        return float(mean), float(dev @ dev) / ((m - 1) * m)

    n = game.n
    members = np.unique(np.asarray(list(members), dtype=np.intp))
    s0 = len(members)
    recorder = Recorder(config.checkpoint_interval)
    u_full = game.evaluate(range(n))
    u_empty = game.evaluate([])
    used = 2
    running = (s0 / n) * (u_full - u_empty)
    recorder.update(used, running)
    per_size = np.zeros(n - 1)
    variance_total = 0.0
    alpha0 = s0 / n
    for s in range(1, n):
        term = 0.0
        if s < config.size_threshold:
            lo, weights = size_term_weights(n, s0, s)
            cells = list(enumerate(weights, start=lo))
        else:
            cells = [(None, (n / (n - 1)) * alpha0 * (1 - alpha0))]
        for s1, weight in cells:
            if s1 is None:
                m = config.pair_samples
                with_out, z1, z2 = sample_paired_tuples(rng, n, members, s - 1, None, m)
                with_in = with_out.copy()
                with_in[np.arange(m), z1] = True
                with_out[np.arange(m), z2] = True
                mean, mean_var = mean_and_variance(
                    pair_game.evaluate_masks(with_in) - pair_game.evaluate_masks(with_out))
                rows = 2 * m
            else:
                family = math.comb(s0, s1) * math.comb(n - s0, s - s1)
                if config.exhaustive_small_sizes and family <= config.grid_samples:
                    mean = float(game.evaluate_masks(_family_masks(n, members, s, s1)).mean())
                    mean_var, rows = 0.0, family
                else:
                    rows = config.grid_samples
                    mean, mean_var = mean_and_variance(game.evaluate_masks(
                        sample_subsets_with_intersection(rng, n, members, s, s1, rows)))
            used += rows
            term += weight * mean
            variance_total += weight**2 * mean_var
            recorder.update(used, running + term)
        per_size[s - 1] = term
        running += term
    return running, per_size, math.sqrt(variance_total), used, \
        [c[:2] for c in recorder.curve.checkpoints]


def _ridge_game(rows, seed, p=4, test_rows=8):
    rng = np.random.default_rng(seed)
    X, Xt = rng.normal(size=(rows, p)), rng.normal(size=(test_rows, p))
    beta = rng.normal(size=p)
    return RegressionGame(X, X @ beta + 0.5 * rng.normal(size=rows),
                          Xt, Xt @ beta + 0.5 * rng.normal(size=test_rows), lam=1.0)


_FROZEN_GAMES = {
    "sou16": lambda: sou_generate(16, 64, 7),
    "sou64": lambda: sou_generate(64, 300, 2),
    "size_only13": lambda: SizeOnlyGame(13, SIZE_UTILITIES["sqrt"]),
    "ridge16": lambda: _ridge_game(16, 3),
    "ridge11": lambda: _ridge_game(11, 5, p=2),
}

_FROZEN_CONFIGS = {
    "grid_and_paired": dict(size_threshold=4, grid_samples=9, pair_samples=7,
                            checkpoint_interval=13),
    "exhaustive": dict(size_threshold=6, grid_samples=40, pair_samples=5,
                       exhaustive_small_sizes=True, checkpoint_interval=11),
    "all_paired": dict(size_threshold=1, grid_samples=1, pair_samples=12,
                       checkpoint_interval=9),
    "all_grid": dict(size_threshold=10**3, grid_samples=6, pair_samples=1,
                     checkpoint_interval=50),
}


def _frozen_and_batched(game, members, config, seed):
    cfg = EstimatorConfig(**config)
    cfg.size_threshold = min(cfg.size_threshold, game.n)
    want = _frozen_cell_by_cell(game, members, cfg, np.random.default_rng(seed), game)
    got = estimate_group_value(game, members, cfg, rng=np.random.default_rng(seed))
    return want, (got.value, got.per_size_terms, got.std_error, got.evaluations_used,
                  [c[:2] for c in got.curve.checkpoints])


class TestBatchedMatchesCellByCell:
    """Batching the cells into few kernel calls changes no output where the
    kernel is batch-invariant: value, per-size terms, standard error,
    evaluations and every curve point equal those of the frozen cell-by-cell
    loop."""

    @pytest.mark.parametrize("config", sorted(_FROZEN_CONFIGS))
    @pytest.mark.parametrize("name", sorted(_FROZEN_GAMES))
    def test_games_and_configs(self, name, config):
        game = _FROZEN_GAMES[name]()
        for seed, members in enumerate(([0, 3, 5], [1], list(range(1, game.n, 2)))):
            want, got = _frozen_and_batched(game, members, _FROZEN_CONFIGS[config], seed)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2:] == want[2:]

    def test_wide_game(self):
        # n = 1 024: each paired cell (64 rows, 2^16 entries) fills a kernel
        # call on its own, and the grid cells share calls.
        config = dict(size_threshold=3, grid_samples=8, pair_samples=32,
                      checkpoint_interval=4096)
        want, got = _frozen_and_batched(sou_generate(1024, 32, 4), range(0, 1024, 4),
                                        config, 9)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2:] == want[2:]

    @pytest.mark.parametrize("p, rows", [(2, 16), (3, 16), (3, 20), (5, 20)])
    def test_ridge_within_rounding(self, p, rows):
        # A BLAS may pick the ridge kernel's summation order by row count, so
        # these shapes are compared within rounding.
        game = _ridge_game(rows, 3, p=p)
        for config in _FROZEN_CONFIGS.values():
            want, got = _frozen_and_batched(game, [0, 3, 5], config, 1)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-15)
            assert got[2] == pytest.approx(want[2], rel=1e-12, abs=1e-15)
            assert got[3] == want[3]
            assert [e for e, _ in got[4]] == [e for e, _ in want[4]]
            assert [v for _, v in got[4]] == pytest.approx([v for _, v in want[4]],
                                                           rel=1e-12, abs=1e-15)


def test_kernel_calls_of_a_run(kernel_rows):
    # The benchmark's ridge shape (n = 16, 4 groups, budget 2 000): the two
    # endpoints, then one call for the run's 459 cell rows.
    from groupshapley.bench import fgsv_config_for

    game = _ridge_game(16, 3)
    cfg = fgsv_config_for(16, 4, 500, {"name": "fgsv"})
    counted = kernel_rows(game)
    est = estimate_group_value(game, [0, 4, 8, 12], cfg, rng=np.random.default_rng(0))
    assert counted.calls == 3
    assert counted.rows == est.evaluations_used == 461


def test_wide_runs_footprint():
    # Four runs at n = 1 024 (d = 32), one per mod-4 group: a kernel call
    # holds one paired cell, both halves in one array, and a batch of grid
    # cells is copied into one array only when it has more than one cell.
    game = sou_generate(1024, 32, 5)
    cfg = EstimatorConfig(size_threshold=10, grid_samples=32, pair_samples=64)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        for g in range(4):
            estimate_group_value(game, range(g, 1024, 4), cfg, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def _frozen_predicted_evaluations(n, s0, config):
    """The evaluation count as read off the size plan cell by cell, weights
    included, before the count took the grid cells from the overlap support."""
    if s0 == 0:
        return 0
    if s0 == n:
        return 2
    used = 2
    for s, cells in _size_plan(n, s0, config.size_threshold):
        for s1, _ in cells:
            if s1 is None:
                used += 2 * config.pair_samples
                continue
            family = math.comb(s0, s1) * math.comb(n - s0, s - s1)
            enumerate_family = config.exhaustive_small_sizes and family <= config.grid_samples
            used += family if enumerate_family else config.grid_samples
    return used


def test_predicted_evaluations_matches_plan_count():
    rng = np.random.default_rng(24)
    configs = 0
    for n in (2, 3, 5, 8, 13, 16, 21, 40, 64, 100):
        for s0 in sorted({1, n // 3, n // 2, n - 1} - {0}):
            for threshold in sorted({1, 2, 4, 10, n - 1, n, n + 3} - {0}):
                for exhaustive in (False, True):
                    for _ in range(4):
                        cfg = EstimatorConfig(
                            size_threshold=threshold,
                            grid_samples=int(rng.integers(1, 400)),
                            pair_samples=int(rng.integers(1, 60)),
                            exhaustive_small_sizes=exhaustive)
                        assert predicted_evaluations(n, s0, cfg) == \
                            _frozen_predicted_evaluations(n, s0, cfg), (n, s0, cfg)
                        configs += 1
    assert configs > 1000
