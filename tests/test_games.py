import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from groupshapley.estimator import (
    EstimatorConfig,
    estimate_group_value,
    predicted_evaluations,
)
from groupshapley.exact import (
    _ComboGame,
    _MaskTransformGame,
    _SymmetricPairGame,
    _reverse_players,
)
from groupshapley.games import (
    Game,
    IntersectionSizeGame,
    NullAugmentedGame,
    RegressionGame,
    SIZE_UTILITIES,
    SOUGame,
    SizeOnlyGame,
    UnsupportedGameError,
    _exact_limbs,
    game_from_config,
    load_regression_csv,
    sou_generate,
)


def brute_force_sv(game, i):
    """Direct weighted-marginal enumeration, the slow reference."""
    n = game.n
    others = [j for j in range(n) if j != i]
    total = 0.0
    for r in range(n):
        for S in itertools.combinations(others, r):
            w = (math.factorial(r) * math.factorial(n - r - 1)
                 / math.factorial(n))
            total += w * (game.evaluate(list(S) + [i]) - game.evaluate(list(S)))
    return total


def _every_game(n):
    """One game of every type on n >= 4 players, by name, each with whether its
    kernel is bitwise batch-invariant. Regression is not: it sums through
    BLAS, which picks its accumulation order by the row count."""
    size_only = SizeOnlyGame(n, SIZE_UTILITIES["log1p"])
    sou = sou_generate(n, 25, 9)
    games = {
        "sou": (sou, True),
        "size_only": (size_only, True),
        "intersection": (IntersectionSizeGame(
            n, [1, n - 1], lambda s1, s: math.sqrt(s1 + 1) / (s + 1)), True),
        "regression": (_toy_regression(n), False),
        "null_augmented": (NullAugmentedGame(SizeOnlyGame(n, SIZE_UTILITIES["sqrt"]), 3),
                           True),
    }
    # The axiom checker's witness games, over two invariant bases.
    for tag, base, other, bitwise in [
        ("size_only", size_only, SizeOnlyGame(n, SIZE_UTILITIES["cubic"]), True),
        ("sou", sou, sou_generate(n, 25, 10), True),
    ]:
        games[f"transform_{tag}"] = (_MaskTransformGame(base, _reverse_players), bitwise)
        games[f"combo_{tag}"] = (_ComboGame([(0.7, base), (-1.3, other)]), bitwise)
        games[f"symmetric_{tag}"] = (_SymmetricPairGame(base, [0, 2], [1, 3]), bitwise)
    return games


def _snapshot(value):
    """A copy of ``value`` that later changes to it do not reach: arrays are
    copied and containers rebuilt; other values are kept as they are."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_snapshot(v) for v in value)
    return value


def _same_state(a, b) -> bool:
    """Same keys, equal arrays (dtype included) and equal or identical
    other values, compared through dicts, lists and tuples."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same_state(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_state, a, b))
    return a is b or a == b


class TestEvaluate:
    def test_size_only(self):
        g = SizeOnlyGame(4, lambda s: float(s))
        assert g.evaluate([0, 2]) == 2.0

    def test_unanimity_met(self):
        g = SOUGame(3, [[0, 1]], [1.0])
        assert g.evaluate([0, 1, 2]) == 1.0

    def test_unanimity_unmet(self):
        g = SOUGame(3, [[0, 1]], [1.0])
        assert g.evaluate([0]) == 0.0

    def test_out_of_range(self):
        g = SizeOnlyGame(4, lambda s: float(s))
        with pytest.raises(ValueError):
            g.evaluate([0, 4])
        with pytest.raises(ValueError):
            g.evaluate([-1])

    def test_duplicates_forbidden(self):
        g = SizeOnlyGame(4, lambda s: float(s))
        with pytest.raises(ValueError):
            g.evaluate([1, 1])

    def test_counter_exactness(self, kernel_rows):
        # A single evaluation reaches the kernel as one row, a batch as its rows.
        g = SOUGame(3, [[0, 1]], [1.0])
        counted = kernel_rows(g)
        for k in range(1, 6):
            g.evaluate([0])
            assert counted.rows == k
        g.evaluate_masks(np.zeros((7, 3), dtype=bool))
        assert counted.rows == 12

    def test_purity(self):
        g = sou_generate(6, 15, 42)
        a = g.evaluate([0, 3, 5])
        b = g.evaluate([0, 3, 5])
        assert a == b

    def test_evaluation_leaves_game_unchanged(self):
        # A game holds only its definition. The null-augmented game is left
        # out: its rng advances with every padded row by design.
        masks = _random_masks(6, 40, np.random.default_rng(4))
        for name, (g, _) in _every_game(6).items():
            if name == "null_augmented":
                continue
            before = _snapshot(vars(g))
            g.evaluate_masks(masks)
            assert _same_state(before, vars(g)), name

    @pytest.mark.parametrize("shape", [(5,), (9,), (1, 9), (3, 4), (2, 3, 5), ()])
    def test_mask_shape_rejected_before_counting(self, shape, kernel_rows):
        for name, (g, _) in _every_game(5).items():
            counted = kernel_rows(g)
            with pytest.raises(ValueError, match="shape"):
                g.evaluate_masks(np.ones(shape, dtype=bool))
            assert counted.rows == 0, name

    @pytest.mark.parametrize("shape", [(9,), (4,), (1, 5), ()])
    def test_single_mask_shape_rejected_before_counting(self, shape, kernel_rows):
        for name, (g, _) in _every_game(5).items():
            counted = kernel_rows(g)
            with pytest.raises(ValueError, match="shape"):
                g.evaluate_mask(np.ones(shape, dtype=bool))
            assert counted.rows == 0, name

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar(self, batch, seed):
        # A batch scores each row as that row alone and as any row subset.
        rng = np.random.default_rng(seed)
        masks = _random_masks(7, batch, rng)
        idx = rng.permutation(batch)[: rng.integers(0, batch + 1)]
        for name, (g, bitwise) in _every_game(7).items():
            whole = g.evaluate_masks(masks)
            rows = np.array([g.evaluate_mask(m) for m in masks], dtype=float)
            part = g.evaluate_masks(masks[idx])
            if bitwise:
                assert np.array_equal(rows, whole), name
                assert np.array_equal(part, whole[idx]), name
            else:
                # Relative to the batch's scale: the combination witness
                # can cancel to near zero.
                atol = 1e-13 * np.abs(whole).max(initial=1.0)
                np.testing.assert_allclose(rows, whole, rtol=1e-13, atol=atol, err_msg=name)
                np.testing.assert_allclose(part, whole[idx], rtol=1e-13, atol=atol,
                                           err_msg=name)

    @pytest.mark.parametrize("kind", [
        "sou",
        pytest.param("regression", marks=pytest.mark.xfail(strict=True, reason=(
            "the regression kernel ends in BLAS gemm sums, whose accumulation "
            "order depends on the row count, so a one-row batch can differ "
            "from the same row in a larger batch in the last bit"))),
    ])
    def test_one_row_batches_bitwise(self, kind):
        rng = np.random.default_rng(0)
        if kind == "sou":
            g, masks = sou_generate(64, 4096, 0), _random_masks(64, 500, rng)
        else:
            g, masks = _toy_regression(16), _random_masks(16, 2000, rng)
        rows = np.array([g.evaluate_mask(m) for m in masks])
        assert np.array_equal(rows, g.evaluate_masks(masks))


class TestSouGenerate:
    def test_single_subset_ranges(self):
        g = sou_generate(4, 1, 123)
        assert 1 <= len(g.subsets[0]) <= 4
        assert 0.0 <= g.coefficients[0] <= 0.75

    def test_benchmark_scale_configuration(self):
        g = sou_generate(64, 64 * 64, 5)
        assert len(g.subsets) == 64 * 64
        assert all(1 <= len(a) <= 64 for a in g.subsets)

    def test_determinism(self):
        a = sou_generate(10, 30, 77)
        b = sou_generate(10, 30, 77)
        assert all((x == y).all() for x, y in zip(a.subsets, b.subsets))
        assert (a.coefficients == b.coefficients).all()

    def test_coefficient_is_mean_weight(self):
        g = sou_generate(9, 40, 3)
        for a, alpha in zip(g.subsets, g.coefficients):
            assert alpha == pytest.approx(np.mean((a % 4) / 4), abs=1e-15)

    def test_numpy_integer_seed_serializes_as_seed(self):
        # A numpy-integer seed in a sou spec seeds the generator exactly as
        # the equal Python int does.
        g = game_from_config({"type": "sou", "n": 8, "d": 4, "seed": np.int64(3)})
        ref = sou_generate(8, 4, 3)
        _same_game(g, ref)
        assert all((x == y).all() for x, y in zip(g.subsets, ref.subsets))
        assert (g.coefficients == ref.coefficients).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            sou_generate(1, 5, 0)
        with pytest.raises(ValueError):
            sou_generate(5, 0, 0)

    @pytest.mark.parametrize("args, digest", [
        ((64, 4096, 13), "bf0bd4e3fe731825c9462acd11d5803a236b22ff6e9a0945ea925d32eb854f9b"),
        ((1024, 32, 7), "c03684f0aba6a68a1d7a2ef1205ea89a6b79b18c5fe70c689f0384d188bc7875"),
    ])
    def test_games_are_pinned(self, args, digest):
        # The subsets and the coefficient bits of the benchmark's game shapes
        # are part of every result; their digests are pinned.
        g = sou_generate(*args)
        h = hashlib.sha256()
        h.update(np.array([len(a) for a in g.subsets], dtype="<i8").tobytes())
        h.update(np.concatenate(g.subsets).astype("<i8").tobytes())
        h.update(g.coefficients.astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_construction_peak_memory(self):
        # The in-place table build peaks at ~4.5 MiB here; one transposed
        # copy of the 1 MiB table would pass the bound.
        tracemalloc.start()
        try:
            sou_generate(64, 4096, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


DBL_MAX = sys.float_info.max


def _random_sou(n, d, rng, coefficients="uniform"):
    """SOU game with a mix of small and arbitrary-size subsets, so random
    coalitions contain some of them. Coefficients are uniform on [0, 1),
    ``signed`` (normal, a fifth of them zero) or ``wide`` (signed, magnitudes
    2^-300 to 2^300, which needs more than two limbs)."""
    subsets = []
    for j in range(d):
        top = n if j % 2 else min(n, 3)
        size = int(rng.integers(1, top + 1))
        subsets.append(rng.choice(n, size=size, replace=False))
    if coefficients == "uniform":
        coefs = rng.random(d)
    elif coefficients == "signed":
        coefs = rng.standard_normal(d) * (rng.random(d) >= 0.2)
    else:
        coefs = rng.choice([-1.0, 1.0], d) * rng.random(d) * 2.0 ** rng.integers(-300, 300, d)
    return SOUGame(n, subsets, coefs)


def _fsum_reference(g, masks):
    """The correctly rounded sum of the coefficients of the subsets each row
    contains, by index-set containment."""
    contained = np.zeros((len(masks), len(g.subsets)), dtype=bool)
    for j, a in enumerate(g.subsets):
        contained[:, j] = masks[:, a].all(axis=1)
    return np.array([math.fsum(g.coefficients[row]) for row in contained])


def _random_masks(n, batch, rng):
    """Rows of uniform density for about half the batch and near-full density
    for the rest, with the empty and the full coalition first and last when
    the batch has room."""
    density = rng.random((batch, 1)) ** np.where(rng.random((batch, 1)) < 0.5, 1, 0.1)
    masks = rng.random((batch, n)) < density
    if batch >= 1:
        masks[0] = False
    if batch >= 2:
        masks[-1] = True
    return masks


class TestSouKernel:
    """The byte-table, size-sorted, blocked kernel against ``math.fsum`` of the
    coefficients each row collects, bit for bit: its limb sums are exact, so
    neither the block, the batch, the row order nor the BLAS may change a
    value. The shapes straddle the edges of a player byte (n = 7, 8, 9) and
    of a subset word (d = 64, 65)."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 130])
    @pytest.mark.parametrize("batch", [0, 1, 255, 256, 257, 600])
    @settings(max_examples=4, deadline=None)
    @given(d=st.sampled_from([1, 5, 40, 64, 65, 4096]),
           coefficients=st.sampled_from(["uniform", "signed", "wide"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_references(self, n, batch, d, coefficients, seed):
        rng = np.random.default_rng(seed)
        g = _random_sou(n, d, rng, coefficients)
        masks = _random_masks(n, batch, rng)
        got = g._values(masks)
        assert got.shape == (batch,)
        assert np.array_equal(got, _fsum_reference(g, masks))

    def test_wide_spread_over_blocks(self):
        rng = np.random.default_rng(4)
        g = _random_sou(64, 4096, rng, "wide")
        masks = _random_masks(64, 400, rng)
        assert len(g._scales) >= 3 and len(masks) > 10 * g._block_rows
        assert np.array_equal(g._values(masks), _fsum_reference(g, masks))

    def test_ties_across_limbs(self):
        masks = np.array(list(itertools.product([False, True], repeat=6)))
        for coefs in (
            # 1 + 2^-53 lies halfway between two doubles; the parts far below
            # it decide the rounding, which a sum of the limbs high to low
            # misses.
            [1.0, 2.0**-53, 2.0**-150, -(2.0**-200), -(2.0**-53), 3 * 2.0**-54],
            # DBL_MAX with 1.0, a subnormal and parts near its last bit: every
            # sum is finite, and {DBL_MAX} and {DBL_MAX, 1.0} are DBL_MAX.
            [DBL_MAX, 1.0, 5e-324, -(2.0**971), 2.0**969, -1.0],
        ):
            g = SOUGame(6, [[j] for j in range(6)], coefs)
            assert len(g._scales) >= 3
            assert np.array_equal(g._values(masks), _fsum_reference(g, masks))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("coefs, overflowing, limbs", [
        # Only {0, 1}, with or without the tiny 3, sums past DBL_MAX. With 2,
        # its top limb part overflows on the way to 2^1024 - 2^972.
        pytest.param([2.0**1023, 2.0**1023, -(2.0**972), 2.0**-1000], [{0, 1}, {0, 1, 3}],
                     42, id="coefs0-overflowing0"),
        # {0, 1, 2, 3} is 2^1024 - 7 * 2^972, below DBL_MAX; {0, 1} with one
        # of 2 and 3 is not. Two limbs: their sum overflows in every row that
        # holds 0 and 1, and the finite one takes the exact path.
        pytest.param([2.0**1023, 2.0**1023 + 2.0**977, -(2.0**976 + 7 * 2.0**971),
                      -(2.0**976 + 7 * 2.0**971)], [{0, 1}, {0, 1, 2}, {0, 1, 3}],
                     2, id="coefs1-overflowing1"),
    ])
    def test_overflowing_row_leaves_others_alone(self, sign, coefs, overflowing, limbs):
        coefs = [sign * c for c in coefs]
        g = SOUGame(4, [[j] for j in range(4)], coefs)
        masks = np.array(list(itertools.product([False, True], repeat=4)))
        assert len(g._scales) == limbs
        got = g.evaluate_masks(masks)
        overflows = np.array([set(np.flatnonzero(m)) in overflowing for m in masks])
        assert np.array_equal(got[overflows], [sign * math.inf] * len(overflowing))
        for mask, value in zip(masks[~overflows], got[~overflows]):
            row = [c for c, inside in zip(coefs, mask) if inside]
            assert value == g.evaluate_mask(mask) == float(sum(map(Fraction, row)))
            # Smallest first, no partial sum of math.fsum passes DBL_MAX.
            assert value == math.fsum(sorted(row, key=abs))

    def test_two_limb_rows_past_overflow_take_the_exact_sum(self):
        # Two limbs near DBL_MAX: a row whose top limb part reaches 2^1024
        # while its low part brings it back below DBL_MAX must not come out
        # as inf. Every row is checked against the exact rational sum.
        rng = np.random.default_rng(3)
        tops = [[2.0**1023, 2.0**1023 + 2.0**992, -(2.0**992 + 2.0**980)]]
        tops += [list(rng.choice([-1.0, 1.0], 4) * (1 + rng.random(4)) * 2.0**1022
                      * 2.0 ** -rng.integers(0, 40, 4)) for _ in range(20)]
        masks = np.array(list(itertools.product([False, True], repeat=4)))
        for coefs in tops:
            g = SOUGame(len(coefs), [[j] for j in range(len(coefs))], coefs)
            assert len(g._scales) == 2
            rows = masks[:, : len(coefs)]
            for mask, value in zip(rows, g.evaluate_masks(rows)):
                exact = sum(Fraction(c) for c, inside in zip(coefs, mask) if inside)
                try:
                    expected = float(exact)
                except OverflowError:
                    expected = math.inf if exact > 0 else -math.inf
                assert value == expected, (coefs, mask)
        # The first set's full coalition, 2^1024 - 2^980, is such a row.
        full = SOUGame(3, [[0], [1], [2]], tops[0]).evaluate([0, 1, 2])
        assert full == float(2**1024 - 2**980)

    def test_grid_starts_at_the_lowest_coefficient(self):
        # Large coefficients need no more limbs than small ones.
        for e in (-500, 500):
            limbs, scales = _exact_limbs(np.array([2.0**e, 3 * 2.0**e]))
            assert len(scales) <= 2
            assert np.array_equal(limbs.T @ scales, [2.0**e, 3 * 2.0**e])

    def test_benchmark_games_take_the_two_limb_step(self):
        # Nonzero sou_generate coefficients are means of (i mod 4)/4, within
        # [1/(4n), 3/4], so the benchmark's games never reach the per-row exact sum.
        for n, d in ((64, 4096), (1024, 32), (32, 256), (128, 32)):
            for seed in np.random.SeedSequence(0).generate_state(3):
                assert len(sou_generate(n, d, int(seed))._scales) <= 2

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_permutation(self, seed):
        # Few distinct popcounts over many blocks: the popcount order breaks
        # its many ties by position, and no value may depend on that.
        rng = np.random.default_rng(seed)
        g = _random_sou(64, 4096, rng, "signed")
        sizes = rng.choice([2, 3, 40, 63], size=400)
        masks = rng.random((400, 64)).argsort(axis=1) < sizes[:, None]
        assert len(masks) > 10 * g._block_rows
        got = g.evaluate_masks(masks)
        perm = rng.permutation(len(masks))
        assert np.array_equal(g.evaluate_masks(masks[perm]), got[perm])
        assert np.array_equal(got, _fsum_reference(g, masks))

    def test_memory_stays_within_blocks(self):
        # No (batch, d) array: the old kernel peaked at ~74 MB here.
        g = sou_generate(64, 4096, 0)
        masks = _random_masks(64, 2000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            g.evaluate_masks(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            SOUGame(3, [[0], [1, 2]], [1.0, value])

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 130])
    def test_empty_and_full_coalitions(self, n):
        g = _random_sou(n, 50, np.random.default_rng(n))
        empty, full = g.evaluate_masks(np.array([[False] * n, [True] * n]))
        assert empty == 0.0
        assert full == pytest.approx(g.coefficients.sum(), rel=1e-12)


class TestSharedGame:
    """Concurrent runs share one game, which holds no per-run state: each run
    reports the rows its own plan sends."""

    def test_threads_see_the_same_values(self):
        # 8 threads on one game, with frequent thread switches.
        g = sou_generate(70, 200, 8)
        masks = np.random.default_rng(1).random((5, 70)) < 0.7
        want = g._values(masks)
        rounds, errors = 200, []

        def work():
            for _ in range(rounds):
                if not np.array_equal(g.evaluate_masks(masks), want):
                    errors.append("values")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_estimate_unaffected_by_concurrent_evaluations(self, kernel_rows):
        g = sou_generate(12, 40, 3)
        members = [0, 4, 5, 9]
        # 2 000 rows per paired size: the 8 paired sizes' 16 000 rows of 12
        # players pass the batch bound of 2^16 mask entries twice.
        cfg = EstimatorConfig(size_threshold=4, grid_samples=6, pair_samples=1000,
                              checkpoint_interval=7)
        alone = estimate_group_value(g, members, cfg, rng=np.random.default_rng(2))

        # Before each batch of the run, another thread evaluates the same game
        # once, so other rows reach its kernel between every two batches.
        masks = np.random.default_rng(3).random((3, 12)) < 0.5
        kernel, turn, back = g._values, threading.Semaphore(0), threading.Semaphore(0)
        results, other, order = [], [], []

        def values(m):
            if threading.current_thread() is runner:
                turn.release()
                assert back.acquire(timeout=60)
                order.append("run")
            return kernel(m)

        def run():
            results.append(estimate_group_value(
                g, members, cfg, rng=np.random.default_rng(2)))

        def evaluate_between_batches():
            while turn.acquire(timeout=60) and runner.is_alive():
                g.evaluate_masks(masks)
                other.append(len(masks))
                order.append("other")
                back.release()

        g._values = values
        counted = kernel_rows(g)
        runner = threading.Thread(target=run)
        helper = threading.Thread(target=evaluate_between_batches)
        helper.start()
        runner.start()
        runner.join(timeout=60)
        turn.release()
        helper.join(timeout=60)
        assert not runner.is_alive() and not helper.is_alive()

        (shared,) = results
        # The two endpoints, then three calls for the 9 grid cells and the 8
        # paired sizes, each call after one of the other thread's.
        assert order == ["other", "run"] * (2 + 3)
        assert shared.value == alone.value
        assert np.array_equal(shared.per_size_terms, alone.per_size_terms)
        assert shared.std_error == alone.std_error
        assert [c[:2] for c in shared.curve.checkpoints] == \
            [c[:2] for c in alone.curve.checkpoints]
        assert shared.evaluations_used == predicted_evaluations(12, 4, cfg)
        assert counted.rows == shared.evaluations_used + sum(other)


class TestSouClosedForm:
    def test_two_member_unanimity(self):
        g = SOUGame(3, [[0, 1]], [1.0])
        assert g.exact_shapley_vector()[0] == 0.5
        assert g.exact_shapley_vector()[2] == 0.0

    def test_two_subsets(self):
        g = SOUGame(2, [[0], [0, 1]], [0.5, 1.0])
        assert g.exact_shapley_vector()[0] == pytest.approx(1.0)
        assert brute_force_sv(g, 0) == pytest.approx(1.0, abs=1e-12)

    def test_against_brute_force(self):
        g = sou_generate(6, 12, 31)
        closed = g.exact_shapley_vector()
        for i in range(6):
            assert brute_force_sv(g, i) == pytest.approx(closed[i], abs=1e-12)

    def test_null_player(self):
        g = SOUGame(5, [[0, 1], [2]], [2.0, 1.0])
        assert g.exact_shapley_vector()[4] == 0.0

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            SOUGame(3, [[]], [1.0])
        with pytest.raises(ValueError):
            SOUGame(3, [[0, 0]], [1.0])
        with pytest.raises(ValueError):
            SOUGame(3, [[3]], [1.0])
        with pytest.raises(ValueError):
            SOUGame(3, [[0]], [1.0, 2.0])


class TestAugmentation:
    def test_unsupported_game(self):
        g = sou_generate(5, 5, 0)
        with pytest.raises(UnsupportedGameError):
            NullAugmentedGame(g, 3)

    def test_noop_above_threshold(self):
        g = SizeOnlyGame(6, lambda s: float(s) ** 2)
        wrapped = NullAugmentedGame(g, 3, rng=np.random.default_rng(0))
        assert wrapped.evaluate([0, 1, 2, 4]) == 16.0

    def test_padding_below_threshold(self):
        g = SizeOnlyGame(6, lambda s: float(s) ** 2)
        wrapped = NullAugmentedGame(g, 3, rng=np.random.default_rng(0))
        assert wrapped.evaluate([0]) == 9.0  # padded up to 3 items

    def test_threshold_boundary(self):
        g = SizeOnlyGame(6, lambda s: float(s))
        wrapped = NullAugmentedGame(g, 1, rng=np.random.default_rng(0))
        assert wrapped.evaluate([]) == 1.0
        assert wrapped.evaluate([2]) == 1.0

    def test_b_larger_than_n_allowed(self):
        g = SizeOnlyGame(4, lambda s: float(s))
        wrapped = NullAugmentedGame(g, 7, rng=np.random.default_rng(0))
        assert wrapped.evaluate([0, 1, 2, 3]) == 7.0

    def test_counts_on_base_counter(self, kernel_rows):
        # Padded and pass-through rows each reach the base kernel once.
        g = SizeOnlyGame(6, lambda s: float(s))
        counted = kernel_rows(g)
        wrapped = NullAugmentedGame(g, 3, rng=np.random.default_rng(0))
        wrapped.evaluate([0])
        masks = np.zeros((4, 6), dtype=bool)
        masks[0] = True
        wrapped.evaluate_masks(masks)
        assert counted.rows == 5

    def test_regression_null_sampler_pads_rows(self):
        game = _toy_regression()
        Xn, yn = np.ones((2, 3)), np.zeros(2)
        wrapped = NullAugmentedGame(game, 3, null_sampler=lambda rng, k: (Xn[:k], yn[:k]),
                                    rng=np.random.default_rng(0))
        expected = game._fit_and_score(np.vstack([game.X_train[[4]], Xn]),
                                       np.concatenate([game.y_train[[4]], yn]))
        assert wrapped.evaluate([4]) == expected

    def test_batch_matches_row_by_row_draws(self, kernel_rows):
        # Pass-through rows are scored as one batch; padded rows must still
        # take their null draws from the RNG in row order.
        game = _toy_regression()
        counted = kernel_rows(game)
        masks = _random_masks(20, 60, np.random.default_rng(2))
        masks[1:30:3] = False
        masks[1:30:3, :2] = True  # 2 rows, padded up to 4
        batched = NullAugmentedGame(game, 4, rng=np.random.default_rng(7))
        looped = NullAugmentedGame(game, 4, rng=np.random.default_rng(7))
        got = batched.evaluate_masks(masks)
        want = [looped.evaluate_mask(m) for m in masks]
        padded = masks.sum(axis=1) < 4
        assert padded.sum() >= 10
        assert np.array_equal(got[padded], np.array(want)[padded])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert counted.rows == 2 * len(masks)

    def test_regression_empty_set_self_consistent(self):
        game = _toy_regression()
        means = []
        for seed in (1, 2):
            wrapped = NullAugmentedGame(
                game, 6, null_sampler=game.default_null_sampler,
                rng=np.random.default_rng(seed),
            )
            vals = [wrapped.evaluate([]) for _ in range(150)]
            means.append((np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))))
        (m1, se1), (m2, se2) = means
        assert np.isfinite(m1)
        assert abs(m1 - m2) < 4 * math.hypot(se1, se2)


def _toy_regression(n=20, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = np.array([1.0, -2.0, 0.5])
    y = X @ beta + 0.1 * rng.normal(size=n)
    Xt = rng.normal(size=(15, p))
    yt = Xt @ beta + 0.1 * rng.normal(size=15)
    return RegressionGame(X, y, Xt, yt, lam=0.01)


class TestRegressionGame:
    def test_empty_set_is_null_utility(self):
        g = _toy_regression()
        assert g.evaluate([]) == g.null_utility
        assert g.null_utility == -float(np.var(g.y_test))

    def test_small_coalition_fallback(self):
        g = _toy_regression()
        assert g.evaluate([0, 1]) == g.null_utility  # 2 rows < 3 predictors

    def test_full_fit_beats_null(self):
        g = _toy_regression()
        assert g.evaluate(range(20)) > g.null_utility

    def test_validation(self):
        for lam in (-1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="ridge penalty must be a finite number"):
                RegressionGame(np.zeros((4, 2)), np.zeros(4), np.zeros((3, 2)),
                               np.zeros(3), lam=lam)

    @pytest.mark.parametrize("which", ["X_train", "y_train", "X_test", "y_test"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, which, bad):
        data = {"X_train": np.zeros((4, 2)), "y_train": np.zeros(4),
                "X_test": np.zeros((3, 2)), "y_test": np.zeros(3)}
        data[which].flat[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            RegressionGame(**data)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_row_counts_must_match(self, split):
        # A length-1 response would otherwise broadcast over every row.
        y_train, y_test = np.zeros(4), np.zeros(3)
        if split == "train":
            y_train = y_train[:1]
        else:
            y_test = y_test[:1]
        with pytest.raises(ValueError, match="one response per predictor row"):
            RegressionGame(np.zeros((4, 2)), y_train, np.zeros((3, 2)), y_test)

    def test_column_counts_must_match(self):
        with pytest.raises(ValueError, match="column count"):
            RegressionGame(np.zeros((4, 2)), np.zeros(4), np.zeros((3, 3)), np.zeros(3))


def _row_by_row(game, masks):
    """The per-row reference: one ``_fit_and_score`` per mask, the null
    utility below ``p`` rows."""
    p = game.num_predictors
    return np.array([
        game.null_utility if m.sum() < max(p, 1)
        else game._fit_and_score(game.X_train[m], game.y_train[m])
        for m in masks
    ])


class TestRegressionKernel:
    """The batched Gram-and-solve kernel against the per-row fit it replaced."""

    @pytest.mark.parametrize("batch", ["zero", "one", "below", "at", "above"])
    # No shrinking: each example evaluates up to a few thousand masks row by
    # row, so shrinking a failure would take minutes.
    @settings(max_examples=3, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(n=st.integers(1, 12), p=st.integers(1, 4), lam=st.sampled_from([0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_row_by_row(self, batch, n, p, lam, seed):
        rng = np.random.default_rng(seed)
        game = RegressionGame(rng.normal(size=(n, p)), rng.normal(size=n),
                              rng.normal(size=(5, p)), rng.normal(size=5), lam=lam)
        step = game._block_rows
        size = {"zero": 0, "one": 1, "below": step - 1, "at": step,
                "above": step + 1}[batch]
        masks = _random_masks(n, size, rng)
        masks[-2:] = True  # full coalitions on both sides of a block boundary
        # Masks with exactly p rows, where p <= n.
        for i in range(2, min(size, 6)):
            masks[i] = False
            masks[i, rng.choice(n, size=min(p, n), replace=False)] = True
        got = game._values(masks)
        want = _row_by_row(game, masks)
        assert got.shape == (size,)
        small = masks.sum(axis=1) < p
        assert np.array_equal(got[small], np.full(small.sum(), game.null_utility))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_single_mask_routes_through_kernel(self, kernel_rows):
        g = _toy_regression()
        counted = kernel_rows(g)
        masks = np.zeros((3, 20), dtype=bool)
        masks[1, :2] = True
        masks[2, :] = True
        got = [g.evaluate_mask(m) for m in masks]
        assert got[:2] == [g.null_utility] * 2
        assert got[2] == pytest.approx(_row_by_row(g, masks[2:])[0], rel=1e-12)
        assert counted.rows == 3

    def test_singular_grams_use_lstsq(self):
        # lam = 0 and rows that repeat a few axis-aligned vectors: a coalition
        # whose rows miss an axis has an exactly singular Gram matrix.
        base = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0], [3.0, 0, 0]])
        X = base[np.arange(12) % 4]
        y = np.arange(12, dtype=float) % 5 - 2.0
        rng = np.random.default_rng(3)
        game = RegressionGame(X, y, rng.normal(size=(6, 3)), rng.normal(size=6), lam=0.0)
        masks = _random_masks(12, 300, rng)
        masks[1] = False
        masks[1, [0, 1, 3, 4]] = True  # four rows, none on the third axis
        assert np.linalg.matrix_rank(X[masks[1]]) == 2
        got = game._values(masks)
        assert np.array_equal(got, _row_by_row(game, masks))
        assert got[1] == -np.mean(
            (game.X_test @ np.linalg.lstsq(X[masks[1]], y[masks[1]], rcond=None)[0]
             - game.y_test) ** 2)


class TestDistinctKeyGames:
    """Size-only and intersection games call their utility once per distinct
    key and give the per-row loop's outputs bit for bit."""

    def test_size_only(self):
        calls = []

        def utility(s):
            calls.append(s)
            return SIZE_UTILITIES["log1p"](s)

        g = SizeOnlyGame(9, utility)
        masks = _random_masks(9, 200, np.random.default_rng(0))
        got = g._values(masks)
        sizes = masks.sum(axis=1)
        assert sorted(calls) == sorted(set(sizes.tolist()))
        loop = np.array([SIZE_UTILITIES["log1p"](int(s)) for s in sizes], dtype=float)
        assert np.array_equal(got, loop)
        assert g._values(np.zeros((0, 9), dtype=bool)).shape == (0,)

    def test_intersection_profile(self):
        calls = []

        def profile(s1, s):
            calls.append((s1, s))
            return math.sqrt(s1 + 1) / (s + 1)

        g = IntersectionSizeGame(9, [1, 4, 7], profile)
        masks = _random_masks(9, 200, np.random.default_rng(1))
        got = g._values(masks)
        keys = list(zip(masks[:, [1, 4, 7]].sum(axis=1).tolist(),
                        masks.sum(axis=1).tolist()))
        assert sorted(calls) == sorted(set(keys))
        loop = np.array([math.sqrt(a + 1) / (b + 1) for a, b in keys], dtype=float)
        assert np.array_equal(got, loop)
        assert g._values(np.zeros((0, 9), dtype=bool)).shape == (0,)


class TestLoadRegressionCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_split_arithmetic(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n1,1,2\n")
        g = load_regression_csv(path, 0.5, 0.01, seed=0)
        assert g.n == 2
        assert len(g.y_test) == 2

    def test_constant_response(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,5\n2,5\n3,5\n4,5\n")
        g = load_regression_csv(path, 0.5, 0.01, seed=0)
        assert g.null_utility == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_regression_csv(tmp_path / "nope.csv", 0.5, 0.01, seed=0)

    def test_non_numeric_cell(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\nx,3\n4,5\n6,7\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_regression_csv(path, 0.5, 0.01, seed=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,y\n1,2\n3,4\n{cell},5\n6,7\n")
        with pytest.raises(ValueError, match=":4: non-finite"):
            load_regression_csv(path, 0.5, 0.01, seed=0)

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="columns"):
            load_regression_csv(path, 0.5, 0.01, seed=0)

    def test_too_few_rows(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="2 rows"):
            load_regression_csv(path, 0.4, 0.01, seed=0)

    def test_deterministic_split(self, tmp_path):
        rows = "\n".join(f"{i},{i % 3},{2 * i}" for i in range(12))
        path = self._write(tmp_path, "a,b,y\n" + rows + "\n")
        g1 = load_regression_csv(path, 0.25, 0.01, seed=9)
        g2 = load_regression_csv(path, 0.25, 0.01, seed=9)
        assert (g1.X_train == g2.X_train).all()
        assert (g1.y_test == g2.y_test).all()


def _same_game(a, b):
    """Same type, same player count, bitwise the same utility everywhere."""
    assert type(a) is type(b) and a.n == b.n
    masks = np.random.default_rng(a.n).random((64, a.n)) < 0.5
    assert np.array_equal(a.evaluate_masks(masks), b.evaluate_masks(masks))


class TestSerialization:
    """Each game spec builds the same game as the direct constructor."""

    def test_sou_round_trip(self):
        g = game_from_config({"type": "sou", "n": 8, "d": 10, "seed": 55})
        ref = sou_generate(8, 10, 55)
        _same_game(g, ref)
        assert all((x == y).all() for x, y in zip(g.subsets, ref.subsets))
        assert (g.coefficients == ref.coefficients).all()

    def test_sou_explicit_spec_matches_constructor(self):
        spec = {"type": "sou_explicit", "n": 4, "subsets": [[0, 2], [1]],
                "coefficients": [1.5, -0.25]}
        g = game_from_config(spec)
        _same_game(g, SOUGame(4, [[0, 2], [1]], [1.5, -0.25]))
        assert g.evaluate([0, 2]) == 1.5

    def test_size_only_spec_matches_constructor(self):
        g = game_from_config({"type": "size_only", "n": 5, "name": "cubic"})
        _same_game(g, SizeOnlyGame(5, SIZE_UTILITIES["cubic"]))
        assert g.evaluate([0, 1]) == 8.0

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            game_from_config({"type": "banzhaf"})

    @pytest.mark.parametrize("spec", [
        {"type": "sou", "n": 8.9, "d": 4, "seed": 1},
        {"type": "sou", "n": 8, "d": 4.7, "seed": 1},
        {"type": "sou", "n": 8, "d": 4, "seed": 1.5},
        {"type": "sou", "n": True, "d": 4, "seed": 1},
        {"type": "size_only", "n": "12", "name": "cubic"},
        {"type": "sou_explicit", "n": 4.0, "subsets": [[0]], "coefficients": [1.0]},
        {"type": "regression_csv", "path": "unread.csv", "test_fraction": 0.5,
         "lambda": 1.0, "seed": "0"},
    ], ids=["n_float", "d_float", "seed_float", "n_bool", "n_string", "explicit_n_float",
            "regression_seed_string"])
    def test_non_integer_fields_raise(self, spec):
        with pytest.raises(ValueError, match="must be an integer"):
            game_from_config(spec)

    def test_numpy_integer_sizes_accepted(self):
        g = game_from_config({"type": "sou", "n": np.int64(8), "d": np.uint16(10),
                              "seed": 55})
        _same_game(g, sou_generate(8, 10, 55))
        assert type(g.n) is int


class TestIntersectionSizeGame:
    def test_profile_evaluation(self):
        g = IntersectionSizeGame(6, [0, 1, 2], lambda s1, s: 10 * s1 + s)
        assert g.evaluate([0, 3]) == 12.0
        assert g.evaluate([0, 1, 4, 5]) == 24.0


def test_base_game_is_abstract():
    g = Game(3)
    with pytest.raises(NotImplementedError):
        g.evaluate([0])
