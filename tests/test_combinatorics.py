import itertools
import math

import numpy as np
import pytest
import scipy.stats

from groupshapley.baselines import SvEstimate, group_sum
from groupshapley.combinatorics import (
    _TIE_REDRAWS,
    HypergeomParams,
    _check_feasible,
    _select_smallest,
    _split_indices,
    log_binom,
    sample_paired_tuples,
    sample_subsets_with_intersection,
    sample_uniform_subsets,
    size_term_weights,
)
from groupshapley.estimator import (
    EstimatorConfig,
    estimate_group_value,
    estimate_mean_utility,
    estimate_mean_utility_gap,
)
from groupshapley.exact import (
    exact_faithful_group_shapley,
    exact_mean_utility,
    exact_size_term,
    faithful_group_shapley_by_sizes,
)
from groupshapley.games import IntersectionSizeGame, sou_generate


# Reference samplers written without the selection primitive: they draw the
# same keys as the primitive, and the same keys must select the same subsets.

def _reference_words(rng, count, width, bits):
    size = count * width
    per_word = 64 // bits
    dtype = {16: np.uint16, 32: np.uint32}[bits]
    return rng.bit_generator.random_raw(-(-size // per_word)).view(dtype)[:size].reshape(
        count, width).astype(np.int64)


def _reference_keys(rng, count, width, k, pushed=()):
    """The keys the primitive selects from: 16-bit keys for widths up to
    4096, with ``pushed`` columns set to the largest key; then each row whose
    sorted keys tie at its threshold is drawn again from 32-bit keys, until
    none ties. None where no row needs keys."""
    k = np.broadcast_to(np.asarray(k), (count,))
    needs = (k > 0) & (k < width)
    if not needs.any():
        return None if count else np.zeros((0, width), dtype=np.int64)
    rows = np.arange(count)
    bits = 16 if width <= 4096 else 32
    keys = np.empty((count, width), dtype=np.int64)
    while rows.size:
        keys[rows] = _reference_words(rng, len(rows), width, bits)
        for cols in pushed:
            keys[rows, cols[rows]] = (1 << bits) - 1
        ordered = np.sort(keys[rows], axis=1)
        tied = [r for i, r in enumerate(rows)
                if 0 < k[r] < width and ordered[i, k[r] - 1] == ordered[i, k[r]]]
        rows, bits = np.array(tied, dtype=np.intp), 32
    return keys


def _reference_subsets_with_intersection(rng, n, members, s, s1, count):
    members = np.asarray(members, dtype=np.intp)
    _check_feasible(n, len(members), s, s1)
    comp = _split_indices(members, n)
    masks = np.zeros((count, n), dtype=bool)
    rows = np.arange(count)[:, None]
    if s1 > 0:
        chosen = np.argpartition(_reference_keys(rng, count, len(members), s1), s1 - 1,
                                 axis=1)[:, :s1] if s1 < len(members) \
            else np.tile(np.arange(len(members)), (count, 1))
        masks[rows, members[chosen]] = True
    s2 = s - s1
    if s2 > 0:
        chosen = np.argpartition(_reference_keys(rng, count, len(comp), s2), s2 - 1,
                                 axis=1)[:, :s2] if s2 < len(comp) \
            else np.tile(np.arange(len(comp)), (count, 1))
        masks[rows, comp[chosen]] = True
    return masks


def _reference_paired_tuples(rng, n, members, s, s1, count):
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

    # z1 and z2 first, from one draw over the pairs; then each pool's part of
    # S is its smallest keys, with that pool's z pushed past the rest.
    pair = rng.integers(0, s0 * len(comp), size=count)
    i1, i2 = pair // len(comp), pair % len(comp)
    for pool, k, i in ((members, s1, i1), (comp, s - s1, i2)):
        if k > 0:
            keys = _reference_keys(rng, count, len(pool), k, pushed=(i,))
            masks[rows, pool[np.argpartition(keys, k - 1, axis=1)[:, :k]]] = True
    return masks, members[i1], comp[i2]


def _reference_exact_tuples(rng, n, members, s, count):
    members = np.asarray(members, dtype=np.intp)
    comp = _split_indices(members, n)
    pair = rng.integers(0, len(members) * len(comp), size=count)
    z1, z2 = members[pair // len(comp)], comp[pair % len(comp)]
    rows = np.arange(count)
    if s == n - 2:
        masks = np.ones((count, n), dtype=bool)
        masks[rows, z1] = masks[rows, z2] = False
        return masks, z1, z2
    masks = np.zeros((count, n), dtype=bool)
    if s > 0:
        keys = _reference_keys(rng, count, n, s, pushed=(z1, z2))
        masks[rows[:, None], np.argpartition(keys, s - 1, axis=1)[:, :s]] = True
    return masks, z1, z2


def _reference_uniform_subsets(rng, n, s, count):
    masks = np.zeros((count, n), dtype=bool)
    if s == n:
        masks[:] = True
        return masks
    if s == 0:
        return masks
    keys = _reference_keys(rng, count, n, s)
    chosen = np.argpartition(keys, s - 1, axis=1)[:, :s]
    masks[np.arange(count)[:, None], chosen] = True
    return masks


def _reference_ranked_masks(rng, count, width, sizes):
    sizes = np.asarray(sizes)
    keys = _reference_keys(rng, count, width, sizes)
    if keys is None:
        return np.arange(width) < sizes[:, None]
    ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
    return ranks < sizes[:, None]


class TestLogBinom:
    def test_choose_zero(self):
        assert log_binom(5, 0) == 0.0

    def test_four_choose_two(self):
        assert log_binom(4, 2) == pytest.approx(math.log(6), abs=1e-12)

    def test_poker_hands(self):
        assert log_binom(52, 5) == pytest.approx(math.log(2598960), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            log_binom(4, 5)
        with pytest.raises(ValueError):
            log_binom(4, -1)

    def test_large_n_relative_accuracy(self):
        # spot checks against exact integer binomials at larger n
        for n, k in [(500, 7), (10**6, 3), (2000, 1000)]:
            exact = math.log(math.comb(n, k))
            assert log_binom(n, k) == pytest.approx(exact, rel=1e-10)


class TestPmf:
    def test_half_overlap(self):
        p = HypergeomParams(4, 2, 2)
        assert p.pmf(1) == pytest.approx(2 / 3, abs=1e-14)

    def test_no_success_states(self):
        assert HypergeomParams(5, 0, 3).pmf(0) == pytest.approx(1.0, abs=1e-14)

    def test_out_of_support_is_zero(self):
        assert HypergeomParams(4, 2, 2).pmf(3) == 0.0
        assert HypergeomParams(10, 3, 9).pmf(1) == 0.0  # below lower support edge

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HypergeomParams(4, 5, 2)
        with pytest.raises(ValueError):
            HypergeomParams(4, 2, -1)

    def test_normalization_small(self):
        for n in range(1, 51):
            for s0 in range(n + 1):
                for s in range(n + 1):
                    lo, probs = HypergeomParams(n, s0, s).pmf_vector()
                    assert abs(probs.sum() - 1.0) <= 1e-12

    def test_normalization_n200(self):
        n = 200
        for s0 in range(0, n + 1, 17):
            for s in range(0, n + 1, 13):
                lo, probs = HypergeomParams(n, s0, s).pmf_vector()
                assert abs(probs.sum() - 1.0) <= 1e-12

    def test_symmetry_in_s0_and_s(self):
        for n in range(2, 16):
            for s0 in range(n + 1):
                for s in range(n + 1):
                    for s1 in range(min(s, s0) + 1):
                        a = HypergeomParams(n, s0, s).pmf(s1)
                        b = HypergeomParams(n, s, s0).pmf(s1)
                        assert a == pytest.approx(b, abs=1e-14)

    def test_matches_scipy(self):
        for n, s0, s in [(12, 5, 7), (30, 11, 4), (100, 40, 60)]:
            p = HypergeomParams(n, s0, s)
            lo, hi = p.support()
            for s1 in range(lo, hi + 1):
                ref = scipy.stats.hypergeom.pmf(s1, n, s0, s)
                assert p.pmf(s1) == pytest.approx(ref, rel=1e-10)


class TestSizeTermWeights:
    def test_matches_formula_on_support(self):
        n, s0 = 12, 5
        for s in range(1, n):
            lo, w = size_term_weights(n, s0, s)
            p = HypergeomParams(n, s0, s)
            assert (lo, lo + len(w) - 1) == p.support()
            for s1, wj in enumerate(w, start=lo):
                assert wj == pytest.approx(
                    p.pmf(s1) * n / (n - s) * (s1 / s - s0 / n), rel=1e-12, abs=1e-15)

    def test_weights_are_centered(self):
        # E[overlap] = s * s0 / n, so a constant conditional mean contributes 0.
        for n in range(2, 30):
            for s0 in range(n + 1):
                for s in range(1, n):
                    assert abs(size_term_weights(n, s0, s)[1].sum()) <= 1e-12 * n

    @pytest.mark.parametrize("s", [0, 6, -1])
    def test_size_out_of_range(self, s):
        with pytest.raises(ValueError, match="out of range 1..5"):
            size_term_weights(6, 2, s)


class TestSubsetSampler:
    def test_forced_members(self):
        rng = np.random.default_rng(0)
        masks = sample_subsets_with_intersection(rng, 4, np.array([0, 1]), 2, 2, 1)
        assert list(np.flatnonzero(masks[0])) == [0, 1]

    def test_full_set(self):
        rng = np.random.default_rng(0)
        masks = sample_subsets_with_intersection(rng, 4, np.array([0, 1]), 4, 2, 1)
        assert list(np.flatnonzero(masks[0])) == [0, 1, 2, 3]

    def test_infeasible_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_subsets_with_intersection(rng, 4, np.array([0, 1]), 2, 3, 1)

    def test_constraints_hold_in_batch(self):
        rng = np.random.default_rng(3)
        members = np.array([1, 4, 5])
        masks = sample_subsets_with_intersection(rng, 9, members, 4, 2, 500)
        assert masks.shape == (500, 9) and masks.flags.c_contiguous
        assert (masks.sum(axis=1) == 4).all()
        assert (masks[:, members].sum(axis=1) == 2).all()

    def test_uniform_over_family(self):
        # n=6, members {0,1,2}, s=3, s1=1: 3*3=9 equally likely subsets
        rng = np.random.default_rng(7)
        draws = 10**5
        masks = sample_subsets_with_intersection(
            rng, 6, np.array([0, 1, 2]), 3, 1, draws
        )
        keys = masks @ (1 << np.arange(6))
        _, counts = np.unique(keys, return_counts=True)
        assert len(counts) == 9
        freqs = counts / draws
        assert np.abs(freqs - 1 / 9).max() < 0.01
        stat = ((counts - draws / 9) ** 2 / (draws / 9)).sum()
        assert stat < scipy.stats.chi2.ppf(0.999, df=8)


class TestPairedSampler:
    def test_forced_z1(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            masks, z1, z2 = sample_paired_tuples(rng, 3, np.array([0]), 1, 0, 1)
            S = np.flatnonzero(masks[0])
            assert z1[0] == 0
            assert list(S) in ([1], [2])
            assert z2[0] == ({1, 2} - set(S)).pop()

    def test_cardinality_forced(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            masks, z1, z2 = sample_paired_tuples(rng, 4, np.array([0, 1]), 2, 1, 1)
            S = set(np.flatnonzero(masks[0]))
            assert z1[0] in {0, 1} - S
            assert z2[0] in {2, 3} - S
            assert len(S & {0, 1}) == 1
            assert masks.flags.c_contiguous

    def test_empty_member_pool_diagnostic(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="member"):
            sample_paired_tuples(rng, 6, np.array([0, 1]), 3, 2, 1)

    def test_empty_nonmember_pool_diagnostic(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="non-member"):
            sample_paired_tuples(rng, 5, np.array([0, 1]), 4, 1, 1)

    def test_base_subset_marginal_uniform(self):
        # n=6, members {0,1,2}, s=3, s1=1: marginal of S uniform over 9 sets
        rng = np.random.default_rng(11)
        draws = 10**5
        masks, z1, z2 = sample_paired_tuples(
            rng, 6, np.array([0, 1, 2]), 3, 1, draws
        )
        keys = masks @ (1 << np.arange(6))
        _, counts = np.unique(keys, return_counts=True)
        assert len(counts) == 9
        stat = ((counts - draws / 9) ** 2 / (draws / 9)).sum()
        assert stat < scipy.stats.chi2.ppf(0.999, df=8)

    def test_z_draws_uniform_given_subset(self):
        rng = np.random.default_rng(12)
        draws = 6 * 10**4
        members = np.array([0, 1, 2])
        masks, z1, z2 = sample_paired_tuples(rng, 7, members, 2, 1, draws)
        # condition on one base subset and check both z marginals
        keys = masks @ (1 << np.arange(7))
        target = (1 << 0) | (1 << 3)
        sel = keys == target
        assert sel.sum() > 2000
        for zs, pool in ((z1[sel], [1, 2]), (z2[sel], [4, 5, 6])):
            vals, counts = np.unique(zs, return_counts=True)
            assert sorted(vals) == pool
            exp = sel.sum() / len(pool)
            stat = ((counts - exp) ** 2 / exp).sum()
            assert stat < scipy.stats.chi2.ppf(0.999, df=len(pool) - 1)


class TestUniformSubsets:
    def test_sizes(self):
        rng = np.random.default_rng(5)
        for s in range(0, 7):
            masks = sample_uniform_subsets(rng, 6, s, 50)
            assert (masks.sum(axis=1) == s).all()
        sizes = rng.integers(0, 6, 300)
        masks = sample_uniform_subsets(rng, 5, sizes, 300)
        assert masks.shape == (300, 5)
        assert (masks.sum(axis=1) == sizes).all()

    def test_uniformity(self):
        rng = np.random.default_rng(6)
        draws = 4 * 10**4
        masks = sample_uniform_subsets(rng, 5, 2, draws)
        keys = masks @ (1 << np.arange(5))
        _, counts = np.unique(keys, return_counts=True)
        assert len(counts) == 10
        stat = ((counts - draws / 10) ** 2 / (draws / 10)).sum()
        assert stat < scipy.stats.chi2.ppf(0.999, df=9)

        # Per-row sizes: uniform within each size stratum.
        sizes = rng.permutation(np.repeat(np.arange(6), 10**4))
        masks = sample_uniform_subsets(rng, 5, sizes, len(sizes))
        assert (masks.sum(axis=1) == sizes).all()
        keys = masks @ (1 << np.arange(5))
        for s in range(1, 5):
            _, counts = np.unique(keys[sizes == s], return_counts=True)
            family = math.comb(5, s)
            assert len(counts) == family
            exp = 10**4 / family
            stat = ((counts - exp) ** 2 / exp).sum()
            assert stat < scipy.stats.chi2.ppf(0.999, df=family - 1)

    @pytest.mark.parametrize("s", [-1, -3, 6, [0, 6, 2], [3, -1, 0]])
    def test_size_out_of_range(self, s):
        with pytest.raises(ValueError, match="out of range"):
            sample_uniform_subsets(np.random.default_rng(0), 5, s, 3)


def test_overlap_frequencies_match_pmf_small_grid():
    # a cheaper cousin of the acceptance sweep: a handful of parameter
    # triples, 1e5 draws each, chi-square against the exact pmf
    rng = np.random.default_rng(2024)
    draws = 10**5
    for n, s0, s in [(8, 3, 4), (10, 5, 5), (12, 2, 9)]:
        members = np.arange(s0)
        masks = sample_uniform_subsets(rng, n, s, draws)
        overlaps = masks[:, :s0].sum(axis=1)
        params = HypergeomParams(n, s0, s)
        lo, probs = params.pmf_vector()
        counts = np.bincount(overlaps, minlength=lo + len(probs))[lo:]
        expected = probs * draws
        keep = expected >= 5
        stat = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        stat += ((counts[~keep].sum() - expected[~keep].sum()) ** 2
                 / max(expected[~keep].sum(), 1e-9)) if (~keep).any() else 0.0
        df = keep.sum() - 1 + ((~keep).any() and 1 or 0)
        assert stat < scipy.stats.chi2.ppf(0.999, df=max(df, 1))


def test_constrained_sampler_matches_enumeration_counts():
    # every member of a small family appears with near-equal frequency
    rng = np.random.default_rng(99)
    n, s0, s, s1 = 7, 3, 4, 2
    members = np.array([0, 3, 6])
    comp = np.setdiff1d(np.arange(n), members)
    family = set()
    for ins in itertools.combinations(members.tolist(), s1):
        for outs in itertools.combinations(comp.tolist(), s - s1):
            family.add(frozenset(ins + outs))
    draws = 3 * 10**4
    masks = sample_subsets_with_intersection(rng, n, members, s, s1, draws)
    seen = {}
    for m in masks:
        key = frozenset(np.flatnonzero(m).tolist())
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) == family
    exp = draws / len(family)
    stat = sum((c - exp) ** 2 / exp for c in seen.values())
    assert stat < scipy.stats.chi2.ppf(0.999, df=len(family) - 1)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestSelectionReference:
    """The samplers select the same subsets from the same keys as the
    reference samplers above, and leave the generator in the same state. Keys are drawn for every pool that keeps some but not all of its
    indices (so ``sample_uniform_subsets`` draws none at s = 0 or s = n), and
    for a per-row draw unless every row keeps none or all of its pool."""

    @pytest.mark.parametrize("n", range(11))
    def test_fixed_sizes(self, n):
        pick = np.random.default_rng(n)
        for s0 in range(n + 1):
            members = np.sort(pick.choice(n, size=s0, replace=False)).astype(np.intp)
            for s in range(n + 1):
                for count in (0, 1, 7, 64):
                    seed = int(pick.integers(2**32))
                    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = sample_uniform_subsets(got_rng, n, s, count)
                    want = _reference_uniform_subsets(want_rng, n, s, count)
                    assert got.shape == (count, n) and np.array_equal(got, want)
                    assert _same_state(got_rng, want_rng)
                    for s1 in range(max(0, s - (n - s0)), min(s, s0) + 1):
                        self._check(n, members, s, s1, count, seed)
                    if 0 < s0 < n and s <= n - 2:
                        self._check_exact(n, members, s, count, seed)

    @pytest.mark.parametrize("s0, s, s1", [
        (256, 10, 2), (256, 500, 125), (256, 1000, 250), (1, 700, 0), (1023, 1022, 1021),
    ])
    def test_wide(self, s0, s, s1):
        n = 1024
        members = np.sort(np.random.default_rng(s).choice(n, size=s0, replace=False))
        self._check(n, members, s, s1, 64, s0 + s)
        self._check_exact(n, members, min(s, n - 2), 64, s0 + s)

    @staticmethod
    def _check(n, members, s, s1, count, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_subsets_with_intersection(got_rng, n, members, s, s1, count)
        want = _reference_subsets_with_intersection(want_rng, n, members, s, s1, count)
        assert got.flags.c_contiguous and np.array_equal(got, want)
        assert _same_state(got_rng, want_rng)

        s0 = len(members)
        if s0 - s1 < 1 or (n - s0) - (s - s1) < 1:
            with pytest.raises(ValueError):
                sample_paired_tuples(got_rng, n, members, s, s1, count)
            return
        got = sample_paired_tuples(got_rng, n, members, s, s1, count)
        want = _reference_paired_tuples(want_rng, n, members, s, s1, count)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert _same_state(got_rng, want_rng)

    @staticmethod
    def _check_exact(n, members, s, count, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_paired_tuples(got_rng, n, members, s, None, count)
        want = _reference_exact_tuples(want_rng, n, members, s, count)
        assert got[0].shape == (count, n) and got[0].flags.c_contiguous
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert _same_state(got_rng, want_rng)

    @pytest.mark.parametrize("width", [1, 2, 64, 65, 1025, 4097])
    def test_per_row_sizes(self, width):
        pick = np.random.default_rng(width)
        for sizes in (np.concatenate([[0, width], pick.integers(0, width + 1, 48)]),
                      np.full(3, width), np.zeros(0, dtype=int), np.array([0, width, 0])):
            got_rng, want_rng = np.random.default_rng(width), np.random.default_rng(width)
            got = sample_uniform_subsets(got_rng, width, sizes, len(sizes))
            want = _reference_ranked_masks(want_rng, len(sizes), width, sizes)
            assert got.shape == (len(sizes), width) and np.array_equal(got, want)
            assert _same_state(got_rng, want_rng)


class _RawWords(np.random.PCG64):
    """Generator stand-in with a 64-bit bit generator:
    ``bit_generator.random_raw(size)`` returns ``words(size, call)`` as
    uint64 and logs each size; ``integers`` comes from a real generator."""

    def __init__(self, words):
        super().__init__(0)
        self.words = words
        self.sizes = []
        self.bit_generator = self
        self.integers = np.random.default_rng(0).integers

    def random_raw(self, size):
        self.sizes.append(size)
        return np.asarray(self.words(size, len(self.sizes) - 1), dtype=np.uint64)


def _keys_of(words, count, width, dtype):
    return np.asarray(words).view(dtype)[:count * width].reshape(count, width)


class TestTiedKeys:
    """Rows whose keys tie at the selection threshold are drawn again; a
    generator that always ties raises instead of looping or returning a short
    subset."""

    @pytest.mark.parametrize("draw", [
        lambda rng: sample_subsets_with_intersection(rng, 6, [0, 1, 2], 3, 1, 4),
        lambda rng: sample_paired_tuples(rng, 6, [0, 1, 2], 3, 1, 4),
        lambda rng: sample_paired_tuples(rng, 6, [0, 1, 2], 2, None, 4),
        lambda rng: sample_uniform_subsets(rng, 6, 2, 4),
        lambda rng: sample_uniform_subsets(rng, 6, [0, 2, 6, 1], 4),
    ])
    def test_raises(self, draw):
        # Every 16-bit and every 32-bit key is the same.
        rng = _RawWords(lambda size, call: np.full(size, 0x9E379E37_9E379E37))
        with pytest.raises(FloatingPointError):
            draw(rng)
        assert len(rng.sizes) == 1 + _TIE_REDRAWS

    @pytest.mark.parametrize("k", [0, 2, 5, [3, 0, 6, 5, 2, 1, 4, 3]])
    def test_redraws_only_tied_rows(self, k):
        count, width, tied = 8, 6, [1, 2, 6]
        real = np.random.default_rng(5)
        draws = []

        def words(size, call):
            w = real.bit_generator.random_raw(size)
            if call == 0:
                keys = _keys_of(w, count, width, np.uint16)
                keys[tied] = 7  # ties at every threshold
            draws.append(w)
            return w

        rng = _RawWords(words)
        mask = _select_smallest(rng, count, width, k)
        sizes = np.broadcast_to(k, count)
        drawn = (sizes > 0) & (sizes < width)
        redrawn = [r for r in tied if drawn[r]]
        # 16-bit keys in the first round, four per word; 32-bit keys after.
        assert rng.sizes == ([count * width // 4, len(redrawn) * width // 2]
                             if drawn.any() else [])
        assert (mask.sum(axis=1) == sizes).all()
        if not drawn.any():
            return
        # Each row's selection comes from the keys of the round that kept it.
        keys = _keys_of(draws[0], count, width, np.uint16).astype(np.int64)
        keys[redrawn] = _keys_of(draws[1], len(redrawn), width, np.uint32)
        ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
        assert np.array_equal(mask, ranks < sizes[:, None])

    @staticmethod
    def _generator(source, seed):
        # Coarse keys keep 8 bits of each 16, so ~1-4% of rows tie in the
        # first round and are redrawn. MT19937's raw words hold only 32
        # random bits, so a raw-word view would hold zero keys.
        if source == "mt19937":
            return np.random.Generator(np.random.MT19937(seed))
        if source == "coarse":
            real = np.random.default_rng(seed)
            return _RawWords(lambda size, call:
                             real.bit_generator.random_raw(size) & 0x00FF00FF_00FF00FF)
        return np.random.default_rng(seed)

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("source", ["pcg64", "coarse", "mt19937"])
    @pytest.mark.parametrize("width, k", [(w, k) for w in (2, 3, 5) for k in range(w)])
    def test_joint_subset_and_next_uniform(self, width, k, source, per_row):
        # The subset must stay uniform over its C(width, k) values whatever
        # the source of keys, one k or one k per row, and however many rows
        # are redrawn.
        rng = self._generator(source, 1000 * width + 10 * k + per_row)
        draws = 3 * 10**4
        mask = _select_smallest(rng, draws, width, np.full(draws, k) if per_row else k)
        assert (mask.sum(axis=1) == k).all()
        _, counts = np.unique(mask @ (1 << np.arange(width)), return_counts=True)
        cells = math.comb(width, k)
        assert len(counts) == cells
        if cells > 1:
            exp = draws / cells
            stat = ((counts - exp) ** 2 / exp).sum()
            assert stat < scipy.stats.chi2.ppf(1 - 1e-6, df=cells - 1)

    @pytest.mark.parametrize("source", ["pcg64", "coarse", "mt19937"])
    def test_exact_tuples_uniform(self, source):
        # n = 6, members {0, 1}, |S| = 2: z1 in {0, 1}, z2 in {2, ..., 5}.
        # With a drawn overlap (coalitions of size 3 in the exact step) S is
        # one of the C(4, 2) pairs of the other four: 2 * 4 * 6 = 48 tuples.
        # With overlap 0 it is one of the C(3, 2) pairs of the other
        # non-members, and with overlap 1 the other member and one of the
        # other three non-members: 2 * 4 * 3 = 24 tuples each.
        n, members = 6, np.array([0, 1])
        rng = self._generator(source, 17)
        for s1, tuples in ((None, 48), (0, 24), (1, 24)):
            draws = tuples * 1000
            masks, z1, z2 = sample_paired_tuples(rng, n, members, 2, s1, draws)
            rows = np.arange(draws)
            assert (masks.sum(axis=1) == 2).all()
            if s1 is not None:
                assert (masks[:, members].sum(axis=1) == s1).all()
            assert not masks[rows, z1].any() and not masks[rows, z2].any()
            assert np.isin(z1, members).all() and not np.isin(z2, members).any()
            outcome = ((masks @ (1 << np.arange(n))) * n + z1) * n + z2
            _, counts = np.unique(outcome, return_counts=True)
            assert len(counts) == tuples
            exp = draws / tuples
            stat = ((counts - exp) ** 2 / exp).sum()
            assert stat < scipy.stats.chi2.ppf(1 - 1e-6, df=tuples - 1)


# Every public function that takes a member set, called on a 6-player game.
_MEMBER_CALLS = {
    "sample_subsets_with_intersection":
        lambda g, m, rng: sample_subsets_with_intersection(rng, 6, m, 2, 1, 4),
    "sample_paired_tuples": lambda g, m, rng: sample_paired_tuples(rng, 6, m, 2, 0, 4),
    "estimate_mean_utility": lambda g, m, rng: estimate_mean_utility(g, m, 2, 1, 50, rng),
    "estimate_mean_utility_gap":
        lambda g, m, rng: estimate_mean_utility_gap(g, m, 2, 0, 50, rng),
    "estimate_group_value": lambda g, m, rng: estimate_group_value(
        g, m, EstimatorConfig(size_threshold=2, grid_samples=4, pair_samples=4), rng),
    "exact_faithful_group_shapley": lambda g, m, rng: exact_faithful_group_shapley(g, m),
    "faithful_group_shapley_by_sizes":
        lambda g, m, rng: faithful_group_shapley_by_sizes(g, m),
    "exact_mean_utility": lambda g, m, rng: exact_mean_utility(g, m, 2, 1),
    "exact_size_term": lambda g, m, rng: exact_size_term(g, m, 2),
    "group_sum": lambda g, m, rng: group_sum(SvEstimate(np.arange(6.0), 0), m),
    "IntersectionSizeGame":
        lambda g, m, rng: IntersectionSizeGame(6, m, lambda s1, s: 0.0),
}


class TestMemberSets:
    @pytest.mark.parametrize("members", [[-1], [6], [0, 6], [-1, 2]])
    @pytest.mark.parametrize("name", sorted(_MEMBER_CALLS))
    def test_out_of_range(self, name, members):
        g = sou_generate(6, 10, 1)
        with pytest.raises(ValueError, match="out of range"):
            _MEMBER_CALLS[name](g, members, np.random.default_rng(0))

    def test_duplicates_in_samplers(self):
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = sample_subsets_with_intersection(got_rng, 5, [2, 0, 0, 2], 2, 1, 16)
        want = sample_subsets_with_intersection(want_rng, 5, [0, 2], 2, 1, 16)
        assert np.array_equal(got, want)
        got = sample_paired_tuples(got_rng, 5, [2, 0, 0, 2], 2, 1, 16)
        want = sample_paired_tuples(want_rng, 5, [0, 2], 2, 1, 16)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert _same_state(got_rng, want_rng)
        # One distinct member overlapping S in one point leaves none for z1.
        with pytest.raises(ValueError, match="no member left"):
            sample_paired_tuples(np.random.default_rng(0), 5, [1, 1], 2, 1, 3)

    def test_duplicates_in_group_sum(self):
        est = SvEstimate(np.array([1.0, 2.0, 4.0]), 0)
        assert group_sum(est, [0, 0]) == 1.0
        assert group_sum(est, {2, 0}) == 5.0
        assert group_sum(est, []) == 0.0
