import itertools
import math

import numpy as np
import pytest
import scipy.stats

from groupshapley.combinatorics import (
    HypergeomParams,
    log_binom,
    log_family_size,
    sample_paired_tuples,
    sample_subsets_with_intersection,
    sample_uniform_subsets,
)


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

    def test_family_size_log(self):
        assert log_family_size(6, 3, 3, 1) == pytest.approx(
            math.log(math.comb(3, 1) * math.comb(3, 2)), abs=1e-12
        )


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
        assert masks.shape == (500, 9)
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

    def test_uniformity(self):
        rng = np.random.default_rng(6)
        draws = 4 * 10**4
        masks = sample_uniform_subsets(rng, 5, 2, draws)
        keys = masks @ (1 << np.arange(5))
        _, counts = np.unique(keys, return_counts=True)
        assert len(counts) == 10
        stat = ((counts - draws / 10) ** 2 / (draws / 10)).sum()
        assert stat < scipy.stats.chi2.ppf(0.999, df=9)


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
