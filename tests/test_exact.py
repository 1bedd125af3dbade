import itertools
import math
import tracemalloc

import numpy as np
import pytest

from groupshapley.attacks import expected_gsv
from groupshapley.combinatorics import HypergeomParams, log_binom
from groupshapley.exact import (
    Partition,
    _all_masks,
    _family_masks,
    _shapley_weights,
    check_axioms,
    exact_faithful_group_shapley,
    exact_group_shapley,
    exact_mean_utility,
    exact_shapley_values,
    exact_size_term,
    faithful_group_shapley_by_sizes,
    fgsv_valuation,
    mod_partition,
    size_profile_term,
    utility_table,
)
from groupshapley.games import (
    Game,
    IntersectionSizeGame,
    RegressionGame,
    SIZE_UTILITIES,
    SOUGame,
    SizeOnlyGame,
    sou_generate,
)


class TableGame(Game):
    """Utility given by an explicit per-bitmask table."""

    def __init__(self, n, table):
        super().__init__(n)
        self.table = table

    def _values(self, masks):
        bits = masks @ (1 << np.arange(self.n))
        return np.array([self.table[int(b)] for b in bits], dtype=float)


def glove_game():
    # worth 1 iff player 0 plus at least one of {1, 2} is present
    table = {m: 0.0 for m in range(8)}
    for m in range(8):
        if (m & 1) and (m & 0b110):
            table[m] = 1.0
    return TableGame(3, table)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1, 2]], n=3)  # overlap
        with pytest.raises(ValueError):
            Partition([[0], []], n=1)  # empty group
        with pytest.raises(ValueError):
            Partition([[0], [2]], n=3)  # missing player

    def test_mod_partition(self):
        p = mod_partition(8, 4)
        assert p.groups == ((0, 4), (1, 5), (2, 6), (3, 7))
        assert p.n == 8

    def test_n_is_required(self):
        with pytest.raises(TypeError):
            Partition([[0], [1, 2]])
        assert Partition([[2, 1], [0]], 3).n == 3


class TestCoverage:
    """Every exact group valuation rejects a partition that does not cover
    exactly the game's players, before any coalition reaches the kernel."""

    # Too few players, and a member past the game's last player.
    BAD = [Partition([[0], [1, 2]], n=3), Partition([[0, 1, 2], [3, 4, 5, 6]], n=7)]

    @pytest.mark.parametrize("valuation", [fgsv_valuation, exact_group_shapley])
    @pytest.mark.parametrize("part", BAD, ids=["short", "past"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_valuation(self, kernel_rows, valuation, part, k):
        g = sou_generate(6, 10, 1)
        counted = kernel_rows(g)
        with pytest.raises(ValueError, match=f"covers {part.n} players, game has 6"):
            valuation(g, part, k)
        assert counted.rows == 0

    @pytest.mark.parametrize("valuation", [fgsv_valuation, exact_group_shapley])
    def test_check_axioms(self, kernel_rows, valuation):
        g = sou_generate(6, 10, 1)
        counted = kernel_rows(g)
        with pytest.raises(ValueError, match="covers 3 players, game has 6"):
            check_axioms(valuation, g, [mod_partition(6, 3), self.BAD[0]])
        assert counted.rows == 0

    def test_check_axioms_second_game(self, kernel_rows):
        g, h = sou_generate(6, 10, 1), sou_generate(8, 10, 2)
        counted = [kernel_rows(g), kernel_rows(h)]
        with pytest.raises(ValueError, match="second_game has 8 players, game has 6"):
            check_axioms(fgsv_valuation, g, [mod_partition(6, 3)], second_game=h)
        assert [c.rows for c in counted] == [0, 0]


class TestExactSv:
    def test_dummy_player(self):
        g = TableGame(2, {0b00: 0.0, 0b01: 1.0, 0b10: 0.0, 0b11: 1.0})
        sv = exact_shapley_values(g)
        assert sv[0] == pytest.approx(1.0, abs=1e-14)
        assert sv[1] == pytest.approx(0.0, abs=1e-14)

    def test_glove_game(self):
        sv = exact_shapley_values(glove_game())
        assert sv == pytest.approx([2 / 3, 1 / 6, 1 / 6], abs=1e-12)

    def test_efficiency(self):
        g = sou_generate(7, 20, 13)
        sv = exact_shapley_values(g)
        total = g.evaluate(range(7)) - g.evaluate([])
        assert sv.sum() == pytest.approx(total, abs=1e-10)

    def test_cap_refusal(self):
        g = SizeOnlyGame(25, lambda s: float(s))
        with pytest.raises(ValueError, match="cap"):
            exact_shapley_values(g)

    def test_evaluation_count_is_2_to_n(self, kernel_rows):
        g = sou_generate(6, 10, 1)
        counted = kernel_rows(g)
        exact_shapley_values(g)
        assert counted.rows == 64

    def test_scale_equivariance(self):
        g = sou_generate(6, 10, 2)
        scaled = SOUGame(6, [a.tolist() for a in g.subsets],
                         (3.5 * g.coefficients).tolist())
        assert exact_shapley_values(scaled) == pytest.approx(
            3.5 * exact_shapley_values(g), abs=1e-12
        )

    def test_matches_permutation_definition(self):
        g = sou_generate(5, 8, 21)
        sv = exact_shapley_values(g)
        ref = np.zeros(5)
        for perm in itertools.permutations(range(5)):
            acc = []
            prev = g.evaluate([])
            for i in perm:
                acc.append(i)
                cur = g.evaluate(acc)
                ref[i] += cur - prev
                prev = cur
        ref /= math.factorial(5)
        assert sv == pytest.approx(ref, abs=1e-10)


class TestExactGsv:
    def test_additive_game(self):
        g = SizeOnlyGame(6, lambda s: float(s))
        p = Partition([[0, 1, 2], [3], [4, 5]], n=6)
        for k, expect in [(0, 3.0), (1, 1.0), (2, 2.0)]:
            assert exact_group_shapley(g, p, k) == pytest.approx(expect, abs=1e-12)

    def test_saturating_hand_value(self):
        g = SizeOnlyGame(3, SIZE_UTILITIES["saturating2"])
        p = Partition([[0], [1, 2]], n=3)
        assert exact_group_shapley(g, p, 1) == pytest.approx(0.5625, abs=1e-12)

    def test_single_group(self):
        g = sou_generate(6, 10, 3)
        p = Partition([list(range(6))], n=6)
        expect = g.evaluate(range(6)) - g.evaluate([])
        assert exact_group_shapley(g, p, 0) == pytest.approx(expect, abs=1e-12)

    def test_index_out_of_range(self):
        g = SizeOnlyGame(3, lambda s: float(s))
        p = Partition([[0], [1, 2]], n=3)
        with pytest.raises(ValueError):
            exact_group_shapley(g, p, 2)

    def test_efficiency_over_groups(self):
        g = sou_generate(8, 15, 4)
        p = mod_partition(8, 3)
        total = sum(exact_group_shapley(g, p, k) for k in range(3))
        expect = g.evaluate(range(8)) - g.evaluate([])
        assert total == pytest.approx(expect, abs=1e-10)


class TestExactFgsv:
    def test_full_set(self):
        g = sou_generate(6, 10, 5)
        expect = g.evaluate(range(6)) - g.evaluate([])
        assert exact_faithful_group_shapley(g, range(6)) == pytest.approx(
            expect, abs=1e-10
        )

    def test_empty_set(self):
        g = sou_generate(6, 10, 5)
        assert exact_faithful_group_shapley(g, []) == 0.0

    def test_saturating_pair(self):
        g = SizeOnlyGame(3, SIZE_UTILITIES["saturating2"])
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert exact_faithful_group_shapley(g, pair) == pytest.approx(
                7 / 12, abs=1e-12
            )

    @pytest.mark.parametrize("k", [-1, 2])
    def test_valuation_index_out_of_range(self, k):
        g = sou_generate(8, 10, 0)
        with pytest.raises(ValueError, match="out of range"):
            fgsv_valuation(g, mod_partition(8, 2), k)


class TestExactMu:
    def test_overlap_counting_game(self):
        g = IntersectionSizeGame(7, [0, 1, 2], lambda s1, s: float(s1))
        for s in range(1, 7):
            lo, hi = HypergeomParams(7, 3, s).support()
            for s1 in range(lo, hi + 1):
                assert exact_mean_utility(g, [0, 1, 2], s, s1) == float(s1)

    def test_full_size_singleton_family(self):
        g = sou_generate(6, 10, 8)
        expect = g.evaluate(range(6))
        assert exact_mean_utility(g, [0, 1], 6, 2) == pytest.approx(expect)

    def test_infeasible(self):
        g = sou_generate(6, 10, 8)
        with pytest.raises(ValueError):
            exact_mean_utility(g, [0, 1], 2, 3)

    def test_independent_enumeration(self):
        # second, structurally different enumeration: loop subsets of [n]
        g = sou_generate(8, 20, 17)
        members = {1, 4, 6}
        for s, s1 in [(3, 1), (5, 2), (4, 3), (6, 1)]:
            vals = []
            for S in itertools.combinations(range(8), s):
                if len(members & set(S)) == s1:
                    vals.append(g.evaluate(S))
            assert exact_mean_utility(g, members, s, s1) == pytest.approx(
                float(np.mean(vals)), abs=1e-12
            )


def _reference_family_masks(n, members, s, s1):
    """The per-mask itertools loop that built the families before they were
    built as arrays."""
    comp = np.setdiff1d(np.arange(n), members)
    masks = []
    for inside in itertools.combinations(members.tolist(), s1):
        for outside in itertools.combinations(comp.tolist(), s - s1):
            m = np.zeros(n, dtype=bool)
            m[list(inside)] = True
            m[list(outside)] = True
            masks.append(m)
    return np.array(masks, dtype=bool)


def _reference_union_masks(other_masks):
    """The per-bit loop that built the coalitions of other groups before the
    boolean matmul: row ``bits`` ORs the groups whose bits are set."""
    K, n = other_masks.shape
    union = np.zeros((1 << K, n), dtype=bool)
    for bits in range(1 << K):
        for j in range(K):
            if (bits >> j) & 1:
                union[bits] |= other_masks[j]
    return union


def _reference_group_shapley_sum(u_with, u_without, K):
    """The per-coalition loop that summed the weighted marginals before the
    per-size weights and one dot product."""
    total = 0.0
    for bits in range(1 << K):
        m = bin(bits).count("1")
        log_w = math.lgamma(m + 1) + math.lgamma(K - m + 1) - math.lgamma(K + 2)
        total += math.exp(log_w) * (u_with[bits] - u_without[bits])
    return total


class RecordingGame(SizeOnlyGame):
    """Size-only game that keeps a copy of every batch it scores."""

    def __init__(self, n):
        super().__init__(n, float)
        self.batches = []

    def _values(self, masks):
        self.batches.append(masks.copy())
        return super()._values(masks)


class TestEnumerationReference:
    """The array-built enumerations equal the loops they replaced, row order
    included (exact_mean_utility averages over the rows)."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_family_masks(self, n):
        rng = np.random.default_rng(n)
        for s0 in range(n + 1):
            members = np.sort(rng.choice(n, size=s0, replace=False)).astype(np.intp)
            for s in range(n + 1):
                for s1 in range(max(0, s - (n - s0)), min(s, s0) + 1):
                    got = _family_masks(n, members, s, s1)
                    want = _reference_family_masks(n, members, s, s1)
                    assert got.dtype == bool and np.array_equal(got, want), (s0, s, s1)

    @pytest.mark.parametrize("K", range(8))
    def test_union_masks(self, K):
        n = 8
        rng = np.random.default_rng(K)
        labels = np.concatenate([np.arange(K + 1), rng.integers(0, K + 1, n - K - 1)])
        labels = rng.permutation(labels)
        partition = Partition([np.flatnonzero(labels == j).tolist() for j in range(K + 1)],
                              n=n)
        k = int(rng.integers(0, K + 1))
        g = RecordingGame(n)
        exact_group_shapley(g, partition, k)
        others = [grp for j, grp in enumerate(partition.groups) if j != k]
        other_masks = np.zeros((K, n), dtype=bool)
        for j, grp in enumerate(others):
            other_masks[j, list(grp)] = True
        target = np.zeros(n, dtype=bool)
        target[list(partition.groups[k])] = True
        want = _reference_union_masks(other_masks)
        without, with_target = g.batches
        assert np.array_equal(without, want)
        assert np.array_equal(with_target, want | target)

    @pytest.mark.parametrize("kind", ["sou", "size_only"])
    @pytest.mark.parametrize("K", range(11))
    def test_group_shapley_weights(self, K, kind):
        n = K + 3
        rng = np.random.default_rng(K)
        labels = rng.permutation(np.concatenate([np.arange(K + 1), [0, K]]))
        partition = Partition([np.flatnonzero(labels == j).tolist() for j in range(K + 1)],
                              n=n)
        g = sou_generate(n, 3 * n, K) if kind == "sou" else SizeOnlyGame(n, math.log1p)
        for k in {0, K}:
            others = [grp for j, grp in enumerate(partition.groups) if j != k]
            other_masks = np.zeros((K, n), dtype=bool)
            for j, grp in enumerate(others):
                other_masks[j, list(grp)] = True
            union = _reference_union_masks(other_masks)
            target = np.zeros(n, dtype=bool)
            target[list(partition.groups[k])] = True
            want = _reference_group_shapley_sum(
                g.evaluate_masks(union | target), g.evaluate_masks(union), K)
            assert exact_group_shapley(g, partition, k) == pytest.approx(
                want, rel=1e-12, abs=0.0)


class TestSizeDecomposition:
    def test_size_only_terms_vanish(self):
        g = SizeOnlyGame(7, SIZE_UTILITIES["cubic"])
        for s in range(1, 7):
            assert exact_size_term(g, [0, 1, 2], s) == pytest.approx(0.0, abs=1e-12)

    def test_whole_population_group(self):
        g = sou_generate(6, 10, 9)
        for s in range(1, 6):
            assert exact_size_term(g, range(6), s) == pytest.approx(0.0, abs=1e-12)

    def test_rewrite_identity_random_games(self):
        rng = np.random.default_rng(404)
        for trial in range(8):
            n = int(rng.integers(4, 9))
            g = sou_generate(n, 3 * n, int(rng.integers(10**6)))
            s0 = int(rng.integers(1, n + 1))
            members = rng.choice(n, size=s0, replace=False)
            direct = exact_faithful_group_shapley(g, members)
            rewrite = faithful_group_shapley_by_sizes(g, members)
            assert rewrite == pytest.approx(direct, abs=1e-10)

    def test_two_player_hand_check(self):
        g = TableGame(2, {0b00: 0.3, 0b01: 1.1, 0b10: -0.4, 0b11: 2.0})
        direct = exact_faithful_group_shapley(g, [0])
        rewrite = faithful_group_shapley_by_sizes(g, [0])
        assert rewrite == pytest.approx(direct, abs=1e-14)
        # hand value: SV(0) = 1/2 (U{0}-U{}) + 1/2 (U{01}-U{1})
        assert direct == pytest.approx(0.5 * (1.1 - 0.3) + 0.5 * (2.0 + 0.4),
                                       abs=1e-14)

    def test_size_term_out_of_range(self):
        g = sou_generate(5, 5, 0)
        with pytest.raises(ValueError):
            exact_size_term(g, [0], 5)

    def test_profile_term_matches_enumeration(self):
        profile = lambda s1, s: math.sin(1.0 + s1) + 0.2 * s
        n, members = 9, [0, 2, 5, 7]
        g = IntersectionSizeGame(n, members, profile)
        for s in range(1, n):
            a = exact_size_term(g, members, s)
            b = size_profile_term(profile, n, len(members), s)
            assert b == pytest.approx(a, abs=1e-10)


def test_coefficient_pattern_reproduces_fgsv():
    # assemble the group value from per-subset coefficients that depend on
    # the subset only through (overlap, size)
    g = sou_generate(7, 14, 77)
    n = 7
    members = {0, 3, 4}
    s0 = len(members)
    table = utility_table(g)
    total = (s0 / n) * (table[(1 << n) - 1] - table[0])
    for bits in range(1, (1 << n) - 1):
        S = [i for i in range(n) if (bits >> i) & 1]
        s = len(S)
        s1 = len(members & set(S))
        coef = ((s1 * n - s0 * s) / (s * (n - s))) / math.exp(log_binom(n, s))
        total += coef * table[bits]
    assert total == pytest.approx(
        exact_faithful_group_shapley(g, members), abs=1e-10
    )


class TestAxioms:
    def test_fgsv_passes_all(self):
        g = sou_generate(8, 16, 101)
        parts = [
            mod_partition(8, 4),
            Partition([[0, 4], [1, 5], [2, 3, 6, 7]], n=8),
        ]
        report = check_axioms(fgsv_valuation, g, parts)
        assert report.all_passed, report.to_json()

    def test_gsv_fails_faithfulness_on_prudent_game(self):
        g = SizeOnlyGame(6, SIZE_UTILITIES["saturating2"])
        parts = [
            Partition([[0, 1], [2, 3, 4, 5]], n=6),
            Partition([[0, 1], [2, 3], [4, 5]], n=6),
        ]
        report = check_axioms(exact_group_shapley, g, parts)
        assert not report.results["faithfulness"].passed
        assert report.results["efficiency"].passed

    def test_gsv_efficiency_single_partition(self):
        g = sou_generate(6, 10, 11)
        report = check_axioms(exact_group_shapley, g, [mod_partition(6, 3)])
        assert report.results["efficiency"].passed

    def test_one_shapley_table_per_game(self, kernel_rows):
        # Each game valued pays one 2^16 table, whatever the partitions and
        # groups: the base game, the null, symmetric and reversed witnesses,
        # which evaluate it through its kernel, and their combination, which
        # does so twice. The base also pays the two efficiency endpoints.
        g = sou_generate(16, 200, 3)
        counted = kernel_rows(g)
        parts = [mod_partition(16, 4), mod_partition(16, 2)]
        check_axioms(fgsv_valuation, g, parts)
        assert counted.rows == 6 * 2**16 + 2

    def test_empty_partition_list(self):
        g = sou_generate(4, 4, 0)
        with pytest.raises(ValueError):
            check_axioms(fgsv_valuation, g, [])

    def test_report_serializes(self):
        g = sou_generate(6, 8, 2)
        report = check_axioms(fgsv_valuation, g,
                              [mod_partition(6, 3), mod_partition(6, 2)])
        text = report.to_json()
        assert '"efficiency"' in text


# ---------------------------------------------------------------------------
# Frozen references: the enumerations as they were written before the 2^n
# masks were unpacked from bytes, the coalition sizes summed by doubling and
# the marginals read off table views. The new code must give the same bits.


def _reference_all_masks(n):
    """The shift-based mask build, applied to 2^16 ids at a time (each row
    depends on its id alone) so that n = 20 stays small."""
    ids = np.arange(1 << n, dtype=np.int64)
    return np.concatenate([((ids[lo : lo + (1 << 16), None] >> np.arange(n)) & 1).astype(bool)
                           for lo in range(0, 1 << n, 1 << 16)])


def _reference_shapley_values(game):
    """The fancy-indexing loop over the coalitions without each player."""
    n = game.n
    table = game.evaluate_masks(_reference_all_masks(n))
    sizes = _reference_all_masks(n).sum(axis=1)
    weights = _shapley_weights(n)
    sv = np.zeros(n)
    ids = np.arange(1 << n, dtype=np.int64)
    for i in range(n):
        without = ids[(ids >> i) & 1 == 0]
        marginals = table[without | (1 << i)] - table[without]
        sv[i] = float(weights[sizes[without]] @ marginals)
    return sv


def _reference_expected_gsv(ubar, sizes, k):
    """The union sizes and coalition counts taken from the 2^K x K masks."""
    s_k = sizes[k]
    others = np.array([s for j, s in enumerate(sizes) if j != k], dtype=np.int64)
    selected = _reference_all_masks(len(others))
    totals, inverse = np.unique(selected @ others, return_inverse=True)
    gains = np.array([ubar(int(t) + s_k) - ubar(int(t)) for t in totals], dtype=float)
    weights = _shapley_weights(len(others) + 1)[selected.sum(axis=1)]
    return float(weights @ gains[inverse])


class _ReferenceRidgeGame(RegressionGame):
    """The ridge kernel with a fresh temporary for every block operation."""

    def _values(self, masks):
        p = self.num_predictors
        out = np.full(len(masks), self.null_utility)
        for lo in range(0, len(masks), self._block_rows):
            block = masks[lo : lo + self._block_rows]
            rows = lo + np.flatnonzero(block.sum(axis=1, dtype=np.int32) >= max(p, 1))
            sel = masks[rows].astype(np.float64)
            grams = (sel @ self._outer).reshape(-1, p, p) + self._ridge
            beta = np.linalg.solve(grams, (sel @ self._xy)[:, :, None])[:, :, 0]
            resid = beta @ self.X_test.T - self.y_test
            out[rows] = -np.mean(resid**2, axis=1)
        return out


def _random_sou(n, seed):
    rng = np.random.default_rng(seed)
    subsets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
               for _ in range(3 * n)]
    return SOUGame(n, subsets, rng.normal(size=3 * n))


def _ridge_data(n, seed):
    rng = np.random.default_rng(seed)
    beta = np.array([1.0, -2.0, 0.5])
    X, Xt = rng.normal(size=(n, 3)), rng.normal(size=(40, 3))
    return X, X @ beta + rng.normal(size=n), Xt, Xt @ beta + rng.normal(size=40)


class TestFrozenReference:
    @pytest.mark.parametrize("n", range(21))
    def test_all_masks(self, n):
        got = _all_masks(n)
        assert got.dtype == bool and got.shape == (1 << n, n)
        assert got.tobytes() == _reference_all_masks(n).tobytes()

    @pytest.mark.parametrize("kind", ["sou", "ridge", "size_only"])
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 16])
    def test_shapley_values(self, n, kind):
        if kind == "sou":
            game = reference = _random_sou(n, n)
        elif kind == "ridge":
            game = RegressionGame(*_ridge_data(n, n))
            reference = _ReferenceRidgeGame(*_ridge_data(n, n))
        else:
            game = reference = SizeOnlyGame(n, math.sqrt)
        got = exact_shapley_values(game)
        assert got.tobytes() == _reference_shapley_values(reference).tobytes()

    @pytest.mark.parametrize("sizes", [[7], [1, 2], [1, 2, 3, 4, 5], [4] * 9,
                                       [3] * 20, list(range(1, 21))])
    def test_expected_gsv(self, sizes):
        for k in sorted({0, len(sizes) // 2, len(sizes) - 1}):
            for ubar in (math.sqrt, SIZE_UTILITIES["saturating2"]):
                assert expected_gsv(ubar, sizes, k) == _reference_expected_gsv(ubar, sizes, k)


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call, bound_mib", [
    (lambda: _all_masks(16), 1.5),
    (lambda: exact_shapley_values(SizeOnlyGame(16, math.sqrt)), 6),
    (lambda: expected_gsv(math.sqrt, [3] * 20, 0), 35),
], ids=["all_masks", "exact_shapley_values", "expected_gsv"])
def test_enumeration_footprint(call, bound_mib):
    # The 2^16 masks take one byte per player and coalition (1 MiB), and no
    # 2^n x n int64 temporary (8 MiB at n = 16, 80 MiB at K = 19) is built.
    assert _traced_peak_mib(call) < bound_mib


def test_sou_kernel_footprint():
    # The SOU kernel builds its int64 table row indices one block at a time
    # from the packed coalition bytes; built for the whole batch, and copied
    # again in popcount order, they take the peak beyond the 20 MiB of masks
    # to 80 MiB.
    game = sou_generate(20, 200, 3)
    masks = _all_masks(20)
    assert _traced_peak_mib(lambda: game.evaluate_masks(masks)) < 56
