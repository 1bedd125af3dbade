import json
import math

import numpy as np
import pytest

from groupshapley import cli
from groupshapley.attacks import (
    AttackReport,
    SplitSchedule,
    expected_gsv,
    prudence_check,
    run_attack,
    size_only_fgsv,
)
from groupshapley.exact import Partition, exact_group_shapley
from groupshapley.games import SIZE_UTILITIES, SizeOnlyGame, sou_generate

SAT2 = SIZE_UTILITIES["saturating2"]


class TestPrudence:
    def test_saturating(self):
        ok, where = prudence_check(SAT2, 12)
        assert ok and where is None

    def test_linear_fails_strictness(self):
        ok, where = prudence_check(lambda s: float(s), 12)
        assert not ok
        assert where == 0

    def test_cubic(self):
        ok, _ = prudence_check(lambda s: float(s) ** 3, 12)
        assert ok

    def test_first_violation_index(self):
        # convex up to s=4, then flat
        ubar = lambda s: min(s, 4) ** 3
        ok, where = prudence_check(ubar, 10)
        assert not ok
        assert where == 2  # third difference needs s+3 <= 4 to stay positive


def expected_gsv_loop(ubar, sizes, k):
    """Reference: the weighted sum over every coalition of the other groups,
    one coalition at a time."""
    s_k = sizes[k]
    others = [s for j, s in enumerate(sizes) if j != k]
    K = len(others)
    total = 0.0
    for bits in range(1 << K):
        ssum = sum(s for j, s in enumerate(others) if (bits >> j) & 1)
        m = bin(bits).count("1")
        log_w = math.lgamma(m + 1) + math.lgamma(K - m + 1) - math.lgamma(K + 2)
        total += math.exp(log_w) * (ubar(ssum + s_k) - ubar(ssum))
    return total


class TestExpectedGsv:
    @pytest.mark.parametrize("name", sorted(SIZE_UTILITIES))
    def test_matches_reference_loop(self, name):
        ubar = SIZE_UTILITIES[name]
        rng = np.random.default_rng(len(name))
        for groups in (1, 2, 5, 12):
            sizes = rng.integers(1, 6, size=groups).tolist()
            for k in range(groups):
                assert expected_gsv(ubar, sizes, k) == pytest.approx(
                    expected_gsv_loop(ubar, sizes, k), rel=1e-12, abs=0)

    def test_hand_value(self):
        assert expected_gsv(SAT2, [1, 2], 1) == pytest.approx(0.5625, abs=1e-12)

    def test_three_singletons_symmetry(self):
        for k in range(3):
            assert expected_gsv(SAT2, [1, 1, 1], k) == pytest.approx(
                7 / 24, abs=1e-12
            )

    def test_linear_utility_additive(self):
        slope = 1.7
        ubar = lambda s: slope * s
        for sizes in ([3, 4], [1, 2, 5], [2, 2, 2, 2]):
            for k in range(len(sizes)):
                assert expected_gsv(ubar, sizes, k) == pytest.approx(
                    slope * sizes[k], abs=1e-10
                )

    def test_efficiency_conservation(self):
        for sizes in ([1, 2], [3, 1, 4], [2, 2, 2, 2, 2]):
            n = sum(sizes)
            total = sum(expected_gsv(SAT2, sizes, k) for k in range(len(sizes)))
            assert total == pytest.approx(SAT2(n) - SAT2(0), abs=1e-10)

    def test_matches_exact_group_shapley(self):
        sizes = [2, 3, 1]
        groups, pos = [], 0
        for s in sizes:
            groups.append(list(range(pos, pos + s)))
            pos += s
        game = SizeOnlyGame(6, SAT2)
        part = Partition(groups, n=6)
        for k in range(3):
            assert expected_gsv(SAT2, sizes, k) == pytest.approx(
                exact_group_shapley(game, part, k), abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_gsv(SAT2, [0, 2], 0)
        with pytest.raises(ValueError):
            expected_gsv(SAT2, [1] * 21, 0)
        with pytest.raises(ValueError):
            expected_gsv(SAT2, [1, 2], 2)


class TestSplitSchedule:
    def test_remainder_goes_last(self):
        assert SplitSchedule(0, 3).shell_sizes(100) == [33, 33, 34]
        assert SplitSchedule(0, 4).shell_sizes(100) == [25, 25, 25, 25]
        assert SplitSchedule(0, 3).shell_sizes(7) == [2, 2, 3]

    def test_pieces_bounds(self):
        with pytest.raises(ValueError):
            SplitSchedule(0, 1)
        with pytest.raises(ValueError):
            SplitSchedule(0, 4).shell_sizes(3)

    def test_apply(self):
        part = Partition([[0], [1, 2, 3, 4]], n=5)
        split = SplitSchedule(1, 2).apply(part)
        assert split.groups == ((0,), (1, 2), (3, 4))


class TestRunAttack:
    def test_binary_split_hand_values(self):
        part = Partition([[0], [1, 2]], n=3)
        report = run_attack(SAT2, part, [SplitSchedule(1, 2)])
        assert report.extras["attacker_gsv"] == pytest.approx(
            [0.5625, 7 / 12], abs=1e-12
        )
        assert report.extras["attacker_fgsv"] == pytest.approx(
            [7 / 12, 7 / 12], abs=1e-12
        )
        assert report.prudent and report.gsv_monotone and report.fgsv_constant

    def test_linear_utility_flat(self):
        part = Partition([[0], [1, 2, 3]], n=4)
        report = run_attack(lambda s: float(s), part,
                            [SplitSchedule(1, 2), SplitSchedule(1, 3)])
        gsv = report.extras["attacker_gsv"]
        assert np.ptp(gsv) < 1e-10
        assert not report.prudent

    def test_prudent_sweep_strict_increase(self):
        prudent_curves = [
            SAT2,
            SIZE_UTILITIES["saturating3"],
            lambda s: float(s) ** 3,
            lambda s: 1 - 1.5 ** (-s),
            lambda s: math.exp(0.3 * s),
        ]
        part = Partition([[0, 1], list(range(2, 10))], n=10)
        for ubar in prudent_curves:
            assert prudence_check(ubar, 7)[0]
            report = run_attack(
                ubar, part,
                [SplitSchedule(1, p) for p in (2, 3, 4)],
            )
            gsv = report.extras["attacker_gsv"]
            for a, b in zip(gsv, gsv[1:]):
                assert b > a + 1e-12

    def test_faithfulness_invariance_general_game(self):
        game = sou_generate(8, 16, 909)
        part = Partition([[0, 1, 2], [3, 4, 5, 6, 7]], n=8)
        report = run_attack(game, part, [SplitSchedule(1, 2),
                                         SplitSchedule(1, 3)])
        fgsv = report.extras["attacker_fgsv"]
        assert np.ptp(fgsv) < 1e-10
        # the untouched group's values never move either
        other = [r for r in report.rows if not r.is_attacker]
        assert np.ptp([r.fgsv for r in other]) < 1e-10

    def test_partition_must_cover_the_game(self, kernel_rows):
        game = sou_generate(6, 10, 1)
        counted = kernel_rows(game)
        with pytest.raises(ValueError, match="covers 3 players, game has 6"):
            run_attack(game, Partition([[0], [1, 2]], n=3), [SplitSchedule(1, 2)])
        assert counted.rows == 0

    def test_one_shapley_table_per_game(self, kernel_rows):
        # One 2^n table gives the faithful values of every partition; the
        # group-as-player values of a partition P cost |P| * 2^|P| rows.
        game = sou_generate(10, 30, 4)
        counted = kernel_rows(game)
        base = Partition([list(range(6)), [6, 7], [8, 9]], n=10)
        run_attack(game, base, [SplitSchedule(0, 2), SplitSchedule(0, 3)])
        assert counted.rows == 2**10 + 3 * 2**3 + 4 * 2**4 + 5 * 2**5  # 1 272

    def test_game_size_cap(self):
        game = sou_generate(18, 10, 0)
        part = Partition([list(range(9)), list(range(9, 18))], n=18)
        with pytest.raises(ValueError, match="cap"):
            run_attack(game, part, [SplitSchedule(1, 2)])

    def test_mixed_targets_rejected(self):
        part = Partition([[0, 1], [2, 3]], n=4)
        with pytest.raises(ValueError):
            run_attack(SAT2, part, [SplitSchedule(0, 2), SplitSchedule(1, 2)])

    def test_report_serialization(self, tmp_path):
        part = Partition([[0], [1, 2]], n=3)
        report = run_attack(SAT2, part, [SplitSchedule(1, 2)])
        jpath = tmp_path / "report.json"
        report.write_json(jpath)
        blob = json.loads(jpath.read_text())
        assert blob["prudent"] is True
        # The CLI writes the CSV form of the same report.
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "ubar": "saturating2", "group_sizes": [1, 2],
            "target_group": 1, "pieces": [2],
        }))
        assert cli.main(["attack", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "attack.csv").read_text().strip().splitlines()
        assert lines[0] == "schedule,group,is_attacker,gsv,fgsv,prudent,seed,version,timestamp"
        assert len(lines) == 1 + 4  # 2 groups x (baseline + one schedule)
        assert [line.split(",")[:3] for line in lines[1:]] == [
            [str(r.pieces), str(r.group + 1), str(int(r.is_attacker))] for r in report.rows
        ]


def test_size_only_fgsv_is_headcount_share():
    assert size_only_fgsv(SAT2, 10, 4) == pytest.approx(0.4 * (SAT2(10) - SAT2(0)))
