import math

import numpy as np
import pytest

from groupshapley.bench import _safe_are
from groupshapley.exact import Partition, exact_faithful_group_shapley
from groupshapley.games import sou_generate
from groupshapley.metrics import ConvergenceCurve, Recorder, aucc, royalty_shares


def make_curve(estimates, start=100, step=100):
    curve = ConvergenceCurve()
    for t, e in enumerate(estimates):
        curve.append(start + t * step, e, wall_time_ns=t)
    return curve


class TestCurve:
    def test_strictly_increasing_evaluations(self):
        curve = ConvergenceCurve()
        curve.append(100, 1.0)
        with pytest.raises(ValueError):
            curve.append(100, 2.0)
        with pytest.raises(ValueError):
            curve.append(50, 2.0)

    def test_accessors(self):
        curve = make_curve([1.0, 2.0, 3.0])
        assert list(curve.evaluations()) == [100, 200, 300]
        assert curve.final_estimate() == 3.0
        assert len(curve) == 3


class TestRecorder:
    def test_interval_crossings(self):
        rec = Recorder(10)
        rec.update(25, 1.0)
        rec.update(30, 2.0)
        assert list(rec.curve.evaluations()) == [10, 20, 30]
        assert list(rec.curve.estimates()) == [1.0, 1.0, 2.0]

    def test_disabled(self):
        rec = Recorder(None)
        rec.update(100, 1.0)
        assert len(rec.curve) == 0

    @pytest.mark.parametrize("interval", [0, -5])
    def test_interval_below_one(self, interval):
        with pytest.raises(ValueError, match="interval"):
            Recorder(interval)

    def test_group_sums_only_when_due(self):
        calls = []

        def values():
            calls.append(1)
            return np.array([1.0, 2.0, 4.0])

        rec = Recorder(10, groups=[(0, 2), (1,)])
        rec.update(9, values)
        assert calls == [] and rec.curves[0].evaluations().size == 0
        rec.update(25, values)
        assert len(calls) == 1
        assert list(rec.curves[0].evaluations()) == [10, 20]
        assert list(rec.curves[0].estimates()) == [5.0, 5.0]
        assert list(rec.curves[1].estimates()) == [2.0, 2.0]
        assert Recorder(None, groups=[(0,)]).curves is None


class TestAucc:
    def test_perfect_curve(self):
        curve = make_curve([2.0] * 100)
        assert aucc(curve, 2.0) == 0.0

    def test_constant_relative_error(self):
        curve = make_curve([1.1 * 5.0] * 100)
        assert aucc(curve, 5.0) == pytest.approx(0.1, abs=1e-12)

    def test_harmonic_curve(self):
        truth = 3.0
        ests = [truth * (1 + 1 / t) for t in range(1, 101)]
        expect = sum(1 / t for t in range(1, 101)) / 100
        assert aucc(make_curve(ests), truth) == pytest.approx(expect, abs=1e-12)

    def test_zero_truth(self):
        with pytest.raises(ZeroDivisionError):
            aucc(make_curve([1.0] * 100), 0.0)

    def test_short_curve(self):
        with pytest.raises(ValueError):
            aucc(make_curve([1.0] * 10), 1.0)

    def test_settling_curve_improves(self):
        # once the curve hits the truth, keeping it there can only lower
        # the average error relative to stopping early
        truth = 1.0
        noisy = [2.0] * 50
        settled = noisy + [truth] * 50
        padded = noisy + [2.0] * 50
        assert aucc(make_curve(settled), truth) <= aucc(make_curve(padded), truth)


class TestAre:
    def test_exact(self):
        assert _safe_are(5.0, 5.0) == 0.0

    def test_zero_estimate(self):
        assert _safe_are(0.0, 3.0) == 1.0

    def test_ten_percent(self):
        assert _safe_are(1.1 * 7.0, 7.0) == pytest.approx(0.1, abs=1e-12)

    def test_zero_truth(self):
        assert math.isnan(_safe_are(1.0, 0.0))


class TestRoyaltyShares:
    def test_uniform(self):
        assert royalty_shares([1, 1, 1, 1]) == pytest.approx([0.25] * 4)

    def test_degenerate(self):
        assert royalty_shares([2, 0]) == pytest.approx([1.0, 0.0])

    def test_zero_total(self):
        with pytest.raises(ZeroDivisionError):
            royalty_shares([1.0, -1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.normal(size=5)
            if abs(vals.sum()) < 1e-6:
                continue
            assert royalty_shares(vals).sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_values_pass_through(self):
        shares = royalty_shares([3.0, -1.0])
        assert shares == pytest.approx([1.5, -0.5])


def test_faithful_shares_invariant_under_other_group_split():
    # splitting one group leaves every other group's share untouched when
    # the values come from summed individual Shapley values
    g = sou_generate(8, 20, 333)
    before = Partition([[0, 1, 2], [3, 4], [5, 6, 7]], n=8)
    after = Partition([[0, 1, 2], [3, 4], [5, 6], [7]], n=8)
    vals_before = [exact_faithful_group_shapley(g, grp) for grp in before.groups]
    vals_after = [exact_faithful_group_shapley(g, grp) for grp in after.groups]
    sb = royalty_shares(vals_before)
    sa = royalty_shares(vals_after)
    assert sa[0] == pytest.approx(sb[0], abs=1e-10)
    assert sa[1] == pytest.approx(sb[1], abs=1e-10)
    assert sa[2] + sa[3] == pytest.approx(sb[2], abs=1e-10)
