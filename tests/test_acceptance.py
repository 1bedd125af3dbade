"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line on the real terminal
(bypassing capture) and enforces its stated tolerance and runtime budget.
"""

import copy
import csv
import math
import time
import zlib

import numpy as np
import pytest
from scipy.stats import chi2

from groupshapley.attacks import (
    SplitSchedule,
    expected_gsv,
    prudence_check,
    run_attack,
)
from groupshapley.baselines import (
    BASELINE_ESTIMATORS,
    predicted_baseline_evaluations,
)
from groupshapley.bench import BenchConfig, run_benchmark
from groupshapley.combinatorics import HypergeomParams, sample_uniform_subsets
from groupshapley.estimator import (
    EstimatorConfig,
    estimate_group_value,
    estimate_mean_utility_gap,
    predicted_evaluations,
)
from groupshapley.exact import (
    Partition,
    exact_faithful_group_shapley,
    exact_mean_utility,
    check_axioms,
    faithful_group_shapley_by_sizes,
    fgsv_valuation,
    exact_group_shapley,
    size_profile_term,
)
from groupshapley.games import (
    SIZE_UTILITIES,
    IntersectionSizeGame,
    SizeOnlyGame,
    sou_generate,
)

SAT2 = SIZE_UTILITIES["saturating2"]

PRUDENT_CURVES = [
    ("saturating2", SIZE_UTILITIES["saturating2"]),
    ("saturating3", SIZE_UTILITIES["saturating3"]),
    ("geometric1.5", lambda s: 1.0 - 1.5 ** (-s)),
    ("geometric5", lambda s: 1.0 - 5.0 ** (-s)),
    ("cubic", lambda s: float(s) ** 3),
    ("cubic_plus_linear", lambda s: float(s) ** 3 + 2.0 * s),
    ("quartic", lambda s: float(s) ** 4),
    ("exp0.1", lambda s: math.exp(0.1 * s)),
    ("exp0.3", lambda s: math.exp(0.3 * s)),
    ("exp0.5", lambda s: math.exp(0.5 * s)),
]

FIG3_CONFIG = {
    "schema_version": 1,
    "game": {"type": "sou", "n": 64, "d": 64 * 64, "seed": 13},
    "groups": {"rule": "mod", "k": 4},
    "methods": [{"name": "fgsv"}] + [{"name": m} for m in BASELINE_ESTIMATORS],
    "budget": 20000,
    "replications": 30,
    "checkpoint_interval": 500,
    "seed": 2024,
}


@pytest.fixture
def report(capsys):
    def _report(number: int, ok: bool):
        with capsys.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok

    return _report


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3_first")
    cfg = BenchConfig.from_dict(copy.deepcopy(FIG3_CONFIG))
    t0 = time.perf_counter()
    info = run_benchmark(cfg, out, threads=4)
    elapsed = time.perf_counter() - t0
    return {"out": out, "info": info, "elapsed": elapsed}


def _random_group(rng, n):
    s0 = int(rng.integers(1, n))
    return rng.choice(n, size=s0, replace=False)


def _csv_body_without(path, drop_column):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if drop_column in rows[0]:
        idx = rows[0].index(drop_column)
        rows = [[c for i, c in enumerate(r) if i != idx] for r in rows]
    return "\n".join(",".join(r) for r in rows).encode()


def test_criterion_01_size_decomposition_identity(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        game = sou_generate(n, int(rng.integers(2, 3 * n)), int(rng.integers(1 << 20)))
        members = _random_group(rng, n)
        lhs = faithful_group_shapley_by_sizes(game, members)
        rhs = exact_faithful_group_shapley(game, members)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-9 and elapsed < 30)


def test_criterion_02_exhaustive_estimator_matches_exact(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 11))
        game = sou_generate(n, int(rng.integers(2, 2 * n)), int(rng.integers(1 << 20)))
        members = _random_group(rng, n)
        config = EstimatorConfig(
            size_threshold=n,
            grid_samples=10**9,
            pair_samples=1,
            exhaustive_small_sizes=True,
        )
        est = estimate_group_value(game, members, config, rng)
        truth = exact_faithful_group_shapley(game, members)
        worst = max(worst, abs(est.value - truth))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-9 and elapsed < 60)


def test_criterion_03_shell_split_inflates_gsv_not_fgsv(report):
    t0 = time.perf_counter()
    ok = True

    # Hand-checkable instance: two groups of sizes 1 and 2 under the
    # saturating utility 1 - 2^(-s); splitting the size-2 group into
    # singletons lifts its group-as-player value from 0.5625 to 7/12 while
    # the faithful value stays 7/12 throughout.
    before = expected_gsv(SAT2, [1, 2], 1)
    after = expected_gsv(SAT2, [1, 1, 1], 1) + expected_gsv(SAT2, [1, 1, 1], 2)
    ok &= abs(before - 0.5625) <= 1e-12
    ok &= abs(after - 7 / 12) <= 1e-12
    ok &= after - before >= 1e-3

    part = Partition([[0], [1, 2]], n=3)
    rep = run_attack(SAT2, part, [SplitSchedule(1, 2)])
    fgsv = rep.extras["attacker_fgsv"]
    ok &= max(abs(v - 7 / 12) for v in fgsv) <= 1e-12

    # Sweep: every prudent utility gains strictly from every finer split.
    base = Partition([[0, 1], list(range(2, 10))], n=10)
    for _, ubar in PRUDENT_CURVES:
        ok &= prudence_check(ubar, 7)[0]
        rep = run_attack(ubar, base, [SplitSchedule(1, p) for p in (2, 3, 4)])
        gsv = rep.extras["attacker_gsv"]
        ptp = max(abs(v) for v in gsv)
        for a, b in zip(gsv, gsv[1:]):
            ok &= b > a + 1e-12 * max(1.0, ptp)
        fgsv = rep.extras["attacker_fgsv"]
        ok &= max(fgsv) - min(fgsv) <= 1e-9 * max(1.0, abs(fgsv[0]))
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 10)


def test_criterion_04_axioms(report):
    t0 = time.perf_counter()
    ok = True
    partitions = [
        Partition([[0, 1], [2, 3], [4, 5], [6, 7]], n=8),
        Partition([[0, 1], [2, 3], [4, 5, 6, 7]], n=8),
    ]
    rng = np.random.default_rng(404)
    for _ in range(20):
        game = sou_generate(8, int(rng.integers(4, 30)), int(rng.integers(1 << 20)))
        second = sou_generate(8, int(rng.integers(4, 30)), int(rng.integers(1 << 20)))
        rep = check_axioms(fgsv_valuation, game, partitions, second_game=second, tol=1e-10)
        ok &= rep.all_passed

    # The group-as-player valuation breaks faithfulness on every prudent
    # size-only game: the same group is worth more inside a finer partition.
    for _, ubar in PRUDENT_CURVES:
        game = SizeOnlyGame(8, ubar)
        rep = check_axioms(exact_group_shapley, game, partitions, tol=1e-10)
        ok &= not rep.results["faithfulness"].passed
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 60)


def test_criterion_05_baseline_convergence(report):
    t0 = time.perf_counter()
    game = sou_generate(8, 24, 123)
    truth = game.exact_shapley_vector()
    budget, seeds = 200_000, 30
    ok = True
    for name, fn in BASELINE_ESTIMATORS.items():
        errors = np.empty((seeds, game.n))
        for seed in range(seeds):
            est = fn(game, budget, np.random.default_rng((zlib.crc32(name.encode()) & 0xFFFF, seed)))
            errors[seed] = est.values - truth
        mean = errors.mean(axis=0)
        se = errors.std(axis=0, ddof=1) / math.sqrt(seeds)
        ok &= bool(np.all(np.abs(mean) <= 3 * se + 1e-7))
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 300)


def test_criterion_06_budget_honesty(report):
    rng = np.random.default_rng(606)
    ok = True

    for _ in range(50):
        n = int(rng.integers(4, 24))
        game = SizeOnlyGame(n, SAT2)
        members = _random_group(rng, n)
        config = EstimatorConfig(
            size_threshold=int(rng.integers(1, n + 1)),
            grid_samples=int(rng.integers(1, 6)),
            pair_samples=int(rng.integers(1, 6)),
        )
        est = estimate_group_value(game, members, config, rng)
        ok &= est.evaluations_used == predicted_evaluations(n, len(members), config)

    names = list(BASELINE_ESTIMATORS)
    for trial in range(70):
        name = names[trial % len(names)]
        n = int(rng.integers(3, 13))
        game = SizeOnlyGame(n, SAT2)
        budget = int(rng.integers(2 * n + 10, 400))
        est = BASELINE_ESTIMATORS[name](game, budget, rng)
        ok &= est.evaluations_used == predicted_baseline_evaluations(name, n, budget)
    report(6, ok)


def test_criterion_07_desk_scale_benchmark(report, fig3_run):
    info = fig3_run["info"]
    with open(fig3_run["out"] / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = len(rows) == 8 * 4 * 30
    ok &= all(rows[0][c] != "" for c in ("aucc", "abs_rel_err", "wall_time_ns"))
    means = info["method_mean_are"]
    ranked = sorted(means, key=means.get)
    median = float(np.median(list(means.values())))
    ok &= means["fgsv"] < median
    ok &= fig3_run["elapsed"] < 30 * 60
    with open(fig3_run["out"] / "summary.csv") as fh:
        ok &= len(fh.read().strip().splitlines()) == 1 + 8 * 4
    report(7, ok)
    print("method ranking by mean final relative error:", ", ".join(ranked))


def test_criterion_08_single_term_tail_decay(report):
    t0 = time.perf_counter()

    def h(a):
        return 1.0 / (1.0 + math.exp(-4.0 * (a - 0.25)))

    def profile(s1, s):
        return h(s1 / s) if s else 0.0

    def approx_term(n, s0, s):
        alpha0 = s0 / n
        lo = max(0, s + s0 - n + 1)
        hi = min(s, s0 - 1)
        s1 = min(max(math.floor(s * alpha0), lo), hi)
        gap = profile(s1 + 1, s + 1) - profile(s1, s + 1)
        return (n / (n - 1)) * alpha0 * (1 - alpha0) * gap

    sup = {}
    for n in (32, 64, 128):
        s0 = n // 4
        worst = 0.0
        for s in range(n // 4, 3 * n // 4 + 1):
            exact = size_profile_term(profile, n, s0, s)
            worst = max(worst, s * abs(exact - approx_term(n, s0, s)))
        sup[n] = worst
    ok = sup[64] <= 1.25 * sup[32] + 1e-3
    ok &= sup[128] <= 1.25 * sup[32] + 1e-3

    # Enumeration surrogate at n=32: the conditional mean over the fully
    # enumerated family must equal the closed-form profile value.
    game32 = IntersectionSizeGame(32, range(8), profile)
    for s, s1 in ((4, 1), (5, 2)):
        enum = exact_mean_utility(game32, range(8), s, s1)
        ok &= abs(enum - profile(s1, s)) <= 1e-12

    # Sampled references at the larger sizes: the paired-difference estimator
    # must reproduce the closed-form gap used above.
    rng = np.random.default_rng(808)
    for n in (64, 128):
        s0 = n // 4
        game = IntersectionSizeGame(n, range(s0), profile)
        for s in (n // 3, n // 2):
            s1 = min(max(math.floor(s * s0 / n), max(0, s + s0 - n + 1)), min(s, s0 - 1))
            gap = estimate_mean_utility_gap(game, range(s0), s, s1, 2000, rng)
            ok &= abs(gap - (profile(s1 + 1, s + 1) - profile(s1, s + 1))) <= 1e-9
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 600)


def test_criterion_09_hypergeometric_correctness(report):
    rng = np.random.default_rng(909)
    draws = 100_000
    ok = True
    rejections = 0
    tests = 0
    for n in range(1, 13):
        for s0 in range(0, n + 1):
            members = np.arange(s0)
            for s in range(0, n + 1):
                params = HypergeomParams(n, s0, s)
                lo, probs = params.pmf_vector()
                ok &= abs(probs.sum() - 1.0) <= 1e-12
                if s == 0 or len(probs) < 2:
                    continue
                masks = sample_uniform_subsets(rng, n, s, draws)
                overlaps = masks[:, members].sum(axis=1) if s0 else np.zeros(draws, int)
                counts = np.bincount(overlaps - lo, minlength=len(probs)).astype(float)
                expected = probs * draws
                # pool sparse bins inward so every cell has expectation >= 5
                c, e = [], []
                acc_c = acc_e = 0.0
                for ci, ei in zip(counts, expected):
                    acc_c += ci
                    acc_e += ei
                    if acc_e >= 5:
                        c.append(acc_c)
                        e.append(acc_e)
                        acc_c = acc_e = 0.0
                if acc_e > 0 and e:
                    c[-1] += acc_c
                    e[-1] += acc_e
                if len(e) < 2:
                    continue
                stat = sum((ci - ei) ** 2 / ei for ci, ei in zip(c, e))
                tests += 1
                if stat > chi2.ppf(1 - 0.001, df=len(e) - 1):
                    rejections += 1
    # at alpha = 0.001 the expected number of (independent) rejections over
    # all size/overlap combinations is below one; allow a little slack
    ok &= tests > 500 and rejections <= 3
    report(9, ok)


def test_criterion_10_benchmark_determinism(report, fig3_run, tmp_path):
    cfg = BenchConfig.from_dict(copy.deepcopy(FIG3_CONFIG))
    out2 = tmp_path / "fig3_second"
    run_benchmark(cfg, out2, threads=4)
    ok = True
    for name in ("results.csv", "summary.csv"):
        a = _csv_body_without(fig3_run["out"] / name, "wall_time_ns")
        b = _csv_body_without(out2 / name, "wall_time_ns")
        ok &= a == b
    report(10, ok)
