#!/usr/bin/env python3
"""Benchmark of the groupshapley package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3-desk --seed 1 --seconds 30 --trace 0

Workloads (why each exists: perfbench/WORKLOADS.md):

- ``fig3-desk``: ``groupshapley bench`` through ``cli.main`` on the paper's
  Fig-3 shape (SOU game n=64, d=4096, fgsv plus the seven baselines).
- ``fgsv-wide``: ``estimate_group_value`` on a wide, cheap SOU game
  (n=1024, d=32), one call per mod-4 group.
- ``regression-exact``: ``groupshapley bench`` on a ridge-regression game from
  a generated CSV (n=16) with exact truth.

Every input (configs, CSV rows, game seeds, RNG streams) is derived from
``--seed``. After set-up, the timed phase repeats one unit of work while
another is expected to end within ``--seconds``, and reports the median unit
time. Every unit's output is checked; a failed check counts as a failed op
and never stops the run.

With ``--trace 0`` the end-to-end metrics are printed (setup_s, wall_s,
peak_rss_mb). With ``--trace 1`` half the time runs untraced and half traced
(see tracing.py), and the per-layer metrics plus the tracing overhead are
printed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types

import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5

FULL, TINY = "full", "tiny"
SIZES = {
    "fig3-desk": {
        FULL: {"n": 64, "d": 4096, "budget": 20000, "replications": 2,
               "checkpoint_interval": 500, "threads": 2},
        TINY: {"n": 32, "d": 256, "budget": 4000, "replications": 1,
               "checkpoint_interval": 100, "threads": 2},
    },
    "fgsv-wide": {
        FULL: {"n": 1024, "d": 32, "size_threshold": 10, "grid_samples": 32,
               "pair_samples": 64, "threads": 1},
        TINY: {"n": 128, "d": 32, "size_threshold": 10, "grid_samples": 32,
               "pair_samples": 64, "threads": 1},
    },
    "regression-exact": {
        FULL: {"rows": 24, "test_rows": 8, "budget": 2000, "replications": 2,
               "checkpoint_interval": 200, "threads": 1},
        TINY: {"rows": 20, "test_rows": 8, "budget": 1000, "replications": 1,
               "checkpoint_interval": 100, "threads": 1},
    },
}
GROUPS_K = 4
REGRESSION_METHODS = ("fgsv", "permutation", "kernelshap", "leverageshap")
RIDGE_LAMBDA = 1.0

# Largest accepted |estimate - truth| / max_g |truth_g| per workload and
# method, where truth is the closed-form SOU value or the exact regression
# value. Each is 2-5 times the worst error a correct program showed over 12
# seeds; std_error is not used because it leaves out the grid regime.
TOLERANCE = {
    "fig3-desk": {
        "fgsv": 0.03, "permutation": 0.4, "group_testing": 1.2,
        "complement_contribution": 0.2, "one_for_all": 0.02, "kernelshap": 1.2,
        "unbiased_kernelshap": 0.3, "leverageshap": 0.9,
    },
    "fgsv-wide": {"fgsv": 0.2},
    "regression-exact": {
        "fgsv": 0.6, "permutation": 0.8, "kernelshap": 0.8, "leverageshap": 0.4,
    },
}
EFFICIENCY_TOL = 1e-9

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import groupshapley; print(time.perf_counter() - t)"
)


def import_package():
    sys.path.insert(0, SRC)
    import groupshapley
    from groupshapley import baselines, bench, cli, estimator, exact, games

    return types.SimpleNamespace(
        pkg=groupshapley, baselines=baselines, bench=bench, cli=cli,
        estimator=estimator, exact=exact, games=games,
    )


def timed_import_s() -> float:
    """Package import time in a fresh interpreter, as a CLI user pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def derive_seeds(np, seed: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


class Checks:
    """Tally of ops and of the worst normalized error per method."""

    def __init__(self, tolerance: dict):
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, float] = {}
        self.notes: list[str] = []

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(why)

    def accuracy(self, method: str, estimate: float, truth: float, scale: float) -> bool:
        err = abs(estimate - truth) / scale
        self.worst[method] = max(self.worst.get(method, 0.0), err)
        return err <= self.tolerance[method]


class Workload:
    # OpenBLAS thread count the workload runs under; None keeps the
    # environment's setting.
    blas_threads = None

    def __init__(self, gs, np, name, seed, size, workdir):
        self.gs, self.np = gs, np
        self.params = SIZES[name][size]
        self.seed = seed
        self.workdir = workdir
        self.threads = self.params["threads"]


class BenchWorkload(Workload):
    """A ``groupshapley bench`` run through ``cli.main``; one unit is one
    complete CLI invocation."""

    def setup(self) -> None:
        seeds = derive_seeds(self.np, self.seed, 3)
        game_spec = self.write_inputs(seeds)
        self.config = {
            "schema_version": 1,
            "game": game_spec,
            "groups": {"rule": "mod", "k": GROUPS_K},
            "methods": [{"name": m} for m in self.methods()],
            "budget": self.params["budget"],
            "replications": self.params["replications"],
            "checkpoint_interval": self.params["checkpoint_interval"],
            "seed": seeds[1],
        }
        self.config_path = os.path.join(self.workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        self.game = self.gs.games.game_from_config(game_spec)
        self.partition = self.gs.exact.mod_partition(self.game.n, GROUPS_K)
        sv = self.truth_vector()
        self.truths = [float(sv[list(g)].sum()) for g in self.partition.groups]

    def unit(self, cli_main):
        out = tempfile.mkdtemp(prefix="unit-", dir=self.workdir)
        argv = ["bench", "--config", self.config_path, "--out", out,
                "--threads", str(self.threads)]
        try:
            return cli_main(argv), out
        except Exception:  # a crash is a failed unit, not a benchmark abort
            traceback.print_exc()
            return None, out

    def predicted(self, method: str, members) -> int:
        n, budget = self.game.n, self.params["budget"]
        if method == "fgsv":
            cfg = self.gs.bench.fgsv_config_for(
                n, len(members), budget // GROUPS_K, {"name": "fgsv"})
            return self.gs.estimator.predicted_evaluations(n, len(members), cfg)
        return self.gs.baselines.predicted_baseline_evaluations(method, n, budget)

    def check(self, outcome, checks: Checks) -> None:
        code, out = outcome
        rows = {}
        if code == 0:
            try:
                with open(os.path.join(out, "results.csv"), newline="") as fh:
                    for r in csv.DictReader(fh):
                        rows[(int(r["seed"]), r["method"], int(r["group_id"]) - 1)] = r
            except (OSError, KeyError, ValueError) as exc:
                checks.notes.append(f"unreadable results.csv: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        scale = max(abs(t) for t in self.truths)
        ares = {}
        for rep in range(self.params["replications"]):
            for method in self.methods():
                for gid, members in enumerate(self.partition.groups):
                    r = rows.get((rep, method, gid))
                    if r is None:
                        checks.op(False, f"exit {code}: no row {rep}/{method}/{gid}")
                        continue
                    truth = self.truths[gid]
                    try:
                        est = float(r["estimate"])
                        ok = math.isfinite(est)
                        ok &= int(r["evals"]) == self.predicted(method, members)
                        ok &= math.isclose(float(r["truth"]), truth,
                                           rel_tol=1e-9, abs_tol=1e-12)
                    except ValueError:
                        est, ok = math.nan, False
                    ok = ok and checks.accuracy(method, est, truth, scale)
                    checks.op(ok, f"{rep}/{method}/{gid}: est={est} truth={truth} "
                                  f"evals={r['evals']}")
                    if truth != 0:
                        ares.setdefault(method, []).append(abs((truth - est) / truth))
        self.check_run(ares, checks)


class Fig3Desk(BenchWorkload):
    def methods(self):
        return ["fgsv"] + list(self.gs.baselines.BASELINE_ESTIMATORS)

    def write_inputs(self, seeds):
        return {"type": "sou", "n": self.params["n"], "d": self.params["d"],
                "seed": seeds[0]}

    def truth_vector(self):
        return self.game.exact_shapley_vector()

    def check_run(self, ares, checks: Checks) -> None:
        # Acceptance criterion 7: fgsv's mean ARE is below the median of the
        # methods' mean AREs. Counted as one op per unit.
        means = {m: statistics.fmean(v) for m, v in ares.items()}
        ok = len(means) == len(self.methods()) and \
            means["fgsv"] < statistics.median(means.values())
        checks.op(ok, f"criterion 7: mean ARE {means}")


class RegressionExact(BenchWorkload):
    def methods(self):
        return list(REGRESSION_METHODS)

    def write_inputs(self, seeds):
        np = self.np
        rng = np.random.default_rng(seeds[2])
        rows, p = self.params["rows"], 4
        X = rng.normal(size=(rows, p))
        beta = rng.normal(size=p)
        y = X @ beta + 0.5 * rng.normal(size=rows)
        path = os.path.join(self.workdir, "regression.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(p)] + ["y"])
            for xi, yi in zip(X, y):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
        return {"type": "regression_csv", "path": path,
                "test_fraction": self.params["test_rows"] / rows,
                "lambda": RIDGE_LAMBDA, "seed": seeds[0]}

    def truth_vector(self):
        sv = self.gs.exact.exact_shapley_values(self.game)
        total = self.game.evaluate(range(self.game.n)) - self.game.evaluate([])
        self.efficiency_gap = abs(float(sv.sum()) - total)
        return sv

    def check_run(self, ares, checks: Checks) -> None:
        # Efficiency of the exact truth, counted as one op per unit.
        checks.op(self.efficiency_gap <= EFFICIENCY_TOL,
                  f"exact truths miss U(N) - U(empty) by {self.efficiency_gap}")


class FgsvWide(Workload):
    """One unit is one ``estimate_group_value`` call per mod-4 group.

    The workload is single-threaded: with default OpenBLAS a second thread
    spins through the small SOU matmuls and waits on the first, so the unit
    time follows the load on both cores. BLAS over-subscription is measured
    on ``fig3-desk`` instead."""

    blas_threads = 1

    def setup(self) -> None:
        p = self.params
        game_seed, self.rng_seed = derive_seeds(self.np, self.seed, 2)
        self.game = self.gs.games.sou_generate(p["n"], p["d"], game_seed)
        self.partition = self.gs.exact.mod_partition(p["n"], GROUPS_K)
        self.config = self.gs.estimator.EstimatorConfig(
            size_threshold=p["size_threshold"], grid_samples=p["grid_samples"],
            pair_samples=p["pair_samples"],
        )
        sv = self.game.exact_shapley_vector()
        self.truths = [float(sv[list(g)].sum()) for g in self.partition.groups]

    def unit(self, _cli_main):
        estimator = self.gs.estimator
        rng = self.np.random.default_rng(self.rng_seed)
        results = []
        for members in self.partition.groups:
            try:
                results.append(estimator.estimate_group_value(
                    self.game, members, self.config, rng))
            except Exception:  # a crash is a failed op, not a benchmark abort
                traceback.print_exc()
                results.append(None)
        return results

    def check(self, results, checks: Checks) -> None:
        scale = max(abs(t) for t in self.truths)
        n = self.game.n
        for gid, (est, members) in enumerate(zip(results, self.partition.groups)):
            if est is None:
                checks.op(False, f"group {gid}: raised")
                continue
            ok = math.isfinite(est.value)
            ok &= est.evaluations_used == self.gs.estimator.predicted_evaluations(
                n, len(members), self.config)
            ok = ok and checks.accuracy("fgsv", est.value, self.truths[gid], scale)
            checks.op(bool(ok), f"group {gid}: est={est.value} truth={self.truths[gid]} "
                                f"evals={est.evaluations_used}")


WORKLOADS = {
    "fig3-desk": Fig3Desk,
    "fgsv-wide": FgsvWide,
    "regression-exact": RegressionExact,
}


def blas_record(np) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    env = {k: os.environ.get(k, "unset") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"blas_vendor": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads_env": env,
            "blas_threads_in_effect": openblas_threads()}


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(gs, np, args, workload) -> dict:
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "threads": workload.threads, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "groupshapley": gs.pkg.__version__,
        **blas_record(np), "git_commit": git_commit(),
    }


def timed_units(workload, seconds: float, checks: Checks, cli_main) -> list[float]:
    """Runs units while another one is expected to end within ``seconds``
    (at least one); returns each unit's wall time. Checking happens outside
    the timed region."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        outcome = workload.unit(cli_main)
        times.append(time.perf_counter() - t0)
        workload.check(outcome, checks)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=(FULL, TINY), default=FULL,
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupshapley", "__init__.py")):
        print(f"no groupshapley sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    blas_threads = WORKLOADS[args.workload].blas_threads
    if blas_threads is not None:  # read by OpenBLAS when numpy loads it
        os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads)

    import numpy as np

    gs = import_package()
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        workload = WORKLOADS[args.workload](gs, np, args.workload, args.seed,
                                            args.size, workdir)
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            import_s = 0.0 if args.trace else timed_import_s()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(import_s + time.perf_counter() - t0)
        record = run_record(gs, np, args, workload)
        checks = Checks(TOLERANCE[args.workload])
        if args.trace:
            metrics = traced_phase(gs, workload, args, checks, record)
        else:
            times = timed_units(workload, args.seconds, checks, gs.cli.main)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(times),
                "peak_rss_mb": peak_mb,
            }
            record["units"] = len(times)
            record["unit_wall_s"] = times
            record["setup_s_samples"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report(record, checks, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    return 0


def traced_phase(gs, workload, args, checks: Checks, record) -> dict:
    untraced = timed_units(workload, args.seconds / 2, checks, gs.cli.main)
    tracer = tracing.Tracer()
    with tracer.install(gs):
        cli_main = tracer.wrap("cli.main", gs.cli.main)
        traced = timed_units(workload, args.seconds / 2, checks, cli_main)
    spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans(), len(traced),
                                    gs.estimator.predicted_evaluations)
    record["units"] = {"untraced": len(untraced), "traced": len(traced)}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def report(record, checks: Checks, metrics) -> None:
    print("record " + json.dumps(record, sort_keys=True))
    for method, err in sorted(checks.worst.items()):
        print(f"accuracy {method:24s} worst_err={err:.4g} tol={checks.tolerance[method]}")
    for note in checks.notes:
        print(f"failed-op {note}")
    for name, m in metrics.items():
        print(f"metric {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"metric {'ops_attempted':36s} {checks.attempted} count")
    print(f"metric {'ops_failed':36s} {checks.failed} count")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
