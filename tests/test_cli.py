import ast
import csv
import ctypes
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupshapley import bench, cli, combinatorics
from groupshapley.baselines import BASELINE_ESTIMATORS, predicted_baseline_evaluations
from groupshapley.bench import (
    BenchConfig,
    ConfigError,
    THREADS_ENV_VAR,
    fgsv_config_for,
    partition_from_spec,
    resolve_threads,
    run_benchmark,
)
from groupshapley.estimator import predicted_evaluations


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def bench_payload(**overrides):
    payload = {
        "schema_version": 1,
        "game": {"type": "sou", "n": 8, "d": 24, "seed": 11},
        "groups": {"rule": "mod", "k": 4},
        "methods": [
            {"name": "fgsv", "size_threshold": 4},
            {"name": "permutation"},
            {"name": "complement_contribution"},
        ],
        "budget": 2000,
        "replications": 5,
        "checkpoint_interval": 200,
        "seed": 77,
    }
    payload.update(overrides)
    return payload


class TestConfigValidation:
    def test_unknown_root_field(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            BenchConfig.from_dict(bench_payload(extra=1))

    def test_wrong_schema_version(self):
        for version in (2, True, 1.0):
            with pytest.raises(ConfigError, match=f"schema_version must be 1, got {version}"):
                BenchConfig.from_dict(bench_payload(schema_version=version))

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            BenchConfig.from_dict(
                bench_payload(methods=[{"name": "banzhaf"}])
            )

    def test_unknown_method_param(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_dict(
                bench_payload(methods=[{"name": "permutation", "warp": 9}])
            )

    def test_unknown_game_field(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_dict(
                bench_payload(game={"type": "sou", "n": 8, "d": 4,
                                    "seed": 0, "color": "red"})
            )

    def test_bad_partition(self):
        cfg = BenchConfig.from_dict(
            bench_payload(groups={"explicit": [[0, 1], [1, 2]]})
        )
        with pytest.raises(ConfigError):
            partition_from_spec(cfg.groups_spec, 8)

    def test_budget_below_method_minimum(self, tmp_path):
        cfg = BenchConfig.from_dict(bench_payload(budget=5))
        with pytest.raises(ConfigError, match="minimum"):
            run_benchmark(cfg, tmp_path / "out")

    def test_fgsv_budget_minimum_is_spent_not_exceeded(self, tmp_path):
        # SOU n=16, mod-4 groups, threshold 10: the plan's minimum is 53
        # evaluations per group.
        cfg = BenchConfig.from_dict(bench_payload(
            game={"type": "sou", "n": 16, "d": 20, "seed": 1},
            methods=[{"name": "fgsv"}], budget=212, replications=1))
        run_benchmark(cfg, tmp_path / "out")
        with open(tmp_path / "out" / "results.csv") as fh:
            assert sum(int(r["evals"]) for r in csv.DictReader(fh)) == 212
        cfg.budget = 211
        with pytest.raises(ConfigError, match="budget 211 below minimum 212 for fgsv"):
            run_benchmark(cfg, tmp_path / "out2")

    def test_budget_below_interval_allowed_for_fgsv_alone(self, tmp_path):
        cfg = BenchConfig.from_dict(bench_payload(
            methods=[{"name": "fgsv", "size_threshold": 4}], budget=150,
            replications=1))
        info = run_benchmark(cfg, tmp_path / "out")
        assert info["method_mean_are"]["fgsv"] >= 0

    def test_missing_truth_for_large_game(self, tmp_path):
        g = {"type": "size_only", "n": 30, "name": "saturating2"}
        cfg = BenchConfig.from_dict(
            bench_payload(game=g, methods=[{"name": "permutation"}],
                          replications=1, budget=200)
        )
        with pytest.raises(ConfigError, match="ground truth"):
            run_benchmark(cfg, tmp_path / "out")


class TestThreads:
    def test_flag_wins(self):
        assert resolve_threads(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "5")
        assert resolve_threads(None) == 5

    def test_default(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(None) == 1

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ConfigError):
            resolve_threads(None)


class TestThreadsOnlyForBench:
    """Only bench reads --threads and $GROUPSHAPLEY_THREADS: a bad setting is
    a config error there, before any cell runs, and ignored elsewhere."""

    PAYLOADS = {
        "exact": {"schema_version": 1, "game": {"type": "sou", "n": 6, "d": 10, "seed": 8},
                  "groups": {"rule": "mod", "k": 3}},
        "axioms": {"schema_version": 1, "game": {"type": "sou", "n": 6, "d": 10, "seed": 8},
                   "method": "fgsv", "partitions": [{"rule": "mod", "k": 3}]},
        "attack": {"schema_version": 1, "ubar": "saturating2", "group_sizes": [2, 6],
                   "target_group": 1, "pieces": [2, 3]},
        "bench": bench_payload(),
    }

    @pytest.mark.parametrize("command", sorted(PAYLOADS))
    @pytest.mark.parametrize("env, args", [
        ("abc", []), (None, ["--threads", "0"]),
    ], ids=["env", "flag"])
    def test_bad_setting(self, tmp_path, capsys, monkeypatch, command, env, args):
        def no_cells(*a, **k):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_run_cell", no_cells)
        if env is None:
            monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(THREADS_ENV_VAR, env)
        cfg = write_config(tmp_path, "cfg.json", self.PAYLOADS[command])
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"), *args])
        err = capsys.readouterr().err
        if command == "bench":
            assert rc == 2
            key = args[0] if args else THREADS_ENV_VAR
            assert err.startswith("config error: ") and key in err, err
        else:
            assert rc == 0, err


class TestBenchCommand:
    def test_row_accounting(self, tmp_path):
        cfg_path = write_config(tmp_path, "bench.json", bench_payload())
        out = tmp_path / "out"
        rc = cli.main(["bench", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4 * 5  # methods x groups x replications
        with open(out / "summary.csv") as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == 3 * 4

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_always_tied_keys_exit_numeric(self, tmp_path, capsys, monkeypatch, threads):
        # Keys that always tie are redrawn a fixed number of times, then the
        # run stops with a numeric error instead of looping.
        monkeypatch.setattr(combinatorics, "_draw_keys",
                            lambda rng, count, width, dtype: np.zeros((count, width), dtype))
        cfg_path = write_config(tmp_path, "bench.json", bench_payload(replications=1))
        rc = cli.main(["bench", "--config", cfg_path, "--out", str(tmp_path / "out"),
                       "--threads", threads])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric error: random keys still tied")
        assert multiprocessing.active_children() == []

    def test_row_fields(self, tmp_path):
        cfg_path = write_config(tmp_path, "bench.json",
                                bench_payload(replications=1))
        out = tmp_path / "out"
        cli.main(["bench", "--config", cfg_path, "--out", str(out)])
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        row = rows[0]
        for col in ("method", "n", "group_id", "seed", "evals", "estimate",
                    "truth", "abs_rel_err", "aucc", "wall_time_ns"):
            assert col in row
        assert row["truth_source"] == "closed_form"
        assert int(row["group_id"]) >= 1  # 1-based in output
        assert int(row["evals"]) > 0

    def test_determinism_modulo_wall_time(self, tmp_path):
        cfg_path = write_config(tmp_path, "bench.json",
                                bench_payload(replications=2))
        outs = []
        for d in ("o1", "o2"):
            out = tmp_path / d
            cli.main(["bench", "--config", cfg_path, "--out", str(out)])
            with open(out / "results.csv") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time_ns")
            outs.append([[c for i, c in enumerate(r) if i != drop]
                         for r in rows])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("truth", [
        {"source": "auto"},
        {"source": "reference", "reference_budget": 450},
    ])
    def test_one_game_build_per_run(self, tmp_path, monkeypatch, truth):
        builds = []
        real_build = bench.game_from_config

        def counting_build(spec):
            builds.append(spec)
            return real_build(spec)

        monkeypatch.setattr(bench, "game_from_config", counting_build)
        fgsv = {"name": "fgsv", "size_threshold": 4}
        payload = bench_payload(
            replications=2, truth=truth,
            methods=[fgsv] + [{"name": m} for m in BASELINE_ESTIMATORS],
        )
        config = BenchConfig.from_dict(payload)
        run_benchmark(config, tmp_path / "out", threads=2)
        assert len(builds) == 1

        n, budget, k = payload["game"]["n"], payload["budget"], payload["groups"]["k"]
        partition = partition_from_spec(payload["groups"], n)
        with open(tmp_path / "out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * (1 + len(BASELINE_ESTIMATORS)) * k
        for r in rows:
            if r["method"] == "fgsv":
                s0 = len(partition.groups[int(r["group_id"]) - 1])
                want = predicted_evaluations(
                    n, s0, fgsv_config_for(n, s0, budget // k, fgsv))
            else:
                want = predicted_baseline_evaluations(r["method"], n, budget)
            assert int(r["evals"]) == want

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = write_config(tmp_path, "bench.json",
                                bench_payload(replications=1))
        ests = []
        for d, seed in (("a", "1"), ("b", "2")):
            out = tmp_path / d
            cli.main(["bench", "--config", cfg_path, "--out", str(out),
                      "--seed", seed])
            with open(out / "results.csv") as fh:
                ests.append([r["estimate"] for r in csv.DictReader(fh)])
        assert ests[0] != ests[1]

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, "bad.json", bench_payload(budget=-1))
        rc = cli.main(["bench", "--config", cfg_path, "--out",
                       str(tmp_path / "out")])
        assert rc == 2

    def test_unreadable_config(self, tmp_path):
        rc = cli.main(["bench", "--config", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("field", [
        {"grid_samples": 0}, {"pair_samples": -1}, {"size_threshold": "x"},
        {"grid_samples": 2.5}, {"pair_samples": True}, {"exhaustive": "yes"},
    ])
    def test_bad_fgsv_value_exit_code(self, tmp_path, capsys, monkeypatch, field):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_run_cell", no_cells)
        payload = bench_payload(methods=[{"name": "fgsv", **field}])
        cfg_path = write_config(tmp_path, "bad.json", payload)
        rc = cli.main(["bench", "--config", cfg_path, "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        key = next(iter(field))
        assert capsys.readouterr().err.startswith(f"config error: methods[fgsv]: {key}")

    def test_duplicate_method_exit_code(self, tmp_path, capsys, monkeypatch):
        # Rows and summaries are keyed by method name, so two fgsv entries
        # would be pooled into every summary row.
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_run_cell", no_cells)
        payload = bench_payload(methods=[{"name": "fgsv", "size_threshold": 4},
                                         {"name": "fgsv", "size_threshold": 8}])
        cfg_path = write_config(tmp_path, "dup.json", payload)
        rc = cli.main(["bench", "--config", cfg_path, "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: methods: duplicate method 'fgsv'")

    def test_regression_csv_exact_truth(self, tmp_path):
        fgsv = {"name": "fgsv"}
        payload = ridge_payload(tmp_path, 16)
        payload.update(methods=[fgsv, {"name": "permutation"}], budget=600, replications=2)
        out = tmp_path / "out"
        rc = cli.main(["bench", "--config", write_config(tmp_path, "cfg.json", payload),
                       "--out", str(out)])
        assert rc == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        n, k = 12, 3
        assert len(rows) == 2 * 2 * k
        partition = partition_from_spec(payload["groups"], n)
        for r in rows:
            assert r["truth_source"] == "exact"
            assert int(r["n"]) == n
            if r["method"] == "fgsv":
                s0 = len(partition.groups[int(r["group_id"]) - 1])
                want = predicted_evaluations(n, s0, fgsv_config_for(n, s0, 600 // k, fgsv))
            else:
                want = predicted_baseline_evaluations(r["method"], n, 600)
            assert int(r["evals"]) == want


class TestMethodTable:
    """Every method runs through one ``bench.METHODS`` entry: one timed run
    per (replication, method) cell, one row per group."""

    def test_known_methods_are_the_table(self):
        assert set(bench.METHODS) == {"fgsv"} | set(BASELINE_ESTIMATORS)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_of_a_run_share_its_wall_time(self, tmp_path, threads):
        payload = bench_payload(
            methods=[{"name": "fgsv", "size_threshold": 4}]
            + [{"name": m} for m in BASELINE_ESTIMATORS], replications=2)
        run_benchmark(BenchConfig.from_dict(payload), tmp_path / "out", threads=threads)
        with open(tmp_path / "out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        walls = {}
        for r in rows:
            walls.setdefault((r["seed"], r["method"]), []).append(int(r["wall_time_ns"]))
        assert len(walls) == 2 * (1 + len(BASELINE_ESTIMATORS))
        for times in walls.values():
            assert len(times) == payload["groups"]["k"]
            assert len(set(times)) == 1 and times[0] > 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_outputs_are_pinned(self, tmp_path, threads):
        # The digest of results.csv minus wall_time_ns, then summary.csv. This
        # run's game and estimators take no BLAS sums, so it does not depend
        # on the machine's BLAS.
        payload = bench_payload()
        payload["methods"].append({"name": "one_for_all"})
        out = tmp_path / "out"
        assert cli.main(["bench", "--config", write_config(tmp_path, "c.json", payload),
                         "--out", str(out), "--threads", threads]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time_ns")
        h = hashlib.sha1()
        for r in rows:
            h.update((",".join(c for i, c in enumerate(r) if i != drop) + "\n").encode())
        h.update((out / "summary.csv").read_bytes())
        assert h.hexdigest() == "f5a7dd1e1b96836866b6254fa5b4bef0f10dbf8d"


OPENBLAS_GET_THREADS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def openblas_thread_counts() -> list[int]:
    """The thread count of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return []
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        counts.append(getattr(lib, next(g for g in OPENBLAS_GET_THREADS if hasattr(lib, g)))())
    return counts


def ridge_payload(tmp_path, rows):
    """A ridge game on a seeded ``rows``-row CSV, with exact truth."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(rows, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + 0.3 * rng.normal(size=rows)
    data = tmp_path / "data.csv"
    data.write_text("a,b,c,y\n" + "".join(
        ",".join(repr(float(v)) for v in (*x, t)) + "\n" for x, t in zip(X, y)))
    return bench_payload(
        game={"type": "regression_csv", "path": str(data),
              "test_fraction": 0.25, "lambda": 1.0, "seed": 3},
        groups={"rule": "mod", "k": 3}, truth={"source": "exact"},
    )


class TestWorkerProcesses:
    """With threads > 1, cells run in worker processes forked from the
    caller: never more workers than cells, each with its share of the
    cores for OpenBLAS, none left running afterwards."""

    @staticmethod
    def record_pids(monkeypatch, path, name):
        real = getattr(bench, name)

        def recording(*args):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(bench, name, recording)

    @pytest.mark.parametrize("threads, replications", [(2, 3), (8, 1)])
    def test_cells_leave_the_parent(self, tmp_path, monkeypatch, threads, replications):
        # Forked workers inherit the patched functions.
        self.record_pids(monkeypatch, tmp_path / "cells", "_run_cell")
        self.record_pids(monkeypatch, tmp_path / "workers", "_init_worker")
        payload = bench_payload(methods=[{"name": "fgsv", "size_threshold": 4},
                                         {"name": "permutation"}],
                                replications=replications)
        run_benchmark(BenchConfig.from_dict(payload), tmp_path / "out", threads=threads)
        cells = [int(p) for p in (tmp_path / "cells").read_text().split()]
        workers = [int(p) for p in (tmp_path / "workers").read_text().split()]
        assert len(cells) == 2 * replications
        assert os.getpid() not in cells + workers
        assert set(cells) <= set(workers)
        assert len(workers) == len(set(workers)) <= min(threads, len(cells))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads, replications", [(1, 1), (2, 3), (8, 4)])
    def test_workers_share_the_blas_threads(self, tmp_path, monkeypatch, threads,
                                            replications):
        before = openblas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        seen = tmp_path / "seen"
        real = bench._run_cell

        def recording(*args):
            with open(seen, "a") as fh:
                fh.write(" ".join(map(str, openblas_thread_counts())) + "\n")
            return real(*args)

        monkeypatch.setattr(bench, "_run_cell", recording)
        payload = bench_payload(methods=[{"name": "fgsv", "size_threshold": 4},
                                         {"name": "permutation"}],
                                replications=replications)
        run_benchmark(BenchConfig.from_dict(payload), tmp_path / "out", threads=threads)
        workers = min(threads, 2 * replications)
        share = max(1, len(os.sched_getaffinity(0)) // workers)
        want = before if workers == 1 else [share] * len(before)
        counts = [[int(c) for c in line.split()] for line in seen.read_text().splitlines()]
        assert counts == [want] * (2 * replications)
        assert openblas_thread_counts() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("game", ["sou", "regression"])
    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, game):
        methods = [{"name": "fgsv"}] + [{"name": m} for m in BASELINE_ESTIMATORS]
        if game == "sou":
            payload = bench_payload(game={"type": "sou", "n": 32, "d": 256, "seed": 5},
                                    budget=4000)
        else:
            payload = ridge_payload(tmp_path, 24)
        payload.update(methods=methods, replications=2)
        outputs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}"
            run_benchmark(BenchConfig.from_dict(payload), out, threads=threads)
            with open(out / "results.csv") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time_ns")
            outputs.append(([[c for i, c in enumerate(r) if i != drop] for r in rows],
                            (out / "summary.csv").read_bytes()))
            assert multiprocessing.active_children() == []
        assert outputs[0] == outputs[1] == outputs[2]

    def test_failing_cell_cancels_queued_cells(self, tmp_path, capsys, monkeypatch):
        started = tmp_path / "started"
        real_cell = bench._run_cell

        def failing_first(config, game, partition, rep, method_index, method):
            with open(started, "a") as fh:
                fh.write(f"{rep} {method_index}\n")
            if (rep, method_index) == (0, 0):
                raise FloatingPointError("first cell failed")
            time.sleep(0.2)
            return real_cell(config, game, partition, rep, method_index, method)

        monkeypatch.setattr(bench, "_run_cell", failing_first)
        cfg_path = write_config(tmp_path, "bench.json", bench_payload(replications=10))
        rc = cli.main(["bench", "--config", cfg_path, "--out", str(tmp_path / "out"),
                       "--threads", "2"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric error: first cell failed")
        assert multiprocessing.active_children() == []
        # 30 cells: the two workers start a few before the error reaches the
        # parent, which cancels the rest.
        assert len(started.read_text().splitlines()) < 15

    def test_no_fork_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        cfg_path = write_config(tmp_path, "bench.json", bench_payload())
        out = tmp_path / "out"
        rc = cli.main(["bench", "--config", cfg_path, "--out", str(out), "--threads", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: --threads > 1 needs the fork start method")
        assert not out.exists()
        assert cli.main(["bench", "--config", cfg_path, "--out", str(out),
                         "--threads", "1"]) == 0


class TestFgsvConfigFor:
    """Without explicit sample counts, fgsv takes the most samples whose
    planned evaluations fit the group's share of the budget."""

    def test_exhaustive_fills_share(self):
        # SOU n = 12, mod-4 groups of 3, share 500: enumeration makes 17
        # samples (the count without it) spend 435; 19 spend 483, 20 spend 507.
        method = {"name": "fgsv", "size_threshold": 6, "exhaustive": True}
        cfg = fgsv_config_for(12, 3, 500, method)
        assert (cfg.grid_samples, cfg.pair_samples) == (19, 19)
        assert predicted_evaluations(12, 3, cfg) == 483
        assert predicted_evaluations(12, 3, replace(cfg, grid_samples=17, pair_samples=17)) == 435
        assert predicted_evaluations(12, 3, replace(cfg, grid_samples=20, pair_samples=20)) == 507

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 40), data=st.data())
    def test_exhaustive_never_over_share(self, n, data):
        s0 = data.draw(st.integers(1, n), label="s0")
        threshold = data.draw(st.integers(1, n), label="size_threshold")
        share = data.draw(st.integers(2, 5000), label="share")
        method = {"name": "fgsv", "size_threshold": threshold, "exhaustive": True}
        cfg = fgsv_config_for(n, s0, share, method)
        used = predicted_evaluations(n, s0, cfg)
        m = cfg.grid_samples
        assert cfg.pair_samples == m
        if predicted_evaluations(n, s0, replace(cfg, grid_samples=1, pair_samples=1)) > share:
            assert m == 1  # below the minimum, which _validate_budgets rejects
            return
        assert used <= share
        plain = fgsv_config_for(n, s0, share, {**method, "exhaustive": False})
        assert m >= plain.grid_samples
        # One more sample goes over the share, or buys nothing because every
        # cell is enumerated.
        more = predicted_evaluations(n, s0, replace(cfg, grid_samples=m + 1, pair_samples=m + 1))
        assert more > share or more == used


class TestIntegerFields:
    """Integer config fields and seeds must be integers at or above their
    minimum, and config sections must be objects; anything else is a config
    error (exit 2), never truncated."""

    ATTACK = {"schema_version": 1, "ubar": "saturating2", "group_sizes": [2, 6],
              "target_group": 1, "pieces": [2, 3]}

    @pytest.mark.parametrize("command,override,args", [
        ("bench", {"budget": "abc"}, []),
        ("bench", {"budget": 200.7}, []),
        ("bench", {"replications": "x"}, []),
        ("bench", {"checkpoint_interval": 0}, []),
        ("bench", {"checkpoint_interval": -5}, []),
        ("bench", {"checkpoint_interval": "x"}, []),
        ("bench", {"seed": -3}, []),
        ("bench", {}, ["--seed", "-1"]),
        ("bench", {"groups": {"rule": "mod", "k": "x"}}, []),
        ("bench", {"truth": {"source": "reference", "reference_budget": "x"}}, []),
        ("bench", {"truth": {"source": "reference", "reference_budget": 0}}, []),
        ("bench", {"truth": {"source": "reference", "reference_budget": 8}}, []),
        ("bench", {"truth": 5}, []),
        ("attack", {"target_group": "x"}, []),
        ("attack", {"target_group": 1.9}, []),
        ("attack", {"pieces": ["x"]}, []),
        ("attack", {"group_sizes": ["a"]}, []),
        ("bench", {"budget": 199}, []),
        ("bench", {"budget": 201, "checkpoint_interval": 201}, []),
        ("bench", {"schema_version": True}, []),
        ("attack", {"schema_version": True}, []),
    ])
    def test_exit_code(self, tmp_path, capsys, monkeypatch, command, override, args):
        def no_cells(*a, **k):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_run_cell", no_cells)
        payload = {**(bench_payload() if command == "bench" else self.ATTACK), **override}
        cfg = write_config(tmp_path, "cfg.json", payload)
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"), *args])
        assert rc == 2
        key = args[0] if args else next(iter(override))
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err, err


class TestOnePlayerBench:
    @pytest.mark.parametrize("name", sorted(BASELINE_ESTIMATORS))
    def test_exit_code(self, tmp_path, capsys, name):
        payload = bench_payload(
            game={"type": "size_only", "n": 1, "name": "linear"},
            groups={"rule": "mod", "k": 1}, methods=[{"name": name}],
            budget=20, replications=1, checkpoint_interval=5,
        )
        out = tmp_path / "out"
        rc = cli.main(["bench", "--config", write_config(tmp_path, "cfg.json", payload),
                       "--out", str(out)])
        if name in ("one_for_all", "kernelshap", "unbiased_kernelshap", "leverageshap"):
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                f"config error: methods[{name}]: {name} needs n >= 2")
            return
        assert rc == 0
        with open(out / "results.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["truth"]) == 1.0


class TestBadRegressionCsv:
    """A regression CSV that cannot be read or parsed is a config error
    (exit 2) in every subcommand that builds a game."""

    def payload(self, command, game):
        groups = {"rule": "mod", "k": 2}
        if command == "bench":
            return bench_payload(game=game, groups=groups)
        if command == "exact":
            return {"schema_version": 1, "game": game, "groups": groups}
        if command == "axioms":
            return {"schema_version": 1, "game": game, "method": "fgsv",
                    "partitions": [{"explicit": [[0, 1], [2, 3]]}]}
        return {"schema_version": 1, "game": game, "groups": groups,
                "target_group": 0, "pieces": [2]}

    @pytest.mark.parametrize("command", ["bench", "exact", "axioms", "attack"])
    @pytest.mark.parametrize("content", [
        None, "a,y\n1,2\nx,3\n4,5\n6,7\n", "a,y\n1,2\nnan,3\n4,5\n6,7\n",
    ], ids=["missing", "non-numeric", "nan"])
    def test_exit_code(self, tmp_path, capsys, command, content):
        data = tmp_path / "data.csv"
        if content is not None:
            data.write_text(content)
        game = {"type": "regression_csv", "path": str(data),
                "test_fraction": 0.5, "lambda": 1.0, "seed": 0}
        cfg = write_config(tmp_path, "cfg.json", self.payload(command, game))
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: game:")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_sou_coefficient_exit_code(tmp_path, capsys, value):
    # json.load reads NaN and Infinity; the game rejects them as config errors.
    game = {"type": "sou_explicit", "n": 4, "subsets": [[0], [1, 2], [3]],
            "coefficients": [1.0, float(value), 0.5]}
    payload = bench_payload(game=game, groups={"rule": "mod", "k": 2})
    cfg = write_config(tmp_path, "cfg.json", payload)
    rc = cli.main(["bench", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: game: non-finite")


@pytest.mark.parametrize("token", ["1e400", "-1e400", "NaN", "Infinity", "-1"])
def test_bad_ridge_penalty_exit_code(tmp_path, capsys, token):
    # json.load reads 1e400 as inf and accepts NaN and Infinity; json.dumps
    # cannot write 1e400, so the token goes into the config text by hand.
    data = tmp_path / "data.csv"
    data.write_text("a,y\n" + "".join(f"{i},{i % 3}\n" for i in range(8)))
    game = {"type": "regression_csv", "path": str(data), "test_fraction": 0.5,
            "lambda": "LAMBDA", "seed": 0}
    text = json.dumps(bench_payload(game=game, groups={"rule": "mod", "k": 2}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"LAMBDA"', token))
    rc = cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: game: ridge penalty must be a finite number >= 0")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_utilities_exit_numeric(tmp_path, capsys, threads):
    # Finite coefficients whose sums overflow to inf reach the least-squares
    # solve as non-finite moments: a numeric error, not a traceback.
    game = {"type": "sou_explicit", "n": 4, "subsets": [[0], [1, 2], [3]],
            "coefficients": [1e308, 1e308, 1e308]}
    payload = bench_payload(game=game, groups={"rule": "mod", "k": 2},
                            methods=[{"name": "kernelshap"}], budget=200)
    cfg = write_config(tmp_path, "cfg.json", payload)
    with np.errstate(all="ignore"):
        rc = cli.main(["bench", "--config", cfg, "--out", str(tmp_path / "out"),
                       "--threads", threads])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric error: ")
    assert multiprocessing.active_children() == []


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, groupshapley, groupshapley.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_unused_imports():
    """Every name a module of the package imports is used in that module.
    ``__init__.py``, which re-exports, and ``__future__`` imports are exempt.
    Every module-level private function of the package is referenced in the
    package, by name, attribute or import."""
    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    unused, private, referenced = [], {}, set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        private.update({f"{name}:{node.lineno}: {node.name}": node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                        and not node.name.startswith("__")})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line}: {ident}" for ident, line in imported.items()
                   if ident not in used]
    unused += [where for where, ident in private.items() if ident not in referenced]
    assert unused == []


class TestConfigMistakes:
    """Mistakes that the library would raise as ValueError or TypeError, or
    read as nonsense, are config errors (exit 2): a tolerance that is not a
    finite non-negative JSON number, a game too large for exact enumeration,
    more groups than an exact group-as-player value can enumerate, a game
    field that is not an integer, explicit groups that are not lists of
    indices, a game field that is not a number or a list of numbers, a name
    that is not a string, and an fgsv budget below what its plan spends."""

    @staticmethod
    def sou(n):
        return {"type": "sou", "n": n, "d": 8, "seed": 1}

    @staticmethod
    def bench(game=None, **extra):
        return bench_payload(game=game or {"type": "sou", "n": 8, "d": 24, "seed": 1},
                             **extra)

    @staticmethod
    def explicit(subsets):
        return {"type": "sou_explicit", "n": 4, "subsets": subsets,
                "coefficients": [1.0] * 2}

    # SOU n=16, mod-4 groups, threshold 10: one sample per cell is 53
    # evaluations per group.
    FGSV_ONLY = {"game": {"type": "sou", "n": 16, "d": 20, "seed": 1},
                 "methods": [{"name": "fgsv"}], "replications": 1}

    def axioms(self, n=8, **extra):
        return {"schema_version": 1, "game": self.sou(n), "method": "fgsv",
                "partitions": [{"rule": "mod", "k": 2}], **extra}

    CASES = [
        ("axioms", "tol_string", "tol must be a finite number >= 0, got 'abc'"),
        ("axioms", "tol_bool", "tol must be a finite number >= 0, got True"),
        ("axioms", "tol_nan", "tol must be a finite number >= 0, got nan"),
        ("axioms", "fgsv_n22", "game: axioms with method fgsv needs n <= 20, got n = 22"),
        ("exact", "n24", "game: exact needs n <= 20, got n = 24"),
        ("attack", "game_n18", "game: attack needs n <= 16, got n = 18"),
        ("attack", "ubar_21_groups",
         "attack with 'ubar' needs at most 20 groups, got 21 after the largest split"),
        ("axioms", "gsv_25_groups",
         "partitions[1]: axioms with method gsv needs at most 20 groups, got 25"),
        ("bench", "seed_float", "game: seed must be an integer >= 0, got 1.5"),
        ("bench", "seed_string", "game: seed must be an integer >= 0, got 'x'"),
        ("bench", "n_float", "game: n must be an integer >= 1, got 8.9"),
        ("bench", "n_string", "game: n must be an integer >= 1, got '8'"),
        ("bench", "d_float", "game: d must be an integer >= 1, got 24.5"),
        ("bench", "regression_seed_float", "game: seed must be an integer >= 0, got 0.5"),
        ("bench", "subsets_int", "game: subsets must be a list of index lists"),
        ("bench", "subset_index_float", "game: subset index must be an integer >= 0, got 1.5"),
        ("bench", "explicit_int", "groups: explicit must be a list of index lists"),
        ("bench", "explicit_flat", "groups: explicit must be a list of index lists"),
        ("exact", "explicit_string", "groups: group index must be an integer >= 0, got 'a'"),
        ("axioms", "explicit_float",
         "partitions[0]: group index must be an integer >= 0, got 0.0"),
        ("attack", "explicit_float_attack",
         "groups: group index must be an integer >= 0, got 0.0"),
        ("bench", "coefficients_int", "game: coefficients must be a list of numbers"),
        ("bench", "coefficient_string", "game: coefficient must be a number, got '1'"),
        ("bench", "test_fraction_list", "game: test_fraction must be a number, got [0.5]"),
        ("bench", "lambda_null", "game: lambda must be a number, got None"),
        ("bench", "game_type_list", "game: unknown game type ['sou']"),
        ("bench", "size_only_name_list", "game: unknown size-utility name ['x']"),
        ("bench", "method_name_list", "methods: unknown method ['fgsv']"),
        ("attack", "ubar_list", "unknown size-utility name ['saturating2']"),
        ("bench", "fgsv_budget_12", "budget 12 below minimum 212 for fgsv"),
        ("bench", "fgsv_explicit_samples", "budget 400 below minimum 1028 for fgsv"),
    ]

    @pytest.mark.parametrize("command,case,message", CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_exit_code(self, tmp_path, capsys, command, case, message):
        payload = {
            "tol_string": self.axioms(tol="abc"),
            "tol_bool": self.axioms(tol=True),
            "tol_nan": self.axioms(tol=float("nan")),
            "fgsv_n22": self.axioms(n=22),
            "n24": {"schema_version": 1, "game": self.sou(24),
                    "groups": {"rule": "mod", "k": 2}},
            "game_n18": {"schema_version": 1, "game": self.sou(18),
                         "groups": {"rule": "mod", "k": 3},
                         "target_group": 0, "pieces": [2]},
            "ubar_21_groups": {"schema_version": 1, "ubar": "saturating2",
                               "group_sizes": [1] * 19 + [2],
                               "target_group": 19, "pieces": [2]},
            "gsv_25_groups": {"schema_version": 1, "game": self.sou(30), "method": "gsv",
                              "partitions": [{"rule": "mod", "k": 2},
                                             {"rule": "mod", "k": 25}]},
            "seed_float": self.bench({"type": "sou", "n": 8, "d": 24, "seed": 1.5}),
            "seed_string": self.bench({"type": "sou", "n": 8, "d": 24, "seed": "x"}),
            "n_float": self.bench({"type": "sou", "n": 8.9, "d": 24, "seed": 1}),
            "n_string": self.bench({"type": "sou", "n": "8", "d": 24, "seed": 1}),
            "d_float": self.bench({"type": "sou", "n": 8, "d": 24.5, "seed": 1}),
            "regression_seed_float": self.bench(
                {"type": "regression_csv", "path": "data.csv", "test_fraction": 0.5,
                 "lambda": 1.0, "seed": 0.5}),
            "subsets_int": self.bench(self.explicit(5)),
            "subset_index_float": self.bench(self.explicit([[0, 1.5], [2]])),
            "explicit_int": self.bench(groups={"explicit": 5}),
            "explicit_flat": self.bench(groups={"explicit": [0, 1]}),
            "explicit_string": {"schema_version": 1, "game": self.sou(4),
                                "groups": {"explicit": [[0, "a"], [1, 2, 3]]}},
            "explicit_float": self.axioms(
                n=4, partitions=[{"explicit": [[0.0, 1, 2], [3]]}]),
            "explicit_float_attack": {"schema_version": 1, "game": self.sou(4),
                                      "groups": {"explicit": [[0.0, 1, 2], [3]]},
                                      "target_group": 0, "pieces": [2]},
            "coefficients_int": self.bench({**self.explicit([[0, 1], [2]]),
                                            "coefficients": 5}),
            "coefficient_string": self.bench({**self.explicit([[0, 1], [2]]),
                                              "coefficients": [1.0, "1"]}),
            "test_fraction_list": self.bench(
                {"type": "regression_csv", "path": "data.csv", "test_fraction": [0.5],
                 "lambda": 1.0, "seed": 0}),
            "lambda_null": self.bench(
                {"type": "regression_csv", "path": "data.csv", "test_fraction": 0.5,
                 "lambda": None, "seed": 0}),
            "game_type_list": self.bench({"type": ["sou"], "n": 8, "d": 24, "seed": 1}),
            "size_only_name_list": self.bench({"type": "size_only", "n": 8, "name": ["x"]}),
            "method_name_list": self.bench(methods=[{"name": ["fgsv"]}]),
            "ubar_list": {"schema_version": 1, "ubar": ["saturating2"],
                          "group_sizes": [2, 2], "target_group": 0, "pieces": [2]},
            "fgsv_budget_12": self.bench(**self.FGSV_ONLY, budget=12),
            "fgsv_explicit_samples": self.bench(
                **{**self.FGSV_ONLY, "methods": [{"name": "fgsv", "grid_samples": 5,
                                                   "pair_samples": 5}]},
                budget=400),
        }[case]
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        rc = cli.main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestAttackCommand:
    def payload(self, **overrides):
        p = {
            "schema_version": 1,
            "ubar": "saturating2",
            "group_sizes": [2, 6],
            "target_group": 1,
            "pieces": [2, 3],
        }
        p.update(overrides)
        return p

    def test_monotone_and_constant_columns(self, tmp_path):
        cfg = write_config(tmp_path, "attack.json", self.payload())
        out = tmp_path / "out"
        rc = cli.main(["attack", "--config", cfg, "--out", str(out)])
        assert rc == 0
        with open(out / "attack.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["is_attacker"] == "1"]
        gsv = [float(r["gsv"]) for r in rows]
        fgsv = [float(r["fgsv"]) for r in rows]
        assert gsv == sorted(gsv) and gsv[0] < gsv[-1]
        assert max(fgsv) - min(fgsv) < 1e-12
        blob = json.loads((out / "attack.json").read_text())
        assert blob["gsv_monotone"] and blob["fgsv_constant"]

    def test_linear_flat(self, tmp_path):
        cfg = write_config(tmp_path, "attack.json", self.payload(ubar="linear"))
        out = tmp_path / "out"
        assert cli.main(["attack", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "attack.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["is_attacker"] == "1"]
        gsv = [float(r["gsv"]) for r in rows]
        assert max(gsv) - min(gsv) < 1e-10

    def test_pieces_too_large(self, tmp_path):
        cfg = write_config(tmp_path, "attack.json",
                           self.payload(group_sizes=[2, 3], pieces=[4]))
        rc = cli.main(["attack", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 2

    def test_metadata_columns(self, tmp_path):
        cfg = write_config(tmp_path, "attack.json", self.payload())
        out = tmp_path / "out"
        cli.main(["attack", "--config", cfg, "--out", str(out), "--seed", "9"])
        with open(out / "attack.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["seed"] == "9"
        assert rows[0]["version"]
        assert rows[0]["timestamp"]


class TestAxiomsCommand:
    def payload(self, method="fgsv", partitions=None):
        if partitions is None:
            partitions = [
                {"explicit": [[0, 1], [2, 3], [4, 5], [6, 7]]},
                {"explicit": [[0, 1], [2, 3], [4, 5, 6, 7]]},
            ]
        return {
            "schema_version": 1,
            "game": {"type": "sou", "n": 8, "d": 16, "seed": 4},
            "method": method,
            "partitions": partitions,
        }

    def test_fgsv_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, "ax.json", self.payload())
        out = tmp_path / "out"
        assert cli.main(["axioms", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads((out / "axioms.json").read_text())
        assert all(v["passed"] for v in blob.values())

    def test_gsv_faithfulness_fails(self, tmp_path):
        payload = self.payload(method="gsv")
        payload["game"] = {"type": "size_only", "n": 8, "name": "saturating2"}
        cfg = write_config(tmp_path, "ax.json", payload)
        out = tmp_path / "out"
        assert cli.main(["axioms", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads((out / "axioms.json").read_text())
        assert not blob["faithfulness"]["passed"]

    def test_empty_partitions(self, tmp_path):
        cfg = write_config(tmp_path, "ax.json", self.payload(partitions=[]))
        rc = cli.main(["axioms", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 2


class TestExactCommand:
    def test_outputs_both_valuations(self, tmp_path):
        cfg = write_config(tmp_path, "exact.json", {
            "schema_version": 1,
            "game": {"type": "sou", "n": 6, "d": 10, "seed": 8},
            "groups": {"rule": "mod", "k": 3},
        })
        out = tmp_path / "out"
        assert cli.main(["exact", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "exact.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        fgsv_total = sum(float(r["fgsv"]) for r in rows)
        gsv_total = sum(float(r["gsv"]) for r in rows)
        assert fgsv_total == pytest.approx(gsv_total, abs=1e-9)
