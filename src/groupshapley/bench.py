"""Batch experiment driver: validated JSON configs in, seeded CSV results out.

Runs every (replication, method) cell against ground truth, computes the
convergence and final-error metrics per group, and writes rows in a fixed,
deterministic order so identical configs reproduce identical files.
"""

from __future__ import annotations

import bisect
import csv
import ctypes
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines
from .baselines import BASELINE_ESTIMATORS, group_sum
from .estimator import EstimatorConfig, estimate_group_value, predicted_evaluations
from .exact import DEFAULT_CAP, Partition, exact_shapley_values, mod_partition
from .games import Game, SOUGame, game_from_config
from .metrics import aucc as curve_aucc

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
THREADS_ENV_VAR = "GROUPSHAPLEY_THREADS"

RESULT_COLUMNS = [
    "method", "n", "group_id", "seed", "evals", "estimate",
    "truth", "truth_source", "abs_rel_err", "aucc", "wall_time_ns",
]
SUMMARY_COLUMNS = [
    "method", "group_id", "are_mean", "are_sd", "aucc_mean", "aucc_sd",
]


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _require_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")


def _require_int(value, where: str, minimum: int) -> int:
    """Returns ``value`` if it is an integer >= ``minimum``. Anything else,
    a bool, a float or a string included, raises :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def _require_number(value, where: str) -> None:
    """Raises :class:`ConfigError` unless ``value`` is a JSON number (not a
    bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")


def _require_index_lists(value, where: str, item: str) -> None:
    """Raises :class:`ConfigError` unless ``value`` is a list of lists of
    integers >= 0."""
    if not isinstance(value, list) or not all(isinstance(a, list) for a in value):
        raise ConfigError(f"{where} must be a list of index lists")
    for i in (i for a in value for i in a):
        _require_int(i, f"{item} index", 0)


def _check_schema_version(cfg: dict, where: str) -> None:
    version = cfg.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"{where}: schema_version must be {SCHEMA_VERSION}, "
            f"got {version!r}"
        )


GAME_KEYS = {
    "sou": {"type", "n", "d", "seed"},
    "sou_explicit": {"type", "n", "subsets", "coefficients"},
    "size_only": {"type", "n", "name"},
    "regression_csv": {"type", "path", "test_fraction", "lambda", "seed"},
}


def validate_game_spec(spec: dict, where: str = "game") -> None:
    """Checks the spec's fields, and that its integer fields are integers
    at or above their minimum; the game's constructor checks the rest."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{where}: expected an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in GAME_KEYS:
        raise ConfigError(f"{where}: unknown game type {kind!r}")
    _require_keys(spec, GAME_KEYS[kind], GAME_KEYS[kind], where)
    for key, minimum in (("n", 1), ("d", 1), ("seed", 0)):
        if key in spec:
            _require_int(spec[key], f"{where}: {key}", minimum)
    if kind == "sou_explicit":
        _require_index_lists(spec["subsets"], f"{where}: subsets", f"{where}: subset")
        if not isinstance(spec["coefficients"], list):
            raise ConfigError(f"{where}: coefficients must be a list of numbers")
        for c in spec["coefficients"]:
            _require_number(c, f"{where}: coefficient")
    elif kind == "regression_csv":
        for key in ("test_fraction", "lambda"):
            _require_number(spec[key], f"{where}: {key}")


def build_game(spec: dict) -> Game:
    """Validates a game spec and builds the game. Errors in the spec or in
    the data it names, such as an unreadable or malformed regression CSV,
    raise :class:`ConfigError`."""
    validate_game_spec(spec)
    try:
        return game_from_config(spec)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"game: {exc}") from exc


def partition_from_spec(spec: dict, n: int, where: str = "groups") -> Partition:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object")
    if "rule" in spec:
        _require_keys(spec, {"rule", "k"}, {"rule", "k"}, where)
        if spec["rule"] != "mod":
            raise ConfigError(f"{where}: unknown rule {spec['rule']!r}")
        k = _require_int(spec["k"], f"{where}: k", 1)
        if k > n:
            raise ConfigError(f"{where}: k must be in 1..{n}")
        return mod_partition(n, k)
    _require_keys(spec, {"explicit"}, {"explicit"}, where)
    _require_index_lists(spec["explicit"], f"{where}: explicit", f"{where}: group")
    try:
        return Partition(spec["explicit"], n=n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


METHOD_KEYS = {
    "fgsv": {"name", "size_threshold", "grid_samples", "pair_samples", "exhaustive"},
}


def _check_fgsv_values(method: dict) -> None:
    for key in ("size_threshold", "grid_samples", "pair_samples"):
        _require_int(method.get(key, 1), f"methods[fgsv]: {key}", 1)
    if not isinstance(method.get("exhaustive", False), bool):
        raise ConfigError(
            f"methods[fgsv]: exhaustive must be true or false, got {method['exhaustive']!r}"
        )


@dataclass
class BenchConfig:
    game_spec: dict
    groups_spec: dict
    methods: list[dict]
    budget: int
    replications: int
    checkpoint_interval: int = 200
    seed: int = 0
    truth: dict = field(default_factory=lambda: {"source": "auto"})

    @classmethod
    def from_dict(cls, cfg: dict) -> "BenchConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be an object")
        _check_schema_version(cfg, "config")
        allowed = {
            "schema_version", "game", "groups", "methods", "budget",
            "replications", "checkpoint_interval", "seed", "truth",
        }
        _require_keys(cfg, allowed, {"schema_version", "game", "groups",
                                     "methods", "budget", "replications"}, "config")
        validate_game_spec(cfg["game"])
        methods = cfg["methods"]
        if not isinstance(methods, list) or not methods:
            raise ConfigError("methods: need a non-empty list")
        for m in methods:
            if not isinstance(m, dict) or "name" not in m:
                raise ConfigError("methods: each entry needs a 'name'")
            if not isinstance(m["name"], str) or m["name"] not in METHODS:
                raise ConfigError(f"methods: unknown method {m['name']!r}")
            allowed_keys = METHOD_KEYS.get(m["name"], {"name"})
            _require_keys(m, allowed_keys, {"name"}, f"methods[{m['name']}]")
            if m["name"] == "fgsv":
                _check_fgsv_values(m)
        truth = cfg.get("truth", {"source": "auto"})
        _require_keys(truth, {"source", "reference_budget"}, {"source"}, "truth")
        if truth["source"] not in ("auto", "closed_form", "exact", "reference"):
            raise ConfigError(f"truth: unknown source {truth['source']!r}")
        return cls(
            game_spec=cfg["game"],
            groups_spec=cfg["groups"],
            methods=methods,
            budget=_require_int(cfg["budget"], "budget", 1),
            replications=_require_int(cfg["replications"], "replications", 1),
            checkpoint_interval=_require_int(
                cfg.get("checkpoint_interval", 200), "checkpoint_interval", 1),
            seed=_require_int(cfg.get("seed", 0), "seed", 0),
            truth=truth,
        )


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def resolve_threads(flag_value: int | None) -> int:
    if flag_value is not None:
        if flag_value < 1:
            raise ConfigError("--threads must be >= 1")
        return flag_value
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            k = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer") from exc
        if k < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1")
        return k
    return 1


def _rng_for(base_seed: int, rep: int, method_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(base_seed, spawn_key=(rep, method_index))
    return np.random.default_rng(ss)


def compute_truth(config: BenchConfig, game: Game, partition: Partition):
    """Per-group ground-truth values plus a source label."""
    source = config.truth["source"]
    if source == "auto":
        if isinstance(game, SOUGame):
            source = "closed_form"
        elif game.n <= DEFAULT_CAP:
            source = "exact"
        elif "reference_budget" in config.truth:
            source = "reference"
        else:
            raise ConfigError(
                "no ground truth available: game has no closed form, "
                f"n > {DEFAULT_CAP}, and no truth.reference_budget given"
            )
    if source == "closed_form":
        if not isinstance(game, SOUGame):
            raise ConfigError("truth.source=closed_form needs a sum-of-unanimity game")
        sv = game.exact_shapley_vector()
    elif source == "exact":
        if game.n > DEFAULT_CAP:
            raise ConfigError(f"truth.source=exact needs n <= {DEFAULT_CAP}")
        sv = exact_shapley_values(game)
    elif source == "reference":
        if "reference_budget" not in config.truth:
            raise ConfigError("truth.source=reference needs truth.reference_budget")
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(0xFEED,))
        )
        sv = baselines.permutation_estimator(
            game, config.truth["reference_budget"], rng).values
    else:
        raise ConfigError(f"unknown truth source {source!r}")
    truths = [float(sv[list(g)].sum()) for g in partition.groups]
    return truths, source


def fgsv_config_for(n: int, s0: int, per_group_budget: int, method: dict) -> EstimatorConfig:
    """Estimator parameters that spend close to (and never more than) the
    per-group share of the budget, with equal sample counts in both regimes
    unless overridden. With enumeration, the counts are the largest whose
    plan fits the share."""
    s_bar = max(1, min(int(method.get("size_threshold", 10)), n))
    probe = EstimatorConfig(size_threshold=s_bar, grid_samples=1, pair_samples=1)
    per_sample = predicted_evaluations(n, s0, probe) - 2
    explicit = "grid_samples" in method or "pair_samples" in method
    if explicit:
        m1 = int(method.get("grid_samples", 1))
        m2 = int(method.get("pair_samples", m1))
    else:
        m1 = m2 = max(1, (per_group_budget - 2) // max(per_sample, 1))
    cfg = EstimatorConfig(
        size_threshold=s_bar,
        grid_samples=m1,
        pair_samples=m2,
        exhaustive_small_sizes=bool(method.get("exhaustive", False)),
    )
    if cfg.exhaustive_small_sizes and not explicit:
        # An enumerated family costs fewer rows than m samples, so more
        # samples may fit. The cost never falls as m grows, and past the
        # share it exceeds the share unless every cell is enumerated.
        def cost(m):
            return predicted_evaluations(n, s0, replace(cfg, grid_samples=m, pair_samples=m))
        m1 += bisect.bisect_right(range(m1 + 1, per_group_budget + 1),
                                  per_group_budget, key=cost)
        cfg = replace(cfg, grid_samples=m1, pair_samples=m1)
    predicted = predicted_evaluations(n, s0, cfg)
    # Aim for comfortably more than 100 curve checkpoints per group.
    cfg.checkpoint_interval = max(1, predicted // 120)
    return cfg


def _fgsv_run(game: Game, groups, rng, config: BenchConfig, method: dict):
    # One run per group, in group order on the one RNG, on the group's share.
    share = config.budget // len(groups)
    runs = [estimate_group_value(game, g, fgsv_config_for(game.n, len(g), share, method),
                                 rng=rng) for g in groups]
    return [(est.value, est.evaluations_used, est.curve) for est in runs]


def _fgsv_need(n: int, groups, config: BenchConfig, method: dict):
    # A run past its share draws the fewest samples it can, so then k times
    # the largest run is the least budget that fits.
    share = config.budget // len(groups)
    used = max(predicted_evaluations(n, len(g), fgsv_config_for(n, len(g), share, method))
               for g in groups)
    return used * len(groups), None


def _baseline(name: str):
    # One run on the whole budget, the estimator looked up when it runs; a
    # group's estimate is the sum of its members' values.
    def run(game, groups, rng, config, method):
        est = BASELINE_ESTIMATORS[name](game, config.budget, rng, groups=groups,
                                        checkpoint_interval=config.checkpoint_interval)
        return [(group_sum(est, g), est.evaluations_used, est.curves[gid])
                for gid, g in enumerate(groups)]

    def need(n, groups, config, method):
        try:
            least = baselines.min_baseline_budget(name, n)
        except ValueError as exc:
            raise ConfigError(f"methods[{name}]: {exc}") from exc
        return least, (baselines.predicted_baseline_evaluations(name, n, config.budget)
                       if config.budget >= least else None)

    return run, need


# Each method's (run, need): ``run(game, groups, rng, config, method)`` gives
# one (estimate, evals, curve) per group; ``need(n, groups, config, method)``
# the least budget and, for a baseline within budget, the evaluations spent.
METHODS = {"fgsv": (_fgsv_run, _fgsv_need)} | {
    name: _baseline(name) for name in BASELINE_ESTIMATORS}


def _run_cell(config: BenchConfig, game: Game, partition: Partition, rep: int,
              method_index: int, method: dict):
    """One (replication, method) run on the shared game, through the
    method's ``METHODS`` entry on the cell's one RNG; returns one row dict
    per group. Every row's ``wall_time_ns`` is the whole run's time."""
    name = method["name"]
    rng = _rng_for(config.seed, rep, method_index)
    t0 = time.perf_counter_ns()
    runs = METHODS[name][0](game, partition.groups, rng, config, method)
    elapsed = time.perf_counter_ns() - t0
    return [{"method": name, "group_id": gid, "rep": rep, "evals": evals,
             "estimate": estimate, "curve": curve, "wall_time_ns": elapsed}
            for gid, (estimate, evals, curve) in enumerate(runs)]


# Set in each worker process by _init_worker. A forked worker inherits the
# parent's game, so passing it to the initializer copies nothing; passing it
# with every cell would pickle it once per cell.
_worker_args = None


def _init_worker(config: BenchConfig, game: Game, partition: Partition,
                 workers: int) -> None:
    global _worker_args
    _worker_args = (config, game, partition)
    # Each worker inherits the parent's whole BLAS pool; left so, the pools'
    # spinning threads take the cores the other workers compute on.
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    _set_openblas_threads(max(1, cores // workers))


def _run_worker_cell(cell) -> list[dict]:
    return _run_cell(*_worker_args, *cell)


_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _set_openblas_threads(count: int) -> None:
    """Sets the thread count of every OpenBLAS loaded in this process, found
    by path in /proc/self/maps; does nothing where there is none or no such
    file. Other BLAS libraries are left alone."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _OPENBLAS_SET_THREADS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(count)


def _safe_are(estimate: float, truth: float) -> float:
    if truth == 0:
        return math.nan
    return abs((truth - estimate) / truth)


def _safe_aucc(curve, truth: float) -> float:
    if curve is None or len(curve) == 0 or truth == 0:
        return math.nan
    return curve_aucc(curve, truth, num_checkpoints=min(100, len(curve)))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def run_benchmark(config: BenchConfig, out_dir, threads: int = 1) -> dict:
    """Runs the full grid and writes results.csv and summary.csv in out_dir.

    The game is built once and every cell evaluates it; each cell's
    ``evaluations_used`` is read off its run's plan or schedule. A row's
    ``wall_time_ns`` is its (replication, method) run's time, the same on
    its k rows. Its ``evals`` is the run's total for a baseline, and the
    group's share for fgsv, which runs once per group on ``budget // k``.
    With ``threads`` > 1 the cells run in up to ``threads`` worker processes
    forked from this one, which share the game without copying it. Each of
    N workers sets every loaded OpenBLAS to ``max(1, cores // N)`` threads,
    cores being those this process may run on; this process keeps its own
    BLAS setting, and other BLAS libraries are left alone. The first cell to
    raise cancels the cells not yet started, and its error is raised here
    after every worker has exited. Rows appear in (replication, method,
    group) order regardless of the worker count; group ids are 1-based in
    the output.
    """
    cells = [
        (rep, mi, m)
        for rep in range(config.replications)
        for mi, m in enumerate(config.methods)
    ]
    workers = min(threads, len(cells))
    if workers > 1:
        # Imported only here: loading them takes ~13 ms, which the sequential
        # path and the other commands would pay for nothing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            fork = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise ConfigError("--threads > 1 needs the fork start method, "
                              "which this platform lacks") from exc
    game = build_game(config.game_spec)
    partition = partition_from_spec(config.groups_spec, game.n)
    _validate_budgets(config, game.n, partition)
    truths, truth_source = compute_truth(config, game, partition)
    os.makedirs(out_dir, exist_ok=True)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork,
                                 initializer=_init_worker,
                                 initargs=(config, game, partition, workers)) as pool:
            try:
                cell_rows = list(pool.map(_run_worker_cell, cells))
            except BaseException:
                # CPython's map cancels the rest as well, but does not say so.
                pool.shutdown(cancel_futures=True)
                raise
    else:
        cell_rows = [_run_cell(config, game, partition, *c) for c in cells]

    results_path = os.path.join(out_dir, "results.csv")
    per_method_group: dict[tuple[str, int], list[tuple[float, float]]] = {}
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for rows in cell_rows:
            for r in rows:
                truth = truths[r["group_id"]]
                err = _safe_are(r["estimate"], truth)
                auc = _safe_aucc(r["curve"], truth)
                writer.writerow([
                    r["method"], game.n, r["group_id"] + 1, r["rep"],
                    r["evals"], _fmt(r["estimate"]), _fmt(truth), truth_source,
                    _fmt(err), _fmt(auc), r["wall_time_ns"],
                ])
                per_method_group.setdefault((r["method"], r["group_id"]), []).append((err, auc))
            log.info("replication %d method %-22s done",
                     rows[0]["rep"], rows[0]["method"])

    summary_path = os.path.join(out_dir, "summary.csv")
    mean_are: dict[str, float] = {}
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for m in config.methods:
            name = m["name"]
            method_ares = []
            for gid in range(len(partition)):
                ares, auccs = np.array(per_method_group[(name, gid)]).T
                writer.writerow([
                    name, gid + 1,
                    _fmt(float(np.nanmean(ares))),
                    _fmt(float(np.nanstd(ares, ddof=1)) if len(ares) > 1 else 0.0),
                    _fmt(float(np.nanmean(auccs))),
                    _fmt(float(np.nanstd(auccs, ddof=1)) if len(auccs) > 1 else 0.0),
                ])
                method_ares.extend(ares)
            mean_are[name] = float(np.nanmean(method_ares))
    return {
        "results_csv": results_path,
        "summary_csv": summary_path,
        "truth_source": truth_source,
        "method_mean_are": mean_are,
    }


def _validate_budgets(config: BenchConfig, n: int, partition: Partition) -> None:
    """Checks the budget against each method's least budget on n players,
    then each baseline's evaluations against the checkpoint interval, both
    read through ``METHODS``, and the reference-truth budget against the
    permutation estimator's."""
    spent = []
    for m in config.methods:
        least, evals = METHODS[m["name"]][1](n, partition.groups, config, m)
        if config.budget < least:
            raise ConfigError(f"budget {config.budget} below minimum {least} for {m['name']}")
        spent.append((m["name"], evals))
    # A baseline spending fewer evaluations than checkpoint_interval records
    # no checkpoint, so its AUCC is undefined.
    for name, used in spent:
        if used is not None and used < config.checkpoint_interval:
            raise ConfigError(f"budget {config.budget} gives {name} {used} evaluations, "
                              f"below checkpoint_interval {config.checkpoint_interval}")
    if "reference_budget" in config.truth:
        _require_int(config.truth["reference_budget"], "truth: reference_budget",
                     baselines.min_baseline_budget("permutation", n))
