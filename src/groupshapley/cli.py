"""Command-line entry point: bench, attack, axioms, and exact subcommands.

Every subcommand reads a versioned JSON config, writes its outputs under
--out, and reports problems through exit codes: 0 on success, 2 for config
errors, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .attacks import ATTACK_GAME_CAP, MAX_GROUPS, SplitSchedule, run_attack
from .baselines import NumericError
from .bench import (
    BenchConfig,
    ConfigError,
    THREADS_ENV_VAR,
    _check_schema_version,
    _fmt,
    _require_int,
    _require_keys,
    build_game,
    load_config,
    partition_from_spec,
    resolve_threads,
    run_benchmark,
)
from .exact import (
    DEFAULT_CAP,
    Partition,
    check_axioms,
    exact_group_shapley,
    fgsv_valuation,
)
from .games import SIZE_UTILITIES, Game

log = logging.getLogger("groupshapley")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _cmd_bench(cfg: dict, out_dir: str, seed: int | None, threads: int | None) -> int:
    threads = resolve_threads(threads)
    bench_cfg = BenchConfig.from_dict(cfg)
    if seed is not None:
        bench_cfg.seed = _require_int(seed, "--seed", 0)
    info = run_benchmark(bench_cfg, out_dir, threads=threads)
    log.info("wrote %s and %s (truth: %s)",
             info["results_csv"], info["summary_csv"], info["truth_source"])
    means = info["method_mean_are"]
    for name in sorted(means, key=means.get):
        log.info("mean ARE %-22s %.6g", name, means[name])
    return EXIT_OK


def _check_players(game: Game, cap: int, what: str) -> None:
    """Rejects a game too large for an exact enumeration of 2^n coalitions."""
    if game.n > cap:
        raise ConfigError(f"game: {what} needs n <= {cap}, got n = {game.n}")


def _attack_partition(cfg: dict):
    """Returns (source, base_partition) from an attack config."""
    if ("ubar" in cfg) == ("game" in cfg):
        raise ConfigError("attack config needs exactly one of 'ubar' or 'game'")
    if "ubar" in cfg:
        name = cfg["ubar"]
        if not isinstance(name, str) or name not in SIZE_UTILITIES:
            raise ConfigError(f"unknown size-utility name {name!r}")
        sizes = cfg.get("group_sizes")
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError("attack with 'ubar' needs non-empty 'group_sizes'")
        sizes = [_require_int(s, "group_sizes", 1) for s in sizes]
        groups, pos = [], 0
        for s in sizes:
            groups.append(list(range(pos, pos + s)))
            pos += s
        return SIZE_UTILITIES[name], Partition(groups, n=pos)
    game = build_game(cfg["game"])
    _check_players(game, ATTACK_GAME_CAP, "attack")
    partition = partition_from_spec(cfg["groups"], game.n)
    return game, partition


def _cmd_attack(cfg: dict, out_dir: str, seed: int | None, threads: int | None) -> int:
    _check_schema_version(cfg, "config")
    allowed = {"schema_version", "ubar", "game", "group_sizes", "groups",
               "target_group", "pieces"}
    _require_keys(cfg, allowed, {"schema_version", "target_group", "pieces"}, "config")
    source, partition = _attack_partition(cfg)
    target = _require_int(cfg["target_group"], "target_group", 0)
    if target >= len(partition):
        raise ConfigError("target_group out of range")
    pieces = cfg["pieces"]
    if not isinstance(pieces, list) or not pieces:
        raise ConfigError("pieces must be a non-empty list")
    group_size = len(partition.groups[target])
    schedules = []
    for p in pieces:
        if _require_int(p, "pieces", 2) > group_size:
            raise ConfigError(
                f"cannot split a group of {group_size} into {p} pieces"
            )
        schedules.append(SplitSchedule(target, p))
    if not isinstance(source, Game):
        split_groups = len(partition) - 1 + max(sc.pieces for sc in schedules)
        if split_groups > MAX_GROUPS:
            raise ConfigError(f"attack with 'ubar' needs at most {MAX_GROUPS} groups, "
                              f"got {split_groups} after the largest split")
    report = run_attack(source, partition, schedules)

    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    csv_path = os.path.join(out_dir, "attack.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schedule", "group", "is_attacker", "gsv", "fgsv",
                         "prudent", "seed", "version", "timestamp"])
        for r in report.rows:
            writer.writerow([
                r.pieces, r.group + 1, int(r.is_attacker),
                _fmt(r.gsv), _fmt(r.fgsv), int(report.prudent),
                seed if seed is not None else "", __version__, stamp,
            ])
    report.write_json(os.path.join(out_dir, "attack.json"))
    log.info("attacker GSV by pieces: %s",
             ["%.6g" % v for v in report.extras["attacker_gsv"]])
    log.info("GSV monotone: %s, FGSV constant: %s",
             report.gsv_monotone, report.fgsv_constant)
    return EXIT_OK


def _cmd_axioms(cfg: dict, out_dir: str, seed: int | None, threads: int | None) -> int:
    _check_schema_version(cfg, "config")
    allowed = {"schema_version", "game", "method", "partitions", "tol"}
    _require_keys(cfg, allowed, {"schema_version", "game", "method", "partitions"},
                  "config")
    method = cfg["method"]
    if method not in ("fgsv", "gsv"):
        raise ConfigError(f"method must be 'fgsv' or 'gsv', got {method!r}")
    tol = cfg.get("tol", 1e-10)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r}")
    game = build_game(cfg["game"])
    if method == "fgsv":
        _check_players(game, DEFAULT_CAP, "axioms with method fgsv")
    specs = cfg["partitions"]
    if not isinstance(specs, list) or not specs:
        raise ConfigError("partitions must be a non-empty list")
    partitions = [partition_from_spec(sp, game.n, f"partitions[{i}]")
                  for i, sp in enumerate(specs)]
    if method == "gsv":
        for i, part in enumerate(partitions):
            if len(part) > DEFAULT_CAP:
                raise ConfigError(f"partitions[{i}]: axioms with method gsv needs "
                                  f"at most {DEFAULT_CAP} groups, got {len(part)}")
    valuation = fgsv_valuation if method == "fgsv" else exact_group_shapley
    report = check_axioms(valuation, game, partitions, tol=float(tol))

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "axioms.json")
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    for name, res in report.results.items():
        log.info("%-12s %-4s (max deviation %.3g)",
                 name, "pass" if res.passed else "FAIL", res.max_deviation)
    return EXIT_OK


def _cmd_exact(cfg: dict, out_dir: str, seed: int | None, threads: int | None) -> int:
    _check_schema_version(cfg, "config")
    _require_keys(cfg, {"schema_version", "game", "groups"},
                  {"schema_version", "game", "groups"}, "config")
    game = build_game(cfg["game"])
    _check_players(game, DEFAULT_CAP, "exact")
    partition = partition_from_spec(cfg["groups"], game.n)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "exact.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "size", "fgsv", "gsv"])
        for k, g in enumerate(partition.groups):
            fgsv = fgsv_valuation(game, partition, k)
            gsv = exact_group_shapley(game, partition, k)
            writer.writerow([k + 1, len(g), _fmt(fgsv), _fmt(gsv)])
            log.info("group %d: fgsv=%.10g gsv=%.10g", k + 1, fgsv, gsv)
    return EXIT_OK


COMMANDS = {
    "bench": _cmd_bench,
    "attack": _cmd_attack,
    "axioms": _cmd_axioms,
    "exact": _cmd_exact,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupshapley",
        description="Group data valuation experiments: benchmarks, "
                    "split attacks, axiom checks, exact oracles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("bench", "run a convergence benchmark from a JSON config"),
        ("attack", "run a shell-company split attack comparison"),
        ("axioms", "check the group-valuation axioms for a method"),
        ("exact", "brute-force group values for a small game"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for bench cells, each with "
                            "max(1, cores // workers) OpenBLAS threads; other commands "
                            f"ignore it (default: ${THREADS_ENV_VAR} or 1)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args.out, args.seed, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
