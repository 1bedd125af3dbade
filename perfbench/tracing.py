"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each groupshapley layer from the
outside, by swapping module attributes for the length of a ``with`` block; the
package itself is not edited. Every wrapped call records one span (name,
start, end, parent span, thread id, a work count). Each thread keeps its own
span stack, so the worker threads of ``run_benchmark`` nest correctly. Spans
stay in memory until the run ends; :func:`layer_metrics` reduces them to the
per-layer numbers and :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

# Span record fields.
NAME, START, END, PARENT, TID, SID, COUNT, INFO = range(8)

BASELINE_METHODS = (
    "permutation", "group_testing", "complement_contribution", "one_for_all",
    "kernelshap", "unbiased_kernelshap", "leverageshap",
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._per_thread: list[list] = []
        # Span that a span opened on an idle thread (a pool worker) names as
        # its cause: the run_benchmark call that handed the thread its work.
        self._cause = None

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def wrap(self, name, fn, measure=None, is_cause=False):
        """Returns ``fn`` wrapped in a span. ``measure(args, kwargs, result)``
        returns (count, info) for the span; it runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._thread_state()
            stack = local.stack
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else self._cause
            rec = [name, 0, 0, parent, threading.get_ident(), sid, 0, None]
            local.spans.append(rec)
            stack.append(sid)
            if is_cause:
                self._cause = sid
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
                if is_cause:
                    self._cause = None
            if measure is not None:
                rec[COUNT], rec[INFO] = measure(args, kwargs, result)
            return result

        return traced

    def spans(self) -> list[list]:
        with self._lock:
            return [rec for spans in self._per_thread for rec in spans]

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "thread", "id", "count")
        with open(path, "w") as fh:
            for rec in self.spans():
                fh.write(json.dumps(dict(zip(keys, rec[:INFO]))) + "\n")

    @contextlib.contextmanager
    def install(self, gs):
        """Wraps each layer's entry points where its caller looks them up,
        in the package modules held by ``gs``, and restores them on exit.
        ``cli.main`` itself is wrapped by the caller."""
        games, estimator, baselines, bench, cli = (
            gs.games, gs.estimator, gs.baselines, gs.bench, gs.cli,
        )
        one = lambda a, k, r: (1, None)  # noqa: E731
        patches = [
            (games.Game, "evaluate", "games.evaluate", one),
            (games.Game, "evaluate_mask", "games.evaluate", one),
            (games.Game, "evaluate_masks", "games.evaluate",
             lambda a, k, r: (len(r), None)),
            (bench, "game_from_config", "games.build", one),
            (estimator, "sample_paired_tuples", "combinatorics.sample",
             _count_arg),
            (estimator, "sample_subsets_with_intersection",
             "combinatorics.sample", _count_arg),
            (estimator, "estimate_group_value", "estimator.estimate",
             _estimate_info),
            (bench, "estimate_group_value", "estimator.estimate",
             _estimate_info),
            (baselines, "solve_constrained_ls", "baselines.solve", one),
            (bench, "exact_shapley_values", "exact.shapley", one),
            (bench, "compute_truth", "bench.truth", one),
            (bench, "curve_aucc", "metrics.aucc", one),
            (cli, "run_benchmark", "bench.run", one),
        ]
        table = baselines.BASELINE_ESTIMATORS
        saved_table = dict(table)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        try:
            for owner, attr, name, measure in patches:
                setattr(owner, attr, self.wrap(
                    name, getattr(owner, attr), measure,
                    is_cause=(name == "bench.run"),
                ))
            for method, fn in saved_table.items():
                table[method] = self.wrap(f"baselines.{method}", fn, one)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            table.update(saved_table)


def _count_arg(args, kwargs, result):
    # sample_*(rng, n, members, s, s1, count)
    return (kwargs["count"] if "count" in kwargs else args[5]), None


def _estimate_info(args, kwargs, result):
    # estimate_group_value(game, members, config, rng)
    game, members = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs["config"]
    s0 = len(set(int(i) for i in members))
    return result.evaluations_used, (game.n, s0, config)


def useful_evaluations(n: int, s0: int, config, predicted: int) -> int:
    """Evaluations of one estimator call that are not spent on zero-weight
    grid cells (overlap s1 with s1/s equal to s0/n), computed from the plan."""
    wasted = 0
    for s in range(1, min(config.size_threshold, n)):
        lo, hi = max(0, s + s0 - n), min(s, s0)
        wasted += sum(config.grid_samples for s1 in range(lo, hi + 1) if s1 * n == s * s0)
    return predicted - wasted


def _covered_ns(spans) -> int:
    """Length of the union of the spans' intervals."""
    covered, reach = 0, None
    for rec in sorted(spans, key=lambda r: r[START]):
        start = rec[START] if reach is None else max(rec[START], reach)
        if rec[END] > start:
            covered += rec[END] - start
        reach = rec[END] if reach is None else max(reach, rec[END])
    return covered


def layer_metrics(spans: list[list], units: int, predicted_evaluations) -> dict:
    """Per-layer counts and times, averaged per timed unit. A span's self time
    is its duration minus the part of it that its child spans cover, on any
    thread; ``bench.parallelism`` is the summed time of run_benchmark's
    children over its wall time."""
    by_id = {rec[SID]: rec for rec in spans}
    children: dict[int, list] = {}
    for rec in spans:
        if rec[PARENT] in by_id:
            children.setdefault(rec[PARENT], []).append(rec)
    child_time = dict.fromkeys(by_id, 0)
    for sid, kids in children.items():
        child_time[sid] = _covered_ns(kids)

    count = {}
    total_ns = {}
    self_ns = {}
    for rec in spans:
        name = rec[NAME]
        count[name] = count.get(name, 0) + 1
        dur = rec[END] - rec[START]
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_time[rec[SID]]

    def per_unit_s(table, name):
        return table.get(name, 0) / 1e9 / units

    def work(name):
        return sum(rec[COUNT] for rec in spans if rec[NAME] == name)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    evals = work("games.evaluate")
    draws = work("combinatorics.sample")
    est_evals = work("estimator.estimate")
    planned = useful = 0
    for rec in spans:
        if rec[NAME] == "estimator.estimate":
            n, s0, config = rec[INFO]
            predicted = predicted_evaluations(n, s0, config)
            planned += predicted
            useful += useful_evaluations(n, s0, config, predicted)
    exact_evals = sum(
        rec[COUNT] for rec in spans
        if rec[NAME] == "games.evaluate"
        and rec[PARENT] in by_id and by_id[rec[PARENT]][NAME] == "exact.shapley"
    )
    runs = [rec for rec in spans if rec[NAME] == "bench.run"]
    run_ns = sum(rec[END] - rec[START] for rec in runs)
    run_children_ns = sum(
        kid[END] - kid[START] for rec in runs for kid in children.get(rec[SID], ())
    )

    m = {
        "games.evals": evals / units,
        "games.batches": count.get("games.evaluate", 0) / units,
        "games.busy_s": per_unit_s(self_ns, "games.evaluate"),
        "games.us_per_eval": ratio(self_ns.get("games.evaluate", 0), evals, 1e-3),
        "games.builds": count.get("games.build", 0) / units,
        "games.build_s": per_unit_s(self_ns, "games.build"),
        "combinatorics.calls": count.get("combinatorics.sample", 0) / units,
        "combinatorics.draws": draws / units,
        "combinatorics.busy_s": per_unit_s(self_ns, "combinatorics.sample"),
        "combinatorics.us_per_draw": ratio(self_ns.get("combinatorics.sample", 0), draws, 1e-3),
        "estimator.calls": count.get("estimator.estimate", 0) / units,
        "estimator.self_s": per_unit_s(self_ns, "estimator.estimate"),
        "estimator.us_per_eval": ratio(self_ns.get("estimator.estimate", 0), est_evals, 1e-3),
        "estimator.useful_eval_ratio": ratio(useful, planned),
    }
    for method in BASELINE_METHODS:
        m[f"baselines.{method}.self_s"] = per_unit_s(self_ns, f"baselines.{method}")
    m.update({
        "baselines.solves": count.get("baselines.solve", 0) / units,
        "baselines.solve_s": per_unit_s(self_ns, "baselines.solve"),
        "exact.calls": count.get("exact.shapley", 0) / units,
        "exact.evals": exact_evals / units,
        "exact.self_s": per_unit_s(self_ns, "exact.shapley"),
        "bench.truth_s": per_unit_s(total_ns, "bench.truth"),
        "bench.self_s": per_unit_s(self_ns, "bench.run") + per_unit_s(self_ns, "bench.truth"),
        "bench.parallelism": ratio(run_children_ns, run_ns),
        "metrics.aucc_calls": count.get("metrics.aucc", 0) / units,
        "metrics.aucc_s": per_unit_s(self_ns, "metrics.aucc"),
        "cli.self_s": per_unit_s(self_ns, "cli.main"),
    })
    return m


# Layer self times; together they cover every traced span exactly once.
SELF_TIME_METRICS = (
    "games.busy_s", "games.build_s", "combinatorics.busy_s", "estimator.self_s",
    *(f"baselines.{m}.self_s" for m in BASELINE_METHODS), "baselines.solve_s",
    "exact.self_s", "bench.self_s", "metrics.aucc_s", "cli.self_s",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name in ("estimator.useful_eval_ratio", "bench.parallelism"):
        return "ratio"
    return "count"


_NAMES = (
    "games.evals", "games.batches", "games.busy_s", "games.us_per_eval",
    "games.builds", "games.build_s",
    "combinatorics.calls", "combinatorics.draws", "combinatorics.busy_s",
    "combinatorics.us_per_draw",
    "estimator.calls", "estimator.self_s", "estimator.us_per_eval",
    "estimator.useful_eval_ratio",
    *(f"baselines.{m}.self_s" for m in BASELINE_METHODS),
    "baselines.solves", "baselines.solve_s",
    "exact.calls", "exact.evals", "exact.self_s",
    "bench.truth_s", "bench.self_s", "bench.parallelism",
    "metrics.aucc_calls", "metrics.aucc_s",
    "cli.self_s",
    "trace.wall_s", "trace.overhead_s",
)
# Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {name: _unit(name) for name in _NAMES}
