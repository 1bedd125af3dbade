"""Brute-force oracles: exact Shapley values, group values, conditional mean
utilities, and the size-decomposition identity, plus the axiom checker.

Everything here enumerates subsets, so it is capped (default n = 20, i.e. at
most ~1M utility evaluations) and meant as ground truth for the estimators.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import _check_feasible, _member_indices, size_term_weights
from .games import Game

DEFAULT_CAP = 20


@dataclass(frozen=True)
class Partition:
    """Disjoint, non-empty index groups covering {0..n-1}."""

    groups: tuple[tuple[int, ...], ...]
    n: int

    def __init__(self, groups, n: int):
        canon = tuple(tuple(sorted(g)) for g in groups)
        object.__setattr__(self, "groups", canon)
        object.__setattr__(self, "n", n)
        flat = [i for g in canon for i in g]
        if any(len(g) == 0 for g in canon):
            raise ValueError("empty group in partition")
        if len(set(flat)) != len(flat):
            raise ValueError("groups overlap")
        if sorted(flat) != list(range(n)):
            raise ValueError(f"groups do not cover 0..{n - 1}")

    def __len__(self) -> int:
        return len(self.groups)


def mod_partition(n: int, k: int) -> Partition:
    """Groups players by index residue: group j holds {i : i ≡ j (mod k)}."""
    return Partition([range(j, n, k) for j in range(k)], n=n)


def _all_masks(n: int) -> np.ndarray:
    """Row m is the bitmask m as n bools, unpacked from its little-endian
    uint32 bytes: n bytes per coalition and no wider temporary."""
    ids = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(ids, axis=1, count=n, bitorder="little").view(bool)


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Entry m is the sum of ``values[i]`` over the bits i set in m, in the
    dtype of ``values``; all ones count coalition sizes."""
    out = np.zeros(1 << len(values), dtype=values.dtype)
    for i, v in enumerate(values):
        np.add(out[: 1 << i], v, out=out[1 << i : 2 << i])
    return out


def utility_table(game: Game) -> np.ndarray:
    """Evaluates every subset once; entry m is the utility of the bitmask m."""
    n = game.n
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds brute-force cap {DEFAULT_CAP}")
    return game.evaluate_masks(_all_masks(n))


def _shapley_weights(n: int) -> np.ndarray:
    """Entry s is the permutation weight s! (n-s-1)! / n! of a coalition of
    s of the other players, computed in log-space."""
    return np.exp([math.lgamma(s + 1) + math.lgamma(n - s) - math.lgamma(n + 1)
                   for s in range(n)])


def exact_shapley_values(game: Game) -> np.ndarray:
    """All n individual Shapley values by full enumeration (2^n evaluations)."""
    n = game.n
    table = utility_table(game)
    sizes = _subset_sums(np.ones(n, dtype=np.uint8))
    weights = _shapley_weights(n)
    sv = np.zeros(n)
    for i in range(n):
        # Row r, column c of the view holds the bitmask with the bits above i
        # equal to r, bit i to the middle index and the bits below i to c, so
        # the [:, 0] entries list the coalitions without i in ascending order.
        pairs = table.reshape(-1, 2, 1 << i)
        marginals = (pairs[:, 1] - pairs[:, 0]).ravel()
        sv[i] = float(weights[sizes.reshape(-1, 2, 1 << i)[:, 0]].ravel() @ marginals)
    return sv


def exact_group_shapley(game: Game, partition: Partition, k: int) -> float:
    """Group-as-player Shapley value of group k: enumerates coalitions of the
    other groups and averages the target group's marginal contributions."""
    _check_group(game, partition, k)
    groups = partition.groups
    others = [g for j, g in enumerate(groups) if j != k]
    K = len(others)
    if K + 1 > DEFAULT_CAP:
        raise ValueError(f"too many groups ({K + 1}) for exact enumeration")
    n = game.n
    target = np.zeros(n, dtype=bool)
    target[list(groups[k])] = True
    # Row `bits` is the union of the groups whose bits are set. The groups are
    # disjoint, so each player of another group copies that group's column
    # of `selected`; every other player copies an extra column of zeros.
    column = np.full(n, K)
    for j, g in enumerate(others):
        column[list(g)] = j
    selected = _all_masks(K)
    union_masks = np.pad(selected, ((0, 0), (0, 1)))[:, column]
    with_target = union_masks | target
    u_without = game.evaluate_masks(union_masks)
    u_with = game.evaluate_masks(with_target)
    weights = _shapley_weights(K + 1)[_subset_sums(np.ones(K, dtype=np.uint8))]
    return float(weights @ (u_with - u_without))


def exact_faithful_group_shapley(game: Game, members) -> float:
    """Sum of the members' individual Shapley values."""
    members = _member_indices(members, game.n)
    if len(members) == 0:
        return 0.0
    return float(_shapley_table(game)[members].sum())


# Each game's exact Shapley values, computed once per game object. Games are
# pure utilities, so the table never goes stale; it goes with its game. A
# NullAugmentedGame, whose null draws are random, keeps its first table.
_SHAPLEY_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shapley_table(game: Game) -> np.ndarray:
    """The game's exact Shapley values: one 2^n table per game object, shared
    by every partition, group and member set valued on it."""
    if game not in _SHAPLEY_TABLES:
        _SHAPLEY_TABLES[game] = exact_shapley_values(game)
    return _SHAPLEY_TABLES[game]


def _check_group(game: Game, partition: Partition, k: int = 0) -> None:
    """Rejects a partition that does not cover exactly the game's players,
    or a group index outside it."""
    if partition.n != game.n:
        raise ValueError(f"partition covers {partition.n} players, game has {game.n}")
    if not (0 <= k < len(partition)):
        raise ValueError(f"group index {k} out of range")


def _combination_masks(n: int, pool: np.ndarray, k: int) -> np.ndarray:
    """One row per k-subset of ``pool``, in ``itertools.combinations`` order."""
    idx = np.array(list(itertools.combinations(pool.tolist(), k)), dtype=np.intp)
    masks = np.zeros((len(idx), n), dtype=bool)
    np.put_along_axis(masks, idx.reshape(len(idx), k), True, axis=1)
    return masks


def _family_masks(n: int, members: np.ndarray, s: int, s1: int) -> np.ndarray:
    """Every subset of size s meeting ``members`` in s1 points; the member
    part varies slowest."""
    inside = _combination_masks(n, members, s1)
    outside = _combination_masks(n, np.setdiff1d(np.arange(n), members), s - s1)
    return (inside[:, None, :] | outside[None, :, :]).reshape(-1, n)


def exact_mean_utility(game: Game, members, s: int, s1: int) -> float:
    """Average utility over all subsets of size s intersecting the member set
    in exactly s1 points, by enumeration."""
    members = _member_indices(members, game.n)
    _check_feasible(game.n, len(members), s, s1)
    masks = _family_masks(game.n, members, s, s1)
    return float(game.evaluate_masks(masks).mean())


def exact_size_term(game: Game, members, s: int) -> float:
    """Per-size contribution in the size decomposition of the faithful group
    value: :func:`size_profile_term` over the enumerated conditional mean
    utilities."""
    members = _member_indices(members, game.n)
    return size_profile_term(
        lambda s1, size: exact_mean_utility(game, members, size, s1),
        game.n, len(members), s,
    )


def faithful_group_shapley_by_sizes(game: Game, members) -> float:
    """Faithful group value via its coalition-size decomposition: the
    efficiency share plus the sum of per-size terms. Agrees with
    :func:`exact_faithful_group_shapley` up to rounding."""
    members = _member_indices(members, game.n)
    if len(members) == 0:
        return 0.0
    n = game.n
    s0 = len(members)
    u_full = game.evaluate(range(n))
    u_empty = game.evaluate([])
    total = (s0 / n) * (u_full - u_empty)
    for s in range(1, n):
        total += exact_size_term(game, members, s)
    return total


def size_profile_term(profile, n: int, s0: int, s: int) -> float:
    """Size-s term of the faithful group value when ``profile(s1, s)`` is the
    mean utility over coalitions of size s meeting the group in s1 players:
    the :func:`size_term_weights`-weighted sum of the profile."""
    lo, weights = size_term_weights(n, s0, s)
    total = 0.0
    for s1, w in enumerate(weights, start=lo):
        total += w * profile(s1, s)
    return total


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass
class AxiomResult:
    passed: bool
    max_deviation: float
    detail: str = ""


@dataclass
class AxiomReport:
    results: dict[str, AxiomResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                name: {
                    "passed": bool(r.passed),
                    "max_deviation": float(r.max_deviation),
                    "detail": r.detail,
                }
                for name, r in self.results.items()
            },
            indent=2,
        )


def fgsv_valuation(game: Game, partition: Partition, k: int) -> float:
    """Faithful group valuation: sum of members' exact Shapley values. The
    2^n table is built once per game, not once per (partition, group)."""
    _check_group(game, partition, k)
    return exact_faithful_group_shapley(game, partition.groups[k])


class _MaskTransformGame(Game):
    """Applies a fixed transform to a (batch, n) mask array before delegating
    to the base utility."""

    def __init__(self, base: Game, transform):
        super().__init__(base.n)
        self.base = base
        self.transform = transform

    def _values(self, masks: np.ndarray) -> np.ndarray:
        return self.base._values(self.transform(masks))


def _reverse_players(masks: np.ndarray) -> np.ndarray:
    return masks[:, ::-1]


class _ComboGame(Game):
    """Linear combination of several games' utilities."""

    def __init__(self, parts: list[tuple[float, Game]]):
        super().__init__(parts[0][1].n)
        self.parts = parts

    def _values(self, masks: np.ndarray) -> np.ndarray:
        return sum(a * g._values(masks) for a, g in self.parts)


class _SymmetricPairGame(Game):
    """Utility that provably treats two equal-size groups interchangeably: it
    sees them only through the combined membership count."""

    def __init__(self, base: Game, g1, g2):
        super().__init__(base.n)
        self.base = base
        self.pair = np.zeros(base.n, dtype=bool)
        self.pair[list(g1)] = True
        self.pair[list(g2)] = True

    def _values(self, masks: np.ndarray) -> np.ndarray:
        t = (masks & self.pair).sum(axis=1)
        return 0.1 * t * t + t + self.base._values(masks & ~self.pair)


def check_axioms(
    valuation,
    game: Game,
    partitions: list[Partition],
    second_game: Game | None = None,
    tol: float = 1e-10,
) -> AxiomReport:
    """Empirically checks the five group-valuation axioms for ``valuation``,
    a callable (game, partition, k) -> float. Every partition must cover
    exactly the game's players, and ``second_game`` must have them too, else
    ValueError before any evaluation.

    Constructs the witness games it needs (a dummy group, a symmetrized pair,
    a linear combination) from ``game`` and, for linearity, ``second_game``.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    for part in partitions:
        _check_group(game, part)
    if second_game is not None and second_game.n != game.n:
        raise ValueError(f"second_game has {second_game.n} players, game has {game.n}")
    report = AxiomReport()
    base_part = partitions[0]

    # Null player: make the last group of the base partition ignored by the
    # utility; its valuation must be zero.
    dummy_idx = len(base_part.groups) - 1
    drop = np.zeros(game.n, dtype=bool)
    drop[list(base_part.groups[dummy_idx])] = True
    null_game = _MaskTransformGame(game, lambda m, d=drop: m & ~d)
    dev = abs(valuation(null_game, base_part, dummy_idx))
    report.results["null_player"] = AxiomResult(dev <= tol, dev)

    # Symmetry: two equal-size groups that the utility sees identically.
    groups = base_part.groups
    pair = next(((a, b) for a, b in itertools.combinations(range(len(groups)), 2)
                 if len(groups[a]) == len(groups[b])), None)
    if pair is None:
        report.results["symmetry"] = AxiomResult(True, 0.0, "no equal-size groups to test")
    else:
        a, b = pair
        sym_game = _SymmetricPairGame(game, base_part.groups[a], base_part.groups[b])
        va = valuation(sym_game, base_part, a)
        vb = valuation(sym_game, base_part, b)
        dev = abs(va - vb)
        report.results["symmetry"] = AxiomResult(dev <= tol, dev)

    # Linearity: valuation of a1*U1 + a2*U2 equals the combination.
    if second_game is None:
        second_game = _MaskTransformGame(game, _reverse_players)
    a1, a2 = 0.7, -1.3
    combo = _ComboGame([(a1, game), (a2, second_game)])
    max_dev = 0.0
    for k in range(len(base_part.groups)):
        lhs = valuation(combo, base_part, k)
        rhs = a1 * valuation(game, base_part, k) + a2 * valuation(second_game, base_part, k)
        max_dev = max(max_dev, abs(lhs - rhs))
    report.results["linearity"] = AxiomResult(max_dev <= tol, max_dev)

    # Efficiency: group values sum to U(full) - U(empty) for every partition.
    u_full = game.evaluate(range(game.n))
    u_empty = game.evaluate([])
    max_dev = 0.0
    for part in partitions:
        total = sum(valuation(game, part, k) for k in range(len(part.groups)))
        max_dev = max(max_dev, abs(total - (u_full - u_empty)))
    report.results["efficiency"] = AxiomResult(max_dev <= tol, max_dev)

    # Faithfulness: a group present in two partitions gets the same value.
    max_dev = 0.0
    tested = False
    for pi, pj in itertools.combinations(partitions, 2):
        gi = {g: k for k, g in enumerate(pi.groups)}
        for k2, g in enumerate(pj.groups):
            if g in gi:
                tested = True
                vi = valuation(game, pi, gi[g])
                vj = valuation(game, pj, k2)
                max_dev = max(max_dev, abs(vi - vj))
    detail = "" if tested else "no shared group across partitions"
    report.results["faithfulness"] = AxiomResult(max_dev <= tol and tested, max_dev, detail)
    return report
