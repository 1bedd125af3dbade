"""Shell-company attack simulator.

Splitting a data group into shells inflates its total group-as-player Shapley
value whenever the expected utility curve is prudent (strictly positive third
forward difference), while the faithful group value is unchanged by any
re-partitioning. This module checks prudence, evaluates expected group values
from a size-only utility curve, and runs split schedules to compare the two
valuations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .exact import (
    Partition,
    _shapley_weights,
    _subset_sums,
    exact_group_shapley,
    fgsv_valuation,
)
from .games import Game

MAX_GROUPS = 20
ATTACK_GAME_CAP = 16


@dataclass(frozen=True)
class SplitSchedule:
    """Split one group of a partition into ``pieces`` shells of near-equal
    size; when sizes cannot be equal the larger shells come last
    (100 members into 3 shells gives 33, 33, 34)."""

    target_group: int
    pieces: int

    def __post_init__(self):
        if self.pieces < 2:
            raise ValueError("a split needs at least 2 pieces")

    def shell_sizes(self, group_size: int) -> list[int]:
        if self.pieces > group_size:
            raise ValueError(
                f"cannot split a group of {group_size} into {self.pieces} pieces"
            )
        base, rem = divmod(group_size, self.pieces)
        return [base] * (self.pieces - rem) + [base + 1] * rem

    def apply(self, partition: Partition) -> Partition:
        """New partition with the target group replaced by its shells."""
        if not (0 <= self.target_group < len(partition)):
            raise ValueError("target_group out of range")
        groups = list(partition.groups)
        members = list(groups.pop(self.target_group))
        shells = []
        pos = 0
        for size in self.shell_sizes(len(members)):
            shells.append(members[pos : pos + size])
            pos += size
        # Shells are appended at the end so the surviving groups keep
        # their relative order.
        return Partition(groups + shells, n=partition.n)


def prudence_check(ubar, s_max: int) -> tuple[bool, int | None]:
    """Whether the third forward difference of ``ubar`` is strictly positive
    at every s in 0..s_max; returns the first violating s otherwise."""
    for s in range(s_max + 1):
        d3 = ubar(s + 3) - 3 * ubar(s + 2) + 3 * ubar(s + 1) - ubar(s)
        if not d3 > 0:
            return False, s
    return True, None


def expected_gsv(ubar, group_sizes, k: int) -> float:
    """Group-as-player Shapley value of group k for a utility that depends
    only on coalition size, by enumeration over the other groups."""
    sizes = [int(s) for s in group_sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("all group sizes must be >= 1")
    if len(sizes) > MAX_GROUPS:
        raise ValueError(f"too many groups ({len(sizes)} > {MAX_GROUPS})")
    if not (0 <= k < len(sizes)):
        raise ValueError("group index out of range")
    s_k = sizes[k]
    others = np.array([s for j, s in enumerate(sizes) if j != k], dtype=np.int64)
    # ubar is called once per distinct size of the other groups' union.
    totals, inverse = np.unique(_subset_sums(others), return_inverse=True)
    gains = np.array([ubar(int(t) + s_k) - ubar(int(t)) for t in totals], dtype=float)
    weights = _shapley_weights(len(others) + 1)[_subset_sums(np.ones(len(others), dtype=np.uint8))]
    return float(weights @ gains[inverse])


def size_only_fgsv(ubar, n: int, group_size: int) -> float:
    """Faithful group value under a size-only utility: every player's Shapley
    value is (ubar(n) - ubar(0)) / n, so groups are valued by headcount."""
    return (group_size / n) * (ubar(n) - ubar(0))


@dataclass
class AttackRow:
    """One (schedule, base group) comparison; attacker rows aggregate all
    shells of the split group."""

    pieces: int
    group: int
    is_attacker: bool
    gsv: float
    fgsv: float


@dataclass
class AttackReport:
    rows: list[AttackRow]
    prudent: bool
    first_violation: int | None
    gsv_monotone: bool
    fgsv_constant: bool
    extras: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "prudent": self.prudent,
            "first_violation": self.first_violation,
            "gsv_monotone": self.gsv_monotone,
            "fgsv_constant": self.fgsv_constant,
            "rows": [asdict(r) for r in self.rows],
            "extras": self.extras,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2)
            fh.write("\n")


def _valuations_size_only(ubar, sizes, n):
    gsv = [expected_gsv(ubar, sizes, k) for k in range(len(sizes))]
    fgsv = [size_only_fgsv(ubar, n, s) for s in sizes]
    return gsv, fgsv


def run_attack(source, base_partition: Partition, schedules) -> AttackReport:
    """Evaluates every schedule against the unsplit baseline.

    ``source`` is either a callable utility-of-size curve or a Game (exact
    oracles, capped at n <= 16, on a partition that covers its players). Each
    report row carries the group value under both valuations; the attacker's
    row sums its shells. The report records whether the attacker's total
    group-as-player value strictly increased with the number of shells and
    whether the faithful totals stayed constant; a prudent curve that fails
    either check raises RuntimeError.
    """
    n = base_partition.n
    schedules = sorted(schedules, key=lambda sc: sc.pieces)
    targets = {sc.target_group for sc in schedules}
    if len(targets) > 1:
        raise ValueError("all schedules in one run must attack the same group")

    if callable(source) and not isinstance(source, Game):
        ubar = source
        prudent, violation = prudence_check(ubar, max(n - 3, 0)) if n >= 3 else (False, None)

        def valuations(partition):
            return _valuations_size_only(ubar, [len(g) for g in partition.groups], n)

    else:
        game = source
        if game.n > ATTACK_GAME_CAP:
            raise ValueError(f"exact attack comparison capped at n <= {ATTACK_GAME_CAP}")
        prudent, violation = False, None

        def valuations(partition):
            ks = range(len(partition))
            return ([exact_group_shapley(game, partition, k) for k in ks],
                    [fgsv_valuation(game, partition, k) for k in ks])

    target = schedules[0].target_group if schedules else 0
    rows: list[AttackRow] = []

    base_gsv, base_fgsv = valuations(base_partition)
    for gid in range(len(base_partition)):
        rows.append(
            AttackRow(1, gid, gid == target, base_gsv[gid], base_fgsv[gid])
        )

    attacker_gsv = [base_gsv[target]]
    attacker_fgsv = [base_fgsv[target]]
    for sc in schedules:
        split = sc.apply(base_partition)
        gsv, fgsv = valuations(split)
        n_keep = len(base_partition) - 1
        # Surviving groups occupy the first n_keep slots of the split
        # partition; the shells fill the tail.
        kept = iter(range(n_keep))
        for gid in range(len(base_partition)):
            if gid == target:
                g = sum(gsv[n_keep:])
                f = sum(fgsv[n_keep:])
                attacker_gsv.append(g)
                attacker_fgsv.append(f)
            else:
                j = next(kept)
                g, f = gsv[j], fgsv[j]
            rows.append(AttackRow(sc.pieces, gid, gid == target, g, f))

    monotone = all(b > a for a, b in zip(attacker_gsv, attacker_gsv[1:]))
    constant = all(abs(v - attacker_fgsv[0]) <= 1e-10 for v in attacker_fgsv)
    if prudent and schedules:
        if not monotone:
            raise RuntimeError("prudent utility but attacker GSV did not increase")
        if not constant:
            raise RuntimeError("faithful group value changed under a split")
    return AttackReport(
        rows=rows,
        prudent=prudent,
        first_violation=violation,
        gsv_monotone=monotone,
        fgsv_constant=constant,
        extras={"attacker_gsv": attacker_gsv, "attacker_fgsv": attacker_fgsv},
    )
