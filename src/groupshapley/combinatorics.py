"""Hypergeometric probabilities and uniform samplers over constrained subset families.

All probabilities are computed in log-space so that population sizes in the
thousands do not overflow; exponentiation happens only at the very end.
Samplers take a caller-supplied ``numpy.random.Generator`` and keep no state,
so one generator per worker is the whole concurrency story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def log_binom(n: int, k: int) -> float:
    """Natural log of C(n, k) via log-gamma. Raises for k outside [0, n]."""
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class HypergeomParams:
    """Population of ``n`` items, ``s0`` marked, ``s`` drawn without replacement."""

    n: int
    s0: int
    s: int

    def __post_init__(self):
        if not (0 <= self.s0 <= self.n):
            raise ValueError(f"s0={self.s0} out of range for n={self.n}")
        if not (0 <= self.s <= self.n):
            raise ValueError(f"s={self.s} out of range for n={self.n}")

    def support(self) -> tuple[int, int]:
        """Inclusive range of achievable overlap counts."""
        return max(0, self.s + self.s0 - self.n), min(self.s, self.s0)

    def pmf(self, s1: int) -> float:
        """P(overlap = s1); zero off-support, never raises."""
        lo, hi = self.support()
        if s1 < lo or s1 > hi:
            return 0.0
        log_p = (
            log_binom(self.s0, s1)
            + log_binom(self.n - self.s0, self.s - s1)
            - log_binom(self.n, self.s)
        )
        return math.exp(log_p)

    def pmf_vector(self) -> tuple[int, np.ndarray]:
        """Returns (lo, probs) with probs[j] = pmf(lo + j) over the support."""
        lo, hi = self.support()
        probs = np.array([self.pmf(s1) for s1 in range(lo, hi + 1)])
        return lo, probs


def size_term_weights(n: int, s0: int, s: int) -> tuple[int, np.ndarray]:
    """Weights of the size-s term of the faithful group value's size
    decomposition, FGSV = (s0/n)·(U(N) - U(∅)) + Σ_s Σ_j w[j]·μ(s, lo + j),
    with μ(s, s1) the mean utility over |S| = s, |S ∩ S0| = s1. Returns
    (lo, w) with w[j] = P(overlap = lo + j) · n/(n-s) · ((lo + j)/s - s0/n)."""
    if not 1 <= s <= n - 1:
        raise ValueError(f"size {s} out of range 1..{n - 1}")
    lo, probs = HypergeomParams(n, s0, s).pmf_vector()
    return lo, probs * (n / (n - s)) * (np.arange(lo, lo + len(probs)) / s - s0 / n)


def _check_feasible(n: int, s0: int, s: int, s1: int) -> None:
    lo, hi = HypergeomParams(n, s0, s).support()
    if s1 < lo or s1 > hi:
        raise ValueError(
            f"overlap s1={s1} infeasible for n={n}, s0={s0}, s={s} "
            f"(support [{lo}, {hi}])"
        )


def _member_indices(members, n: int) -> np.ndarray:
    """Sorted unique indices of ``members`` (any iterable of ints) as ``intp``;
    raises ValueError for any index outside [0, n). A 1-D ``intp`` array that
    is already strictly increasing, as the estimator passes to every sampler
    call, is only checked and returned as is. Otherwise sort and compare,
    since ``np.unique`` costs ~3x as much."""
    idx = members
    if not (isinstance(idx, np.ndarray) and idx.dtype == np.intp and idx.ndim == 1
            and (idx[1:] > idx[:-1]).all()):
        if not isinstance(idx, np.ndarray):
            idx = np.fromiter(idx, dtype=np.intp)
        idx = np.sort(idx.astype(np.intp, copy=False))
        idx = np.concatenate((idx[:1], idx[1:][idx[1:] != idx[:-1]]))
    if len(idx) and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"member index out of range for n={n}")
    return idx


# Rounds of redraws for rows whose keys tie at the threshold. The first
# round draws 16-bit keys for pools of at most ``_KEY16_MAX_WIDTH``; two
# neighbouring keys of a row of width w tie with probability ~w * 2^-17
# (0.8% of rows at w = 1024). Every redraw, and every wider pool, draws
# 32-bit keys, which tie with probability ~w * 2^-33. So a tie that survives
# four redraws means a broken generator.
_TIE_REDRAWS = 4
_KEY16_MAX_WIDTH = 4096

# Bit generators whose ``random_raw`` words carry 64 random bits. Any other
# (MT19937's words hold 32 bits and zeros) draws its keys through
# ``integers``, at about 2.5x the cost.
_RAW64 = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)


def _draw_keys(rng: np.random.Generator, count: int, width: int, dtype) -> np.ndarray:
    """(count, width) random keys of an unsigned ``dtype``, several per 64-bit
    raw word where the bit generator is in ``_RAW64``."""
    dtype = np.dtype(dtype)
    if not isinstance(rng.bit_generator, _RAW64):
        return rng.integers(0, 1 << (8 * dtype.itemsize), size=(count, width), dtype=dtype)
    size = count * width
    per_word = 8 // dtype.itemsize
    raw = rng.bit_generator.random_raw(-(-size // per_word))
    return raw.view(dtype)[:size].reshape(count, width)


def _select_smallest(rng: np.random.Generator, count: int, width: int, k,
                     pushed=()) -> np.ndarray:
    """Rank selection on random keys, with ``k`` one int or one int per row in
    [0, width]. Returns the mask of each row's k smallest keys. The threshold
    comes from ``np.partition`` for one k, else from a row sort. ``pushed``
    holds per-row column indices (arrays of length ``count``) whose keys are
    set past every other key, so the row selects among its other columns.

    A row is drawn again when its k-th key ties with its (k+1)-th. Rejecting
    a tie is symmetric under permutations of the columns that are not
    pushed, so the subset stays uniform. A batch draws no keys when every row
    keeps none or all of the pool. The first round draws 16-bit keys for
    pools of at most ``_KEY16_MAX_WIDTH``; redraws draw 32-bit keys. After
    ``_TIE_REDRAWS`` rounds that still tie, FloatingPointError."""
    # One k is checked in Python: at small widths the array check was a
    # quarter of the call.
    one_k = isinstance(k, (int, np.integer)) or np.ndim(k) == 0
    if one_k:
        k = int(k)
        if not 0 <= k <= width:
            raise ValueError(f"subset size out of range [0, {width}]: {k}")
        forced = k in (0, width)
    else:
        k = np.asarray(k, dtype=np.intp)
        if ((k < 0) | (k > width)).any():
            raise ValueError(f"subset size out of range [0, {width}]: {k}")
        forced = ((k == 0) | (k == width)).all()
    if forced or not count:
        return np.broadcast_to(np.reshape(k == width, (-1, 1)), (count, width)).copy()

    def draw(rows, dtype):
        keys = _draw_keys(rng, len(rows), width, dtype)
        at, top = np.arange(len(rows)), (1 << 8 * keys.itemsize) - 1
        for cols in pushed:
            keys[at, cols[rows]] = top
        if one_k:
            return keys < np.partition(keys, k, axis=1)[:, k, None]
        kr = k[rows]
        kth = np.take_along_axis(np.sort(keys, axis=1), np.minimum(kr, width - 1)[:, None],
                                 axis=1)
        mask = keys < kth
        mask[kr == width] = True
        return mask

    # A row has at most k keys below its threshold, and exactly k iff its
    # k-th and (k+1)-th keys differ. So one total count clears the batch.
    mask = draw(np.arange(count), np.uint16 if width <= _KEY16_MAX_WIDTH else np.uint32)
    if np.count_nonzero(mask) != (count * k if one_k else int(k.sum())):
        # Per-row sums in int32 take a third of the time of per-row
        # count_nonzero.
        tied = np.flatnonzero(mask.sum(axis=1, dtype=np.int32) != k)
        for _ in range(_TIE_REDRAWS):
            mask[tied] = draw(tied, np.uint32)
            tied = tied[mask[tied].sum(axis=1, dtype=np.int32) != (k if one_k else k[tied])]
            if not tied.size:
                break
        else:
            raise FloatingPointError("random keys still tied at the selection threshold "
                                     f"after {_TIE_REDRAWS} redraws")
    return mask


def _split_indices(members: np.ndarray, n: int) -> np.ndarray:
    comp = np.ones(n, dtype=bool)
    comp[members] = False
    return np.flatnonzero(comp)


def _assemble(members: np.ndarray, comp: np.ndarray, part_in: np.ndarray,
              part_out: np.ndarray) -> np.ndarray:
    """(count, n) masks from the selections over the members and over the
    complement: one column gather puts the pools back in index order."""
    inv = np.empty(len(members) + len(comp), dtype=np.intp)
    inv[members] = np.arange(len(members))
    inv[comp] = np.arange(len(members), len(inv))
    return np.take(np.concatenate((part_in, part_out), axis=1), inv, axis=1)


def sample_subsets_with_intersection(
    rng: np.random.Generator,
    n: int,
    members: np.ndarray,
    s: int,
    s1: int,
    count: int,
) -> np.ndarray:
    """Boolean masks (count, n) of subsets uniform over {S : |S|=s, |S∩members|=s1}.

    Each draw takes s1 indices from ``members`` and s-s1 from the complement,
    both uniformly without replacement, via rank selection on random keys. A
    pool draws keys only when it contributes some but not all of its indices.
    """
    members = _member_indices(members, n)
    _check_feasible(n, len(members), s, s1)
    comp = _split_indices(members, n)
    return _assemble(members, comp, _select_smallest(rng, count, len(members), s1),
                     _select_smallest(rng, count, len(comp), s - s1))


def sample_paired_tuples(
    rng: np.random.Generator,
    n: int,
    members: np.ndarray,
    s: int,
    s1: int | None,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws (S, z1, z2) tuples with |S| = s, z1 a member and z2 a non-member,
    neither in S. Returns (masks, z1s, z2s).

    z1 is uniform over the members and z2 uniform over the non-members, both
    from one draw over the s0 * (n - s0) pairs. Then S is drawn by rank
    selection with the keys of z1 and z2 pushed past every other key:

    - With ``s1=None``, S is uniform over the s-subsets of the other n - 2
      indices, so its overlap with the members is drawn. This is the exact
      paired step of the size decomposition: one selection over all n keys.
    - With an integer ``s1``, S takes s1 of the other members and s - s1 of
      the other non-members, one selection per pool. S is then uniform over
      {S : |S|=s, |S∩members|=s1}, and z1 and z2 uniform over the members and
      non-members outside it, since s0·C(s0-1, s1) = C(s0, s1)·(s0 - s1).
      Requires both residual pools to be non-empty.
    """
    members = _member_indices(members, n)
    s0 = len(members)
    if s1 is None:
        if not 0 < s0 < n:
            raise ValueError(f"paired tuples need a member and a non-member: "
                             f"|members|={s0}, n={n}")
        if not 0 <= s <= n - 2:
            raise ValueError(f"subset size out of range [0, {n - 2}]: {s}")
    else:
        _check_feasible(n, s0, s, s1)
        if s0 - s1 < 1:
            raise ValueError(
                f"no member left outside S: |members|={s0}, overlap s1={s1}"
            )
        if (n - s0) - (s - s1) < 1:
            raise ValueError(
                f"no non-member left outside S: n-|members|={n - s0}, s-s1={s - s1}"
            )
    # z1 and z2 are independent and uniform over their pools.
    i1, i2 = np.divmod(rng.integers(0, s0 * (n - s0), size=count), n - s0)
    z1 = members[i1]
    if s1 is not None:
        comp = _split_indices(members, n)
        return _assemble(members, comp, _select_smallest(rng, count, s0, s1, pushed=(i1,)),
                         _select_smallest(rng, count, n - s0, s - s1, pushed=(i2,))), z1, comp[i2]
    # The i2-th non-member is i2 plus the number of members before it, and
    # members[j] - j non-members come before member j.
    z2 = i2 + np.searchsorted(members - np.arange(s0), i2, side="right")
    if s < n - 2:
        return _select_smallest(rng, count, n, s, pushed=(z1, z2)), z1, z2
    # S is everything but z1 and z2.
    masks = np.ones((count, n), dtype=bool)
    rows = np.arange(count)
    masks[rows, z1] = masks[rows, z2] = False
    return masks, z1, z2


def sample_uniform_subsets(
    rng: np.random.Generator, n: int, s, count: int
) -> np.ndarray:
    """Boolean masks (count, n) of uniform subsets of {0..n-1}; ``s`` is one
    size in [0, n] or one size per row."""
    return _select_smallest(rng, count, n, s)
