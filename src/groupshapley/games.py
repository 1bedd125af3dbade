"""Cooperative games: the utility-function abstraction and concrete game types.

A game evaluates a real-valued utility on any index subset of {0..n-1}. It
holds only its definition, no per-run state: each run reads the evaluations it
used off its own plan or schedule. Budget experiments compare runs at equal
counts, so no game caches utilities and every counted evaluation is computed.
"""

from __future__ import annotations

import csv
import math
import numbers
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import _member_indices


class UnsupportedGameError(TypeError):
    """Raised when an operation needs a capability the game type lacks."""


class Game:
    """Base class: pure utility over index subsets.

    Subclasses implement ``_values(masks)``, the utility of each row of a
    boolean (batch, n) membership matrix. A single evaluation is a one-row
    batch. What a game precomputes, such as the SOU lookup tables, is
    immutable data derived from its definition, built before any evaluation;
    it holds no utility of any coalition, so it is no utility cache.
    Evaluating a game changes nothing in it (the null-augmented wrapper's RNG
    aside), so threads and forked processes may share one; a run reports
    ``evaluations_used`` read off its own plan or schedule.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("player count must be positive")
        self._n = int(n)

    @property
    def n(self) -> int:
        return self._n

    def mask_from_indices(self, S: Iterable[int]) -> np.ndarray:
        idx = list(S)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate indices in subset")
        mask = np.zeros(self._n, dtype=bool)
        for i in idx:
            i = int(i)
            if i < 0 or i >= self._n:
                raise ValueError(f"index {i} out of range for n={self._n}")
            mask[i] = True
        return mask

    def evaluate(self, S: Iterable[int]) -> float:
        return float(self._values(self.mask_from_indices(S)[None, :])[0])

    def evaluate_mask(self, mask: np.ndarray) -> float:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise ValueError(f"mask must have shape ({self._n},), got {mask.shape}")
        return float(self._values(mask[None, :])[0])

    def evaluate_masks(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self._n:
            raise ValueError(
                f"masks must have shape (batch, {self._n}), got {masks.shape}"
            )
        return self._values(masks)

    def _values(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # Optional capability: evaluate with ``pad`` synthetic items appended,
    # drawn by ``null_sampler(rng, pad)`` where the game uses item data.
    def _padded_value(
        self, mask: np.ndarray, pad: int, rng: np.random.Generator, null_sampler=None
    ) -> float:
        raise UnsupportedGameError(
            f"{type(self).__name__} does not support synthetic augmentation"
        )


# Entries of the widest array of one block of the SOU kernel: its 0/1
# containment block (rows x subsets) or its gathered table rows (rows x player
# bytes x subset words). 2^17 gives 32-row blocks at n=64, d=4096, whose limb
# matmul (2 limbs x 4096 subsets x 32 rows) OpenBLAS still runs on one
# thread, and 1 024-row blocks at n=1024, d=32.
_SOU_BLOCK_ENTRIES = 1 << 17

# Mask entries (rows x players) an estimator run gathers before one kernel
# call: its cells wait, in plan order, until their masks reach this bound.
# At 2^16 a whole run at n=16 fits in one call, and at n=1024 a call holds
# one paired cell of 64 draws, both halves together. Per-call overhead is
# about 50 us for the ridge kernel at p=4, against 0.23 us per row at 4 096
# rows.
_BATCH_ENTRIES = 1 << 16


def _exact_limbs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Splits finite ``values`` exactly into integer-valued float64 limbs on
    one grid of powers of two: ``values[j] == sum_k limbs[k, j] * scales[k]``.
    Limbs hold w = 52 - ceil(log2 len(values)) bits each, so any sum of up to
    len(values) entries of one limb row is an exact integer below 2^52,
    whatever the order of the additions."""
    width = 52 - (len(values) - 1).bit_length()
    mantissas, exponents = np.frexp(values)
    exponents = exponents[mantissas != 0]
    # A double below 2^e in magnitude is a multiple of 2^(e - 53), and every
    # double is a multiple of 2^-1074.
    low = max(int(exponents.min()) - 53, -1074) if len(exponents) else 0
    top = int(exponents.max(initial=low))
    grid = low + width * np.arange(max(1, -(-(top - low) // width)))
    limbs = np.empty((len(grid), len(values)))
    rest = values
    for k in reversed(range(len(grid))):
        limbs[k] = np.trunc(np.ldexp(rest, -grid[k]))
        rest = rest - np.ldexp(limbs[k], grid[k])
    return limbs, np.ldexp(1.0, grid)


def _round_limb_sums(sums: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Correctly rounded ``sum_k sums[k, j] * scales[k]`` for each j, given exact
    integer limb sums on the grid of :func:`_exact_limbs`. With two limbs, each
    product is exact unless it overflows, and one addition rounds their sum
    correctly; a non-finite result, and every row of a wider grid, is summed
    exactly in units of the lowest limb and rounded once, ±inf where that
    passes DBL_MAX."""
    if len(sums) <= 2:
        # Limb sums are below 2^52 in magnitude, so with a top scale of at
        # most 2^970 every row is below 2^1023.
        if scales[-1] <= 2.0**970:
            return scales @ sums
        with np.errstate(over="ignore", invalid="ignore"):
            out = scales @ sums
        exact_rows = np.flatnonzero(~np.isfinite(out))
    else:
        out = np.empty(sums.shape[1])
        exact_rows = np.arange(sums.shape[1])
    exponents = [math.frexp(c)[1] - 1 for c in scales]  # scales[k] == 2^exponents[k]
    low = exponents[0]
    for j, column in zip(exact_rows.tolist(), sums[:, exact_rows].T.tolist()):
        total = sum(int(s) << (e - low) for s, e in zip(column, exponents))
        try:
            # int true division and int-to-float conversion round correctly.
            out[j] = total / (1 << -low) if low < 0 else float(total << low)
        except OverflowError:
            out[j] = math.inf if total > 0 else -math.inf
    return out


class SOUGame(Game):
    """Sum-of-unanimity game: a coalition collects a coefficient for every
    tracked subset it fully contains. Individual Shapley values are closed-form.
    """

    def __init__(self, n: int, subsets: Sequence[Sequence[int]], coefficients: Sequence[float]):
        super().__init__(n)
        if len(subsets) != len(coefficients):
            raise ValueError("need one coefficient per subset")
        if len(subsets) == 0:
            raise ValueError("need at least one subset")
        sizes = np.array([len(a) for a in subsets])
        # Indices out of range land in the extra column n. A subset with one
        # there, or with fewer players than it lists (a duplicate), or none,
        # is bad; the first bad subset names its fault as a loop over the
        # subsets in order would.
        players = np.concatenate(subsets).astype(np.intp, copy=False)
        if players.min(initial=0) < 0 or players.max(initial=0) >= n:
            players[(players < 0) | (players >= n)] = n
        member = np.zeros((len(sizes), n + 1), dtype=bool)
        member[np.repeat(np.arange(len(sizes)), sizes), players] = True
        bad = (sizes == 0) | member[:, n] | (member.sum(axis=1) != sizes)
        if bad.any():
            raw = list(subsets[int(np.argmax(bad))])
            if not raw:
                raise ValueError("empty unanimity subset")
            if len(set(raw)) != len(raw):
                raise ValueError("duplicate indices in unanimity subset")
            raise ValueError("unanimity subset index out of range")
        # Each subset's players in increasing order, read off its row.
        np.remainder(np.flatnonzero(member), n + 1, out=players)
        self.subsets = np.split(players, np.cumsum(sizes)[:-1])
        self.coefficients = np.asarray(coefficients, dtype=float)
        if not np.isfinite(self.coefficients).all():
            raise ValueError("non-finite unanimity coefficient")
        # The kernel keeps the subsets sorted by size: _cut[p] counts those a
        # coalition of p players can contain, a prefix of that order.
        order = np.argsort(sizes, kind="stable")
        self._cut = np.searchsorted(sizes[order], np.arange(n + 1), side="right")
        self._limbs, self._scales = _exact_limbs(self.coefficients[order])
        # _table[256 * b + v] is the bitset, over the sorted subsets, of those
        # with a member among the players 8b..8b+7 that the bits of v mark:
        # the table row of v is that of v without its lowest bit, or'ed with
        # the subsets of the player at that bit.
        player_bytes, words = -(-n // 8), -(-len(sizes) // 64)
        by_player = np.zeros((8 * player_bytes, 8 * words), dtype=np.uint8)
        by_player[:n, : -(-len(sizes) // 8)] = np.packbits(
            member[order, :n].T, axis=1, bitorder="little")
        by_player = by_player.view(np.uint64).reshape(player_bytes, 8, words)
        table = np.zeros((player_bytes, 256, words), dtype=np.uint64)
        for v in range(1, 256):
            np.bitwise_or(table[:, v & (v - 1)], by_player[:, (v & -v).bit_length() - 1],
                          out=table[:, v])
        self._table = table.reshape(256 * player_bytes, words)
        # The table row of the complement of byte v of a coalition.
        self._hole_rows = 256 * np.arange(player_bytes) + 255
        self._block_rows = max(1, _SOU_BLOCK_ENTRIES // max(len(sizes), player_bytes * words))

    def _values(self, masks: np.ndarray) -> np.ndarray:
        # A subset is excluded when one of its members falls in a hole of the
        # coalition: the or of the table rows of the coalition's hole bytes.
        # The contained subsets are unpacked to a 0/1 block for the limb
        # matmul. Each row's limb sums are exact, so its value depends on
        # neither its block nor its batch nor the BLAS. Past one word of
        # subsets, every batch is ordered by popcount and each block is
        # tested only against the subsets no larger than its largest
        # coalition; within one word that cut would save no work. The int64
        # table row indices are built one block at a time from the packed
        # coalition bytes.
        rows, d = len(masks), len(self.subsets)
        packed = np.packbits(masks, axis=1, bitorder="little")
        sums = np.empty((len(self._scales), rows))
        order = None
        if d > 64:
            counts = masks.sum(axis=1, dtype=np.int32)
            order = np.argsort(counts, kind="stable")
            counts = counts[order]
        for lo in range(0, rows, self._block_rows):
            hi = min(lo + self._block_rows, rows)
            cut = d if order is None else self._cut[counts[hi - 1]]
            words = -(-cut // 64)
            holes = self._hole_rows - (packed[lo:hi] if order is None else packed[order[lo:hi]])
            # np.take of whole rows is ~3x faster than the mixed fancy and
            # slice index, which pays off only when it gathers fewer words.
            gathered = (np.take(self._table, holes, axis=0) if words == self._table.shape[1]
                        else self._table[holes, :words])
            del holes  # as large as the gather at one word
            # The reduction over one byte would only copy it.
            excluded = (np.bitwise_or.reduce(gathered, axis=1) if gathered.shape[1] > 1
                        else gathered[:, 0])
            contained = np.unpackbits(
                (~excluded).view(np.uint8), axis=1, count=cut, bitorder="little")
            np.matmul(self._limbs[:, :cut], contained.T.astype(float), out=sums[:, lo:hi])
        values = _round_limb_sums(sums, self._scales)
        if order is None:
            return values
        out = np.empty(rows)
        out[order] = values
        return out

    def exact_shapley_vector(self) -> np.ndarray:
        """Closed-form Shapley values: player i gets coefficient/|subset| from
        every tracked subset that contains it, added in subset order."""
        sizes = np.array([len(a) for a in self.subsets])
        shares = self.coefficients / sizes
        out = np.zeros(self.n)
        # In blocks of subsets, which keeps the per-member arrays small.
        for lo in range(0, len(sizes), 512):
            block = slice(lo, lo + 512)
            np.add.at(out, np.concatenate(self.subsets[block]),
                      np.repeat(shares[block], sizes[block]))
        return out


def sou_generate(n: int, d: int, seed) -> SOUGame:
    """Random sum-of-unanimity game: each tracked subset gets a size uniform on
    1..n and that many players without replacement; its coefficient is the mean
    of the member weights (i mod 4)/4. Deterministic given the seed."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    rng = np.random.default_rng(seed)
    subsets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
               for _ in range(d)]
    # The weights are multiples of 1/4, so each sum is exact and the mean is
    # rounded once, as numpy's mean of the member weights is.
    weights = (np.arange(n) % 4) / 4.0
    sums = np.fromiter((weights[a].sum() for a in subsets), float, d)
    return SOUGame(n, subsets, sums / [len(a) for a in subsets])


class SizeOnlyGame(Game):
    """Utility depending on coalition size only: U(S) = size_utility(|S|)."""

    def __init__(self, n: int, size_utility: Callable[[int], float]):
        super().__init__(n)
        self.size_utility = size_utility

    def _values(self, masks: np.ndarray) -> np.ndarray:
        sizes, inverse = np.unique(masks.sum(axis=1, dtype=np.int32), return_inverse=True)
        return np.array([self.size_utility(int(s)) for s in sizes], dtype=float)[inverse]

    # Null items only inflate the coalition size here.
    def _padded_value(self, mask: np.ndarray, pad: int, rng, null_sampler=None) -> float:
        return float(self.size_utility(int(mask.sum()) + pad))


class IntersectionSizeGame(Game):
    """Utility depending only on (|S ∩ members|, |S|), via ``profile(s1, s)``.

    Useful for games whose conditional mean utility is available in closed
    form, which makes large-n exact computations cheap.
    """

    def __init__(self, n: int, members: Sequence[int], profile: Callable[[int, int], float]):
        super().__init__(n)
        self.members = _member_indices(members, n)
        self.profile = profile
        self._member_mask = np.zeros(n, dtype=bool)
        self._member_mask[self.members] = True

    def _values(self, masks: np.ndarray) -> np.ndarray:
        sizes = masks.sum(axis=1, dtype=np.int32)
        overlaps = masks[:, self._member_mask].sum(axis=1, dtype=np.int32)
        keys, inverse = np.unique(
            np.stack([overlaps, sizes], axis=1), axis=0, return_inverse=True
        )
        return np.array(
            [self.profile(int(a), int(b)) for a, b in keys], dtype=float
        )[inverse.reshape(-1)]


# Entries of the widest per-row array in one block of the batched regression
# kernel (the coalition row, its (p+1)^2-entry augmented matrix or its test
# residuals). 2^16 float64 entries keep each block near 512 KB: 2 621 rows at
# n=16, p=4. Unblocked, the 65 536-mask exact table at n=16 raised peak RSS
# from 69 to 95 MB and ran no faster.
_REGRESSION_BLOCK_ENTRIES = 1 << 16


class RegressionGame(Game):
    """Ridge regression trained on the selected rows; utility is negative mean
    squared error on a held-out test set.

    Coalitions with fewer rows than predictors fall back to the null utility
    (the negative variance of the test responses, i.e. the mean predictor);
    wrap in :class:`NullAugmentedGame` for a principled treatment of small
    coalitions.
    """

    def __init__(self, X_train, y_train, X_test, y_test, lam: float = 0.01):
        X_train = np.asarray(X_train, dtype=float)
        y_train = np.asarray(y_train, dtype=float)
        self.X_test = np.asarray(X_test, dtype=float)
        self.y_test = np.asarray(y_test, dtype=float)
        if not 0 <= lam < math.inf:
            raise ValueError(f"ridge penalty must be a finite number >= 0, got {lam!r}")
        if X_train.ndim != 2 or self.X_test.ndim != 2:
            raise ValueError("predictor matrices must be 2-D")
        if y_train.shape != X_train.shape[:1] or self.y_test.shape != self.X_test.shape[:1]:
            raise ValueError("need one response per predictor row, in train and in test")
        if X_train.shape[1] != self.X_test.shape[1]:
            raise ValueError("train and test predictor matrices differ in column count")
        if not all(np.isfinite(a).all() for a in (X_train, y_train, self.X_test, self.y_test)):
            raise ValueError("non-finite regression data")
        super().__init__(X_train.shape[0])
        self.X_train = X_train
        self.y_train = y_train
        self.lam = float(lam)
        self.null_utility = -float(np.var(self.y_test))
        p = X_train.shape[1]
        # Per-row terms of every entry of a coalition's augmented matrix
        # [[G, b], [b^T, count]], row-major: z z^T for z = (x, y), with 1 in
        # place of y^2. One matmul with a block of masks sums them into each
        # coalition's Gram matrix G, moment vector b and member count, one
        # entry per row of the product. Holding the upper triangle too lets
        # the block read as (p+1) x (p+1) matrices without a gather.
        z = np.column_stack((X_train, y_train))
        self._terms = (z[:, :, None] * z[:, None, :]).reshape(self.n, -1).T.copy()
        self._terms[-1] = 1.0
        self._block_rows = max(
            1, _REGRESSION_BLOCK_ENTRIES // max(self.n, (p + 1) ** 2, len(self.y_test))
        )

    @property
    def num_predictors(self) -> int:
        return self.X_train.shape[1]

    def _fit_and_score(self, X: np.ndarray, y: np.ndarray) -> float:
        p = X.shape[1]
        if X.shape[0] < p:
            return self.null_utility
        gram = X.T @ X + self.lam * np.eye(p)
        try:
            beta = np.linalg.solve(gram, X.T @ y)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = self.X_test @ beta - self.y_test
        return -float(np.mean(resid**2))

    def _values(self, masks: np.ndarray) -> np.ndarray:
        # Entry-major: row (p + 1) i + j of a block's product holds entry
        # (i, j) of every coalition's augmented matrix, so each step below is
        # one vector op over the block. An in-place Cholesky factorization
        # of the augmented matrix leaves L in the lower triangle of G and
        # L^-1 b in the last row (the forward substitution), and back
        # substitution turns that row into beta; the upper triangle is never
        # read. A non-positive pivot, which only a (nearly) singular Gram or
        # overflow gives, makes a utility non-finite; a block with such a
        # kept row is re-scored row by row, where lstsq takes singular Grams.
        p = self.num_predictors
        out = np.empty(len(masks))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, len(masks), self._block_rows):
                block = masks[lo : lo + self._block_rows]
                # BLAS rounds a lone column (gemv) and a gemm's last columns
                # short of a multiple of 8 unlike the others, so empty
                # coalitions pad the block to whole groups of 8: up to 20
                # players a utility then does not depend on its batch (from
                # 32 on, BLAS also splits the sums by batch width).
                pad = np.zeros((-len(block) % 8, self.n), dtype=bool)
                a = self._terms @ np.concatenate((block, pad)).T.astype(np.float64)
                a[: p * (p + 2) : p + 2] += self.lam  # the diagonal of G
                a = a.reshape(p + 1, p + 1, -1)
                for k in range(p):
                    np.sqrt(a[k, k], out=a[k, k])
                    col = np.divide(a[k + 1 :, k], a[k, k], out=a[k + 1 :, k])
                    if k + 1 < p:
                        a[k + 1 :, k + 1 : p] -= col[:, None] * col[None, : p - k - 1]
                beta = a[p, :p]
                for k in reversed(range(p)):
                    np.divide(beta[k], a[k, k], out=beta[k])
                    if k:
                        beta[:k] -= a[k, :k] * beta[k]
                resid = self.X_test @ beta
                resid -= self.y_test[:, None]
                utility = np.add.reduce(np.square(resid, out=resid), axis=0)
                utility /= -len(resid)
                values = np.where(a[p, p] >= max(p, 1), utility, self.null_utility)
                if not np.isfinite(values).all():
                    values = [self._fit_and_score(self.X_train[m], self.y_train[m])
                              for m in block]
                out[lo : lo + len(block)] = values[: len(block)]
        return out

    def _padded_value(
        self, mask: np.ndarray, pad: int, rng: np.random.Generator, null_sampler=None
    ) -> float:
        if null_sampler is None:
            null_sampler = self.default_null_sampler
        Xn, yn = null_sampler(rng, pad)
        X = np.vstack([self.X_train[mask], Xn])
        y = np.concatenate([self.y_train[mask], yn])
        return self._fit_and_score(X, y)

    def default_null_sampler(self, rng: np.random.Generator, count: int):
        """Non-informative items: empirical predictors paired with independently
        resampled responses (response shuffling)."""
        xi = rng.integers(0, len(self.y_train), size=count)
        yi = rng.integers(0, len(self.y_train), size=count)
        return self.X_train[xi], self.y_train[yi]


class NullAugmentedGame(Game):
    """Wrapper that pads small coalitions with fresh non-informative items up to
    the target size; coalitions at or above the threshold pass through. Raises
    :class:`UnsupportedGameError` for game types that cannot absorb synthetic
    items.

    The fresh draws make the wrapped game stochastic: the purity guarantee of
    the base class is deliberately waived here, and ``rng`` advances with
    every padded evaluation. A padded evaluation is one evaluation of the
    base utility.
    """

    def __init__(self, base: Game, threshold: int, null_sampler=None, rng=None):
        if threshold < 1:
            raise ValueError("augmentation threshold must be >= 1")
        # Probe the capability up front so misuse fails at construction.
        if type(base)._padded_value is Game._padded_value:
            raise UnsupportedGameError(
                f"{type(base).__name__} does not support synthetic augmentation"
            )
        super().__init__(base.n)
        self.base = base
        self.threshold = int(threshold)
        self.null_sampler = null_sampler
        self.rng = rng if rng is not None else np.random.default_rng()

    def _values(self, masks: np.ndarray) -> np.ndarray:
        # Rows at or above the threshold go to the base kernel as one batch.
        # The rest are padded one at a time in row order, so the null draws
        # come from the RNG in the same order as a row-by-row loop.
        sizes = masks.sum(axis=1, dtype=np.int32)
        passes = sizes >= self.threshold
        out = np.empty(len(masks))
        out[passes] = self.base._values(masks[passes])
        for i in np.flatnonzero(~passes):
            out[i] = self.base._padded_value(
                masks[i], self.threshold - int(sizes[i]), self.rng, self.null_sampler
            )
        return out


def load_regression_csv(path, test_fraction: float, lam: float, seed) -> RegressionGame:
    """Builds a ridge-regression game from a CSV with a header row, numeric
    columns, and the response in the last column. The response is centered and
    standardized over the full file; the train/test split is deterministic
    given the seed."""
    if not (0 < test_fraction < 1):
        raise ValueError("test_fraction must be in (0, 1)")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        width = len(header)
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns")
            try:
                row = [float(v) for v in rec]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path}:{lineno}: non-finite cell")
            rows.append(row)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one predictor and a response")
    X, y = data[:, :-1], data[:, -1]
    y = y - y.mean()
    std = y.std()
    if std > 0:
        y = y / std
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    n_test = int(round(test_fraction * len(y)))
    if n_test < 2 or len(y) - n_test < 2:
        raise ValueError("fewer than 2 rows in one of the splits")
    test_idx, train_idx = order[:n_test], order[n_test:]
    return RegressionGame(X[train_idx], y[train_idx], X[test_idx], y[test_idx], lam=lam)


# Named size-utility functions usable from serialized configs.
SIZE_UTILITIES: dict[str, Callable[[int], float]] = {
    "saturating2": lambda s: 1.0 - 2.0 ** (-s),
    "saturating3": lambda s: 1.0 - 3.0 ** (-s),
    "linear": lambda s: float(s),
    "cubic": lambda s: float(s) ** 3,
    "sqrt": lambda s: float(s) ** 0.5,
    "log1p": lambda s: float(np.log1p(s)),
}


def _integer_field(cfg: dict, key: str):
    """``cfg[key]`` if it is an integer (numpy integers included, bools not);
    anything else raises ValueError instead of being truncated."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def game_from_config(cfg: dict) -> Game:
    """Builds a game from its JSON-friendly description."""
    kind = cfg.get("type")
    if kind == "sou":
        return sou_generate(int(_integer_field(cfg, "n")), int(_integer_field(cfg, "d")),
                            _integer_field(cfg, "seed"))
    if kind == "sou_explicit":
        return SOUGame(int(_integer_field(cfg, "n")), cfg["subsets"], cfg["coefficients"])
    if kind == "size_only":
        name = cfg["name"]
        if not isinstance(name, str) or name not in SIZE_UTILITIES:
            raise ValueError(f"unknown size-utility name {name!r}")
        return SizeOnlyGame(int(_integer_field(cfg, "n")), SIZE_UTILITIES[name])
    if kind == "regression_csv":
        return load_regression_csv(
            cfg["path"], float(cfg["test_fraction"]), float(cfg["lambda"]),
            _integer_field(cfg, "seed"),
        )
    raise ValueError(f"unknown game type {kind!r}")
