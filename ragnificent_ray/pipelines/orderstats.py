"""Exact order statistics by histogram selection — the one implementation
behind every distributed quantile, percentile cut and rank offset.

Selection (Munro-Paterson style), never a global sort and never a
full-column materialization:

1. one native ``Min``/``Max`` pass fixes the value range;
2. one streaming pass of per-block ``bincount`` partials over
   (group, equal-width bucket) cells, merged by a tiny ``combine.fold`` —
   each group's cumulative counts locate the bucket holding any 0-based
   rank ``j`` as the first bucket with ``cum > j``;
3. one filtered pass ships ONLY the values inside the needed boundary
   buckets to the driver (≈ n/nbuckets values per bucket), where they
   are sorted and indexed by ``j − below``. At heavy skew, re-bucketing
   the hot bucket is the documented recursion — not needed at these
   scales.

Exactness needs only that ``bucket_of`` never decreases as the value
grows and that both passes use the same ``bucket_of``; equal values
therefore always share a bucket. Integer columns histogram as float64,
which is exact below 2⁵³.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .combine import fold

NBUCKETS = 2048
_BATCH = 65536


def _bucket_of(v: np.ndarray, lo: float, width: float,
               nbuckets: int) -> np.ndarray:
    return np.clip(((v - lo) / width).astype(np.int64), 0, nbuckets - 1)


def _group_codes(batch: pa.Table, key: str | None):
    """(the batch's group labels, each row's index into them)."""
    if key is None:
        return [None], np.zeros(batch.num_rows, dtype=np.int64)
    d = batch.column(key).combine_chunks().dictionary_encode()
    return d.dictionary.to_pylist(), d.indices.to_numpy().astype(np.int64)


@dataclass
class Histogram:
    """Per-group cumulative bucket counts of ``col`` over equal-width
    buckets of ``[lo, lo + nbuckets·width]``. ``groups`` is the sorted
    list of ``key`` values (``[None]`` when ungrouped) and ``cum[g]`` the
    cumulative counts of group ``g``."""

    col: str
    key: str | None
    lo: float
    width: float
    nbuckets: int
    groups: list
    cum: np.ndarray

    def bucket_of(self, v: np.ndarray) -> np.ndarray:
        return _bucket_of(v, self.lo, self.width, self.nbuckets)

    def cells(self, batch: pa.Table) -> np.ndarray:
        """Row → ``group_index·nbuckets + bucket`` for a batch."""
        labels, codes = _group_codes(batch, self.key)
        index = {g: i for i, g in enumerate(self.groups)}
        lut = np.array([index[g] for g in labels], dtype=np.int64)
        return lut[codes] * self.nbuckets + self.bucket_of(
            batch.column(self.col).to_numpy(zero_copy_only=False))

    def locate(self, ranks) -> tuple[np.ndarray, np.ndarray]:
        """0-based ``ranks`` (one row per group) → the cell holding each
        rank (the first bucket with ``cum > j``) and the count of the
        group's rows in buckets below it."""
        ranks = np.asarray(ranks, dtype=np.int64).reshape(
            len(self.groups), -1)
        b = np.stack([np.searchsorted(self.cum[g], ranks[g], side="right")
                      for g in range(len(self.groups))])
        gi = np.arange(len(self.groups))[:, None]
        below = np.where(b > 0, self.cum[gi, np.maximum(b - 1, 0)], 0)
        return gi * self.nbuckets + b, below


def histogram(ds, col: str, key: str | None = None,
              nbuckets: int = NBUCKETS) -> Histogram:
    """Passes 1–2: the value range, then the (group, bucket) counts."""
    from ray.data.aggregate import Max, Min

    mm = ds.aggregate(Min(col), Max(col))
    lo, hi = float(mm[f"min({col})"]), float(mm[f"max({col})"])
    width = (hi - lo) / nbuckets or 1.0

    def partial(batch: pa.Table) -> pa.Table:
        labels, codes = _group_codes(batch, key)
        b = _bucket_of(batch.column(col).to_numpy(zero_copy_only=False),
                       lo, width, nbuckets)
        counts = np.bincount(codes * nbuckets + b,
                             minlength=len(labels) * nbuckets)
        nz = np.nonzero(counts)[0]
        out = pa.table({"bucket": pa.array(nz % nbuckets, type=pa.int64()),
                        "cnt": pa.array(counts[nz], type=pa.int64())})
        return out if key is None else out.append_column(
            key, pa.array([labels[g] for g in nz // nbuckets],
                          type=batch.schema.field(key).type))

    keys = ["bucket"] if key is None else [key, "bucket"]
    df = fold(ds.map_batches(partial, batch_format="pyarrow",
                             batch_size=_BATCH),
              keys, {"cnt": ("cnt", "sum")}).to_pandas()
    groups = [None] if key is None else sorted(df[key].unique())
    gi = 0 if key is None else \
        df[key].map({g: i for i, g in enumerate(groups)}).to_numpy()
    counts = np.zeros((len(groups), nbuckets), dtype=np.int64)
    counts[gi, df["bucket"].to_numpy()] = df["cnt"].to_numpy()
    return Histogram(col, key, lo, width, nbuckets, groups,
                     np.cumsum(counts, axis=1))


def boundary_rows(ds, h: Histogram, cells, columns=()) -> pa.Table:
    """Pass 3: every row whose (group, bucket) cell is in ``cells``, as
    ``h.col`` plus ``columns`` plus the row's ``cell``."""
    cells = np.unique(np.asarray(cells, dtype=np.int64))

    def pick(batch: pa.Table) -> pa.Table:
        c = h.cells(batch)
        mask = np.isin(c, cells)
        return (batch.select([h.col, *columns]).filter(pa.array(mask))
                .append_column("cell", pa.array(c[mask], type=pa.int64())))

    return pa.concat_tables(
        ds.map_batches(pick, batch_format="pyarrow", batch_size=_BATCH)
        .iter_batches(batch_size=None, batch_format="pyarrow"))


def order_stats(ds, h: Histogram, ranks) -> np.ndarray:
    """The exact values at 0-based ``ranks`` — shape (groups, r), one row
    of ranks per group of ``h``, each rank below its group's count."""
    ranks = np.asarray(ranks, dtype=np.int64).reshape(len(h.groups), -1)
    want, below = h.locate(ranks)
    rows = boundary_rows(ds, h, want)
    c = rows.column("cell").to_numpy()
    v = rows.column(h.col).to_numpy(zero_copy_only=False)
    order = np.lexsort((v, c))
    c, v = c[order], v[order]
    return v[np.searchsorted(c, want) + ranks - below]


def quantiles(ds, col: str, qs, key: str | None = None) -> dict:
    """Exact ``quantile_cont`` of ``col`` for every q in ``qs`` with the
    ``v0 + frac·(v1 − v0)`` interpolation DuckDB's quantile_cont/MEDIAN
    evaluates. Returns ``{q: value}``, or ``{group: {q: value}}`` when
    grouped by ``key``."""
    h = histogram(ds, col, key)
    n = h.cum[:, -1:]
    pos = (n - 1) * np.asarray(qs, dtype=np.float64)
    k0 = pos.astype(np.int64)
    k1 = np.minimum(k0 + 1, n - 1)
    v = order_stats(ds, h, np.hstack([k0, k1]))
    v0, v1 = v[:, :len(qs)], v[:, len(qs):]
    out = {g: dict(zip(qs, row.tolist()))
           for g, row in zip(h.groups, v0 + (pos - k0) * (v1 - v0))}
    return out[None] if key is None else out
