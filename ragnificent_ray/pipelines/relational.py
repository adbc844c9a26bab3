"""Relational operators over the testdata tables (correctness-gate queries).

Each function takes ``sf_dir`` and returns a Ray Dataset / Arrow table;
``ORACLE_SQL`` holds the DuckDB-equivalent statement with IDENTICAL
column names (driver contract). Patterns exercised, scale-consciously:

* column-pruned reads (:func:`inputs.scan` with ``columns=``)
* partial aggregation inside ``map_batches`` before the (small) keyed
  merge — the combiner pattern from SURVEY §2.6/G1, always through
  :func:`combine.combine` (``group_agg`` per batch, then ``fold``'s
  per-partition ``group_by`` tasks on :func:`exchange.exchange`)
* big ⋈ big joins through :func:`exchange.hash_join`
* broadcast hash join for small dimension tables (the lookup arrays
  captured in a plain per-batch function's closure) instead of a
  shuffle join
* sort + limit top-k
* tumbling-window aggregate over the events stream table

Float results are rounded to 4 decimals on BOTH sides so value-hash
comparison is stable across summation orders.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.numeric import (grouped_cumcount, pc_round4,
                                 round_half_away)
from .combine import combine, fold, group_agg
from .exchange import hash_join
from .inputs import _pq, fold_buckets, scan, table_bytes
from .orderstats import histogram, order_stats, quantiles


# ---------------------------------------------------------------- lineitem Q1

def lineitem_agg(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate with in-batch pre-aggregation."""
    ds = scan(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def cells(batch: pa.Table) -> pa.Table:
        # integer currency units (cents / 1e-4 units): float sums of
        # ~5e9 drift in the 4th decimal across summation orders at
        # sf >= 0.1, flipping the rounded value vs the oracle —
        # exact int64 sums are order-independent
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc_bp = np.rint(
            batch.column("l_discount").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "qty": batch.column("l_quantity"),
            "base_c": pa.array(cents, type=pa.int64()),
            "disc_e4": pa.array(cents * (100 - disc_bp), type=pa.int64()),
        })

    out = combine(ds, ["l_returnflag", "l_linestatus"], {
        "sum_qty": ("qty", "sum"), "base_c": ("base_c", "sum"),
        "disc_e4": ("disc_e4", "sum"), "count_order": ("qty", "count"),
    }, cells)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": pc_round4(batch["sum_qty"]),
            "sum_base_price": pa.array(round_half_away(
                batch.column("base_c").to_numpy() / 100.0, 2),
                type=pa.float64()),
            "sum_disc_price": pa.array(round_half_away(
                batch.column("disc_e4").to_numpy() / 10000.0, 2),
                type=pa.float64()),
            "count_order": batch["count_order"],
        })

    return out.map_batches(final, batch_format="pyarrow")


# ------------------------------------------------------------------- top-k

def top_orders(sf_dir: str):
    """sort + limit top-k (O3-style), deterministic tiebreak on key."""
    ds = scan(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(10)


# ------------------------------------------------------------ broadcast join

def segment_revenue(sf_dir: str):
    """orders ⋈ customer via broadcast of the small side (J-pattern:
    sorted-key lookup captured in the map's closure — no shuffle)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(_pq(sf_dir, "customer"),
                         columns=["c_custkey", "c_mktsegment"]) \
              .sort_by("c_custkey")
    keys = cust.column("c_custkey").to_numpy()
    segs = cust.column("c_mktsegment").to_numpy(zero_copy_only=False)

    ds = scan(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def join_cells(batch: pa.Table) -> pa.Table:
        # vectorized broadcast lookup (sorted keys + searchsorted;
        # FK guarantees every o_custkey resolves) over integer cents
        # (order-independent exact sums)
        seg = segs[np.searchsorted(keys, batch.column("o_custkey").to_numpy())]
        cents = np.rint(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "c_mktsegment": pa.array(seg, type=pa.string()),
            "rev_c": pa.array(cents, type=pa.int64()),
        })

    out = combine(ds, "c_mktsegment", {
        "revenue": ("rev_c", "sum"), "n_orders": ("rev_c", "count"),
    }, join_cells)
    return out.map_batches(
        lambda b: pa.table({
            "c_mktsegment": b["c_mktsegment"],
            "revenue": pa.array(round_half_away(
                b.column("revenue").to_numpy() / 100.0, 2),
                type=pa.float64()),
            "n_orders": b["n_orders"],
        }),
        batch_format="pyarrow",
    )


def nation_revenue(sf_dir: str):
    """Revenue by customer nation (TPC-H Q5 flavor) — the BIG ⋈ BIG
    join shape: lineitem ⋈ orders and then ⋈ customer run as
    distributed hash joins (both sides corpus-scale by contract — no
    broadcast), while the 25-row nation dim IS a broadcast lookup.

    Row width is cut before every exchange: lineitem collapses to
    (orderkey, revenue) with a batch-local Arrow group-sum combiner
    (~4 lineitems/order fold early), orders to (orderkey, custkey),
    customer to (custkey, nationkey); the final groupby moves one row
    per nation per block."""
    li = scan(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(batch: pa.Table) -> pa.Table:
        # integer 1e-4 currency units: order-independent exact sums
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc_bp = np.rint(
            batch.column("l_discount").to_numpy() * 100.0
        ).astype(np.int64)
        return group_agg(pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "rev": pa.array(cents * (100 - disc_bp), type=pa.int64()),
        }), "l_orderkey", {"rev": ("rev", "sum")})

    orders = scan(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = scan(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    import pyarrow.parquet as pq

    nat = pq.read_table(_pq(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"]) \
            .sort_by("n_nationkey")
    keys = nat.column("n_nationkey").to_numpy()
    names = nat.column("n_name").to_numpy(zero_copy_only=False)

    joined = hash_join(
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  orders, "inner", "l_orderkey", "o_orderkey"),
        cust, "inner", "o_custkey", "c_custkey")

    def nation_cells(batch: pa.Table) -> pa.Table:
        nk = batch.column("c_nationkey").to_numpy()
        return pa.table({
            "n_name": pa.array(names[np.searchsorted(keys, nk)],
                               type=pa.string()),
            "rev": batch.column("rev"),
        })

    out = combine(joined, "n_name", {"revenue": ("rev", "sum")},
                  nation_cells)
    return out.map_batches(
        lambda b: pa.table({
            "n_name": b["n_name"],
            "revenue": pa.array(round_half_away(
                b.column("revenue").to_numpy(zero_copy_only=False)
                / 10000.0, 2), type=pa.float64()),
        }),
        batch_format="pyarrow",
    )


# --------------------------------------------------------- windowed aggregate

_WINDOW_AGGS = {"n_events": ("value", "count"), "sum_value": ("value", "sum")}


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type (streaming-shaped op as a
    groupby over the truncated timestamp — SURVEY §2.10 mapping)."""
    ds = scan(sf_dir, "events", columns=["event_type", "ts", "value"])

    def cells(batch: pa.Table) -> pa.Table:
        # cast to second resolution: Arrow's %S emits fractional digits
        # for sub-second units, DuckDB's does not
        win = pc.strftime(
            pc.cast(pc.floor_temporal(batch.column("ts"), unit="hour"),
                    pa.timestamp("s")),
            format="%Y-%m-%d %H:%M:%S")
        # integer 1e-4 value units (2-decimal source): exact sums
        v_e4 = np.rint(
            batch.column("value").to_numpy() * 10000.0).astype(np.int64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "window_start": win,
            "value": pa.array(v_e4, type=pa.int64()),
        })

    out = combine(ds, ["event_type", "window_start"], _WINDOW_AGGS, cells)
    return out.map_batches(
        lambda b: pa.table({
            "event_type": b["event_type"],
            "window_start": b["window_start"],
            "n_events": b["n_events"],
            "sum_value": pa.array(round_half_away(
                b.column("sum_value").to_numpy() / 10000.0, 4),
                type=pa.float64()),
        }),
        batch_format="pyarrow",
    )


def events_hopping(sf_dir: str):
    """Hopping-window aggregate: 1-hour windows every 30 minutes, so
    each event lands in exactly two windows. The third window flavour
    next to tumbling (``events_hourly``) and session
    (``temporal.sessionize``): a per-batch flat-map expansion into the
    member windows, then the same partial-agg + small-groupby combiner
    — the expansion factor (2×) happens inside the batch, never as a
    shuffle."""
    grid_us = 30 * 60 * 1_000_000
    ds = scan(sf_dir, "events", columns=["event_type", "ts", "value"])

    def cells(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy()
        w0 = ts_us - ts_us % grid_us
        windows = np.concatenate([w0, w0 - grid_us])
        # window starts are exact 30-min marks; cast to seconds so
        # Arrow's %S matches DuckDB's (no fractional digits)
        win = pc.strftime(
            pa.array(windows // 1_000_000, type=pa.timestamp("s")),
            format="%Y-%m-%d %H:%M:%S")
        etype = pa.concat_arrays(
            [batch.column("event_type").combine_chunks()] * 2)
        value = pa.concat_arrays(
            [batch.column("value").combine_chunks()] * 2)
        return pa.table({
            "event_type": etype, "window_start": win, "value": value,
        })

    out = combine(ds, ["event_type", "window_start"], _WINDOW_AGGS, cells)
    return out.map_batches(
        lambda b: pa.table({
            "event_type": b["event_type"],
            "window_start": b["window_start"],
            "n_events": b["n_events"],
            "sum_value": pc_round4(b["sum_value"]),
        }),
        batch_format="pyarrow",
    )


# -------------------------------------------------------- per-key profiling

def user_activity(sf_dir: str):
    """Per-user profile incl. a distinct-count. The groupby keys on a
    BOUNDED bucket of the user id (64 partitions), and the per-user
    aggregate runs as one vectorized pandas groupby per bucket — never
    one Python call per user, which is the overhead/skew trap at scale.
    The distinct-count (nunique) is why this is map_groups rather than
    native aggregates."""
    ds = scan(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def add_bucket(b: pa.Table) -> pa.Table:
        uid = b.column("user_id")
        return b.append_column(
            "bucket", pc.cast(pc.bit_wise_and(uid, 63), pa.int32()))

    def per_bucket(g: pa.Table) -> pa.Table:
        out = (g.select(["user_id", "event_type", "value"])
               .group_by("user_id")
               .aggregate([("event_type", "count"),
                           ("event_type", "count_distinct"),
                           ("value", "max")]))
        return pa.table({
            "user_id": out.column("user_id"),
            "n_events": pc.cast(out.column("event_type_count"),
                                pa.int64()),
            "n_types": pc.cast(out.column("event_type_count_distinct"),
                               pa.int64()),
            "max_value": pa.array(round_half_away(
                out.column("value_max").to_numpy(zero_copy_only=False),
                4)),
        })

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["bucket"])
                     if "bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


# ------------------------------------------------- group-wise top-k (window)

def priority_top_orders(sf_dir: str):
    """Group-wise top-k — the distributed form of
    ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY ...) <= k`` without a
    global sort: every block keeps its local per-key top-k (the
    combiner — the shuffle then moves at most k rows per key per
    block), and the per-key ``map_groups`` merge re-ranks the
    ≤ k·n_blocks survivors. Ties break on ``o_orderkey`` so the rank
    column is deterministic on both sides of the oracle."""
    k = 3
    ds = scan(sf_dir, "orders",
              columns=["o_orderkey", "o_orderpriority",
                       "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.sort_by([("o_totalprice", "descending"),
                               ("o_orderkey", "ascending")])
        codes = np.unique(
            batch.column("o_orderpriority").to_numpy(
                zero_copy_only=False).astype(object),
            return_inverse=True)[1]
        return batch.filter(pa.array(grouped_cumcount(codes) < k))

    def merge(g: pa.Table) -> pa.Table:
        g = g.sort_by([("o_totalprice", "descending"),
                       ("o_orderkey", "ascending")]).slice(0, k)
        return pa.table({
            "o_orderpriority": g.column("o_orderpriority"),
            "rk": pa.array(np.arange(1, g.num_rows + 1,
                                     dtype=np.int64)),
            "o_orderkey": g.column("o_orderkey"),
            "o_totalprice": g.column("o_totalprice"),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
        .groupby("o_orderpriority")
        .map_groups(merge, batch_format="pyarrow")
    )


# ----------------------------------------------- distributed exact quantiles

def price_quantiles(sf_dir: str):
    """Distributed EXACT quantiles (``quantile_cont`` linear
    interpolation) of ``o_totalprice`` by histogram order-statistic
    selection (:func:`orderstats.quantiles`) — no global sort, no full
    materialization: a min/max pass, one bounded histogram reduce, and
    one filtered pass that ships only the boundary buckets' values.
    The approximate path at 100 TB is the same histogram with the final
    interpolation read off the buckets directly."""
    qs = (0.25, 0.5, 0.75, 0.9, 0.99)
    ds = scan(sf_dir, "orders", columns=["o_totalprice"])
    cuts = quantiles(ds, "o_totalprice", qs)
    return pa.table({
        "q": pa.array(qs, type=pa.float64()),
        "value": pa.array([round_half_away(cuts[q], 4) for q in qs],
                          type=pa.float64()),
    })


def events_zscore(sf_dir: str):
    """Per-event z-score of ``value`` against its event_type's
    distribution — the standardization / outlier-scoring pass (two-pass
    moments: the first pass is a per-batch (n, Σv, Σv²) combiner so the
    groupby moves one row per type per block; the tiny moments table
    broadcasts for the scoring map). Population variance, computed from
    the same algebraic expression on both engines."""
    ds = scan(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def moments(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "v": batch.column("value"),
            "vv": pc.multiply(batch.column("value"),
                              batch.column("value")),
        })

    mom = combine(ds, "event_type", {
        "n": ("v", "count"), "s": ("v", "sum"), "ss": ("vv", "sum"),
    }, moments).to_pandas()
    stats = {r.event_type: (float(r.s) / int(r.n),
                            float(r.ss) / int(r.n)
                            - (float(r.s) / int(r.n)) ** 2)
             for r in mom.itertuples(index=False)}

    def z(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        types = batch.column("event_type").to_pylist()
        mean = np.fromiter((stats[t][0] for t in types),
                           dtype=np.float64, count=len(types))
        var = np.fromiter((stats[t][1] for t in types),
                          dtype=np.float64, count=len(types))
        return pa.table({
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
            "z": pa.array(round_half_away((v - mean) / np.sqrt(var), 4),
                          type=pa.float64()),
        })

    return ds.map_batches(z, batch_format="pyarrow", batch_size=65536)


def group_quantiles(sf_dir: str):
    """Exact per-group quantiles (lineitem price by return flag) — the
    grouped variant of :func:`price_quantiles`: the same
    :func:`orderstats.quantiles` selection run once over (group, bucket)
    cells, so the histogram reduce is |groups|·2048 rows (the group key
    is a catalog value) and the refine pass ships only each group's
    boundary-bucket values. No per-group full sort anywhere."""
    qs = (0.25, 0.5, 0.75, 0.9)
    col, key = "l_extendedprice", "l_returnflag"
    ds = scan(sf_dir, "lineitem", columns=[key, col])
    cuts = quantiles(ds, col, qs, key)
    grps = sorted(cuts)
    return pa.table({
        key: pa.array([g for g in grps for _ in qs], type=pa.string()),
        "q": pa.array([q for _ in grps for q in qs], type=pa.float64()),
        "value": pa.array([round_half_away(cuts[g][q], 4)
                           for g in grps for q in qs], type=pa.float64()),
    })


def events_seasonality(sf_dir: str):
    """Weekly seasonality matrix: event count and exact mean value per
    (ISO day-of-week, hour-of-day) cell — the 168-cell load profile
    behind capacity planning and anomaly baselines. Pure per-batch
    Arrow temporal kernels (``day_of_week``/``hour``) pre-fold each
    block to ≤168 cells; the final fold is the bounded census."""
    ds = scan(sf_dir, "events", columns=["ts", "value"])

    def cells(b: pa.Table) -> pa.Table:
        dow = pc.cast(pc.add(pc.day_of_week(b.column("ts")), 1),
                      pa.int64())  # Arrow Mon=0 → ISO Mon=1
        hour = pc.cast(pc.hour(b.column("ts")), pa.int64())
        v = b.column("value").to_numpy(zero_copy_only=False)
        y = v * 1_000_000.0
        v_e6 = np.where(y >= 0, np.floor(y + 0.5),
                        np.ceil(y - 0.5)).astype(np.int64)
        return pa.table({
            "dow": dow,
            "hour": hour,
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "s_e6": pa.array(v_e6),
        })

    folded = combine(ds, ["dow", "hour"], {
        "n": ("n", "sum"), "s_e6": ("s_e6", "sum")}, cells).to_pandas()
    mean = [round_half_away(int(s) / int(n) / 1_000_000.0, 6)
            for s, n in zip(folded["s_e6"], folded["n"])]
    return pa.table({
        "dow": pa.array(folded["dow"].to_numpy(dtype="int64")),
        "hour": pa.array(folded["hour"].to_numpy(dtype="int64")),
        "n_events": pa.array(folded["n"].to_numpy(dtype="int64")),
        "mean_value": pa.array(mean, type=pa.float64()),
    })


_RFM_ANCHOR = _dt.datetime(2001, 9, 1)


def rfm_segments(sf_dir: str):
    """RFM segmentation census — the classic marketing cut: every
    customer scored 0/1/2 on Recency (days since last order vs a fixed
    anchor), Frequency (order count) and Monetary (lifetime cents) by
    TERCILE boundaries of each metric's own distribution, then counted
    into the ≤27 (r, f, m) segments.

    Composition of proven shapes: ONE bucketed custkey fold builds the
    per-customer (rec, freq, mon) stream (integer days/counts/cents),
    :func:`orderstats.quantiles` finds each metric's two tercile
    boundaries (interpolated exactly as DuckDB's ``quantile_cont``, so
    the ``v ≤ boundary`` assignment cannot disagree), and a final
    streaming pass folds the bounded segment census."""
    n_kb = fold_buckets(sf_dir, "orders")
    anchor_us = np.int64(
        (_RFM_ANCHOR - _dt.datetime(1970, 1, 1)).total_seconds()
    ) * 1_000_000

    ds = scan(sf_dir, "orders",
              columns=["o_custkey", "o_orderdate",
                       "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        odate = b.column("o_orderdate").cast(pa.int64()).to_numpy()
        g = group_agg(pa.table({
            "o_custkey": b.column("o_custkey"),
            "last_us": pa.array(odate),
            "freq": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "mon": pa.array(cents),
        }), "o_custkey", {"last_us": ("last_us", "max"),
                          "freq": ("freq", "sum"), "mon": ("mon", "sum")})
        key = g.column("o_custkey").to_numpy()
        return g.append_column(
            "kb", pa.array((key % n_kb).astype(np.int32)))

    def fold(g: pa.Table) -> pa.Table:
        f = g.group_by("o_custkey").aggregate(
            [("last_us", "max"), ("freq", "sum"), ("mon", "sum")])
        rec = (anchor_us - f.column("last_us_max").to_numpy()) \
            // np.int64(86_400_000_000)
        return pa.table({
            "rec": pa.array(rec.astype(np.float64)),
            "freq": pa.array(
                f.column("freq_sum").to_numpy().astype(np.float64)),
            "mon": pa.array(
                f.column("mon_sum").to_numpy().astype(np.float64)),
        })

    cust = (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("kb")
            .map_groups(fold, batch_format="pyarrow")).materialize()

    terciles = (1.0 / 3, 2.0 / 3)
    cuts = {c: quantiles(cust, c, terciles) for c in ("rec", "freq", "mon")}

    def assign(b: pa.Table) -> pa.Table:
        def bucket(col):
            v = b.column(col).to_numpy()
            t1, t2 = cuts[col][terciles[0]], cuts[col][terciles[1]]
            return np.where(v <= t1, 0, np.where(v <= t2, 1, 2)) \
                .astype(np.int64)

        return pa.table({
            "r_bucket": pa.array(bucket("rec")),
            "f_bucket": pa.array(bucket("freq")),
            "m_bucket": pa.array(bucket("mon")),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    return combine(cust, ["r_bucket", "f_bucket", "m_bucket"],
                   {"n_customers": ("n", "sum")}, assign)


def events_profile(sf_dir: str):
    """Data-profiling census of the event stream's numeric columns —
    the pre-ingest quality report (row/null counts, min/max, exact
    mean) a pipeline records before trusting a new data drop.

    One streaming pass: each batch reduces to exactly 4 rows (one per
    profiled column) with integer-quantized sums (value at 1e-6, ids
    at 1e0, timestamps as epoch DAYS — microseconds would overflow the
    int64 partial sum beyond ~10⁴ rows × 10¹⁵), so the cross-block
    fold is order-independent; the final fold is a 4-key native
    groupby and one driver division per column. Exactness assumes
    Σ column values < 2⁶³ per column — columns that outgrow that need
    the two-pass moments combiner (:func:`events_zscore`'s) instead."""
    ds = scan(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols, n_null, mn, mx, s = [], [], [], [], []

        def add(name, arr_f64, sum_int):
            cols.append(name)
            n_null.append(0)
            mn.append(float(arr_f64.min()) if n else 0.0)
            mx.append(float(arr_f64.max()) if n else 0.0)
            s.append(int(sum_int))

        v = b.column("value").to_numpy(zero_copy_only=False)
        y = v * 1_000_000.0
        v_e6 = np.where(y >= 0, np.floor(y + 0.5),
                        np.ceil(y - 0.5)).astype(np.int64)
        add("value", v, v_e6.sum())
        for name in ("event_id", "user_id"):
            x = b.column(name).to_numpy()
            add(name, x.astype(np.float64), x.sum())
        ts_day = b.column("ts").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        add("ts_day", ts_day.astype(np.float64), ts_day.sum())
        return pa.table({
            "col": pa.array(cols, type=pa.string()),
            "n_rows": pa.array([n] * 4, type=pa.int64()),
            "n_null": pa.array(n_null, type=pa.int64()),
            "min_v": pa.array(mn, type=pa.float64()),
            "max_v": pa.array(mx, type=pa.float64()),
            "s": pa.array(s, type=pa.int64()),
        })

    folded = fold(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "col", {"n_rows": ("n_rows", "sum"), "n_null": ("n_null", "sum"),
                "min_v": ("min_v", "min"), "max_v": ("max_v", "max"),
                "s": ("s", "sum")}).to_pandas().sort_values("col")
    scale = {"value": 1_000_000.0, "event_id": 1.0, "user_id": 1.0,
             "ts_day": 1.0}
    mean = [round_half_away(int(s) / int(n) / scale[c], 6)
            for c, s, n in zip(folded["col"], folded["s"],
                               folded["n_rows"])]
    return pa.table({
        "col": pa.array(folded["col"].tolist(), type=pa.string()),
        "n_rows": pa.array(folded["n_rows"].to_numpy(dtype="int64")),
        "n_null": pa.array(folded["n_null"].to_numpy(dtype="int64")),
        "min_v": pa.array(folded["min_v"].to_numpy(dtype="float64")),
        "max_v": pa.array(folded["max_v"].to_numpy(dtype="float64")),
        "mean_v": pa.array(mean, type=pa.float64()),
    })


def customer_ltv_deciles(sf_dir: str):
    """Decile boundaries of customer lifetime value — exact
    ``quantile_cont`` over a DERIVED distribution (per-customer total
    spend), the segmentation cut a marketing pipeline draws before
    assigning tiers.

    Two composed scale shapes: per-customer integer-cent totals fold in
    bounded custkey-hash buckets (per-batch Arrow combiners first),
    then :func:`orderstats.quantiles` (the shared histogram
    order-statistic selection) runs over that derived stream — min/max
    reduce, one 2048-cell histogram, only the boundary buckets' values
    reach the driver."""
    qs = tuple(round(0.1 * k, 1) for k in range(1, 10))
    n_kb = fold_buckets(sf_dir, "orders")

    ds = scan(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        g = group_agg(pa.table({
            "o_custkey": b.column("o_custkey"),
            "tot": pa.array(cents),
        }), "o_custkey", {"tot": ("tot", "sum")})
        key = g.column("o_custkey").to_numpy()
        return g.append_column("kb", pa.array((key % n_kb).astype(np.int32)))

    def fold(g: pa.Table) -> pa.Table:
        f = g.group_by("o_custkey").aggregate([("tot", "sum")])
        return pa.table({
            "tot": pc.cast(pc.cast(f.column("tot_sum"), pa.int64()),
                           pa.float64()),
        })

    totals = (ds.map_batches(partial, batch_format="pyarrow",
                             batch_size=65536)
              .groupby("kb")
              .map_groups(fold, batch_format="pyarrow")).materialize()

    cuts = quantiles(totals, "tot", qs)
    return pa.table({
        "q": pa.array(list(qs), type=pa.float64()),
        "ltv": pa.array([round_half_away(cuts[q] / 100.0, 4)
                         for q in qs], type=pa.float64()),
    })


def mad_outliers(sf_dir: str):
    """Robust per-group anomaly census: for every event type, the count
    of events whose |value − median| exceeds 3× the MEDIAN ABSOLUTE
    DEVIATION — the outlier rule that, unlike z-scores, a single
    corrupted spike cannot poison.

    Median and MAD are both EXACT grouped medians via histogram
    order-statistic selection (two :func:`orderstats.quantiles`
    rounds — the second over |v − med| with the medians broadcast),
    then one streaming count pass. Every interpolation uses the identical
    ``v0 + frac·(v1 − v0)`` expression DuckDB's ``MEDIAN`` evaluates,
    so the unrounded threshold compare cannot flip a boundary row."""
    col, key = "value", "event_type"
    ds = scan(sf_dir, "events", columns=[key, col])
    med = {g: m[0.5] for g, m in quantiles(ds, col, (0.5,), key).items()}

    def dev(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        grps = batch.column(key).to_pylist()
        medv = np.asarray([med[g] for g in grps], dtype=np.float64)
        return pa.table({
            key: batch.column(key),
            "dv": pa.array(np.abs(v - medv), type=pa.float64()),
        })

    # materialize: the median selection scans its input three times
    # (min/max reduce, histogram, boundary refine) — without this the full
    # events read + per-row median lookup would recompute each pass
    devs = ds.map_batches(dev, batch_format="pyarrow",
                          batch_size=65536).materialize()
    mad = {g: m[0.5] for g, m in quantiles(devs, "dv", (0.5,), key).items()}

    def flag_cells(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        grps = batch.column(key).to_pylist()
        medv = np.asarray([med[g] for g in grps], dtype=np.float64)
        madv = np.asarray([mad[g] for g in grps], dtype=np.float64)
        out = np.abs(v - medv) > 3.0 * madv
        return pa.table({
            key: batch.column(key),
            "n": pa.array(np.ones(len(v), dtype=np.int64)),
            "n_outliers": pa.array(out.astype(np.int64)),
        })

    folded = combine(ds, key, {
        "n": ("n", "sum"), "n_outliers": ("n_outliers", "sum"),
    }, flag_cells).to_pandas().sort_values(key)
    grps = folded[key].tolist()
    return pa.table({
        key: pa.array(grps, type=pa.string()),
        "n": pa.array(folded["n"].to_numpy(dtype=np.int64)),
        "n_outliers": pa.array(
            folded["n_outliers"].to_numpy(dtype=np.int64)),
        "median": pa.array([round_half_away(med[g], 4) for g in grps],
                           type=pa.float64()),
        "mad": pa.array([round_half_away(mad[g], 4) for g in grps],
                        type=pa.float64()),
    })


def orders_monthly_growth(sf_dir: str):
    """Month-over-month revenue growth — the reporting-style window
    (LAG) query. The heavy part is the per-batch (month, Σ, n) combiner;
    the month rollup is calendar-bounded (one row per month, never
    corpus-sized), so the LAG runs as one vectorized step on the tiny
    aggregate."""
    ds = scan(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def cells(batch: pa.Table) -> pa.Table:
        return pa.table({
            "month": pc.strftime(batch.column("o_orderdate"), format="%Y-%m"),
            "v": batch.column("o_totalprice"),
        })

    monthly = combine(ds, "month", {
        "revenue": ("v", "sum"), "n_orders": ("v", "count"),
    }, cells).to_pandas().sort_values("month").reset_index(drop=True)
    rev = monthly["revenue"].to_numpy(dtype=np.float64)
    growth = np.full(len(rev), np.nan)
    if len(rev) > 1:
        growth[1:] = round_half_away((rev[1:] - rev[:-1]) / rev[:-1], 4)
    return pa.table({
        "month": pa.array(monthly["month"], type=pa.string()),
        "revenue": pa.array(round_half_away(rev, 2), type=pa.float64()),
        "n_orders": pa.array(monthly["n_orders"].to_numpy(dtype=np.int64)),
        "growth": pa.array(growth, type=pa.float64()),
    })


KMV_K = 256


def approx_distinct_pairs(sf_dir: str):
    """KMV (k-minimum-values) distinct-count sketch over the
    (user_id, props) pair stream, reported next to the exact count.

    The sketch is the 100 TB path for COUNT(DISTINCT): each batch
    contributes its k smallest distinct 60-bit hashes (bounded rows per
    block — constant, not cardinality-sized), a single tiny merge takes
    the global k minima, and the estimator is (k−1)·2^60 / h_k.
    Deterministic (md5 hashing, no randomness), so the DuckDB oracle
    value-checks the estimate itself, not just a tolerance. The exact
    count runs alongside as the verification gate (a distinct-hash
    shuffle — exactly the cost the sketch avoids at scale)."""
    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "events", columns=["user_id", "props"])

    def distinct_hashes(batch: pa.Table) -> pa.Table:
        keys = {f"{u}|{p}" for u, p in
                zip(batch.column("user_id").to_pylist(),
                    batch.column("props").to_pylist())}
        hs = np.fromiter((int(md5_hex(k)[:15], 16) for k in keys),
                         dtype=np.int64, count=len(keys))
        return pa.table({"h": pa.array(np.unique(hs))})

    parts = ds.map_batches(distinct_hashes, batch_format="pyarrow",
                           batch_size=65536).materialize()

    # exact distinct: bounded hash-bucket fold with a vectorized
    # np.unique body — Ray's groupby("h").count() walks the ~|distinct|
    # key space per group (the high-cardinality Aggregate trap; it cost
    # 12 s of this query's 17 s at sf0.1)
    _B = 64

    def add_hb(b: pa.Table) -> pa.Table:
        h = b.column("h").to_numpy(zero_copy_only=False)
        return pa.table({
            "h": b.column("h"),
            "hb": pa.array((h % _B).astype(np.int32)),
        })

    def bucket_distinct(t: pa.Table) -> pa.Table:
        n = len(np.unique(t.column("h").to_numpy(zero_copy_only=False)))
        return pa.table({"n": pa.array([n], type=pa.int64())})

    n_exact = int(
        parts.map_batches(add_hb, batch_format="pyarrow")
        .groupby("hb").map_groups(bucket_distinct, batch_format="pyarrow")
        .sum("n"))

    def kmin_partial(batch: pa.Table) -> pa.Table:
        hs = np.unique(batch.column("h").to_numpy(zero_copy_only=False))
        return pa.table({"h": pa.array(hs[:KMV_K]),
                         "g": pa.array(np.zeros(min(len(hs), KMV_K),
                                                dtype=np.int32))})

    def kmin_merge(g: pa.Table) -> pa.Table:
        hs = np.unique(g.column("h").to_numpy(
            zero_copy_only=False))[:KMV_K]
        kth = int(hs[-1])
        est = round_half_away((KMV_K - 1) * float(1 << 60) / kth, 4)
        return pa.table({
            "k": pa.array([KMV_K], type=pa.int64()),
            "kth_hash": pa.array([kth], type=pa.int64()),
            "est_distinct": pa.array([est], type=pa.float64()),
            "n_exact": pa.array([n_exact], type=pa.int64()),
        })

    return (parts.map_batches(kmin_partial, batch_format="pyarrow")
            .groupby("g")
            .map_groups(kmin_merge, batch_format="pyarrow")
            .select_columns(["k", "kth_hash", "est_distinct", "n_exact"]))


HLL_M = 64          # registers (p = 6 index bits out of the 60-bit hash)
HLL_RHO_MAX = 55    # 54 payload bits → rho ∈ [1, 55]


def hll_users_by_type(sf_dir: str):
    """Grouped HyperLogLog: approximate distinct users per event_type,
    next to the exact count (the verification gate).

    The per-group mergeable-sketch shape for COUNT(DISTINCT x) GROUP BY
    g at 100 TB: every batch folds its rows into (group, register, max
    rho) partials — at most |groups|·64 rows per block regardless of
    cardinality — and a tiny per-group merge takes register maxima and
    evaluates the estimator. Nothing cardinality-sized ever shuffles on
    the sketch path. Deterministic md5 hashing and an INTEGER register
    sum S = Σ 2^(55−M_j) (each term a dyadic exactly representable —
    the float division happens once, on identical operands in both
    engines), so the DuckDB oracle value-checks the estimate itself.
    No small-range linear-counting correction (it would need ln(), a
    libm call the two engines may round differently); v_zero is
    reported so a consumer can apply it."""
    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "events", columns=["event_type", "user_id"])

    def reg_partial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type").to_pylist(), dtype=object)
        uid = batch.column("user_id").to_pylist()
        h = np.fromiter((int(md5_hex(str(u))[:15], 16) for u in uid),
                        dtype=np.int64, count=len(uid))
        idx = h % HLL_M
        w = h // HLL_M
        # bit_length via frexp: w < 2^54 is exactly representable
        e = np.frexp(w.astype(np.float64))[1]
        rho = np.where(w > 0, HLL_RHO_MAX - e, HLL_RHO_MAX).astype(np.int64)
        df = pd.DataFrame({"event_type": et, "idx": idx, "rho": rho})
        part = df.groupby(["event_type", "idx"], as_index=False)["rho"].max()
        return pa.table({
            "event_type": pa.array(part["event_type"], type=pa.string()),
            "idx": pa.array(part["idx"].to_numpy(), type=pa.int64()),
            "rho": pa.array(part["rho"].to_numpy(), type=pa.int64()),
        })

    def hll_merge(g: pa.Table) -> pa.Table:
        regs = (g.select(["idx", "rho"]).group_by("idx")
                .aggregate([("rho", "max")]))
        rho = regs.column("rho_max").to_numpy(zero_copy_only=False)
        n_present = len(rho)
        s_int = int((np.int64(1) << (HLL_RHO_MAX - rho)).sum()) \
            + (HLL_M - n_present) * (1 << HLL_RHO_MAX)
        alpha = 0.7213 / (1 + 1.079 / HLL_M)
        est = round_half_away(
            alpha * HLL_M * HLL_M * float(1 << HLL_RHO_MAX) / s_int, 4)
        return pa.table({
            "event_type": pa.array([g.column("event_type")[0].as_py()],
                                   type=pa.string()),
            "m": pa.array([HLL_M], type=pa.int64()),
            "v_zero": pa.array([HLL_M - n_present], type=pa.int64()),
            "s_int": pa.array([s_int], type=pa.int64()),
            "est_distinct": pa.array([est], type=pa.float64()),
        })

    est = (ds.map_batches(reg_partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("event_type")
           .map_groups(hll_merge, batch_format="pyarrow"))

    # exact distinct per type: bounded-bucket hash dedup, then a native
    # streaming count — the all-to-all the sketch path avoids
    def key_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "user_id": batch.column("user_id").to_pylist(),
        }).drop_duplicates()
        hb = (df["user_id"].to_numpy() % 64).astype(np.int32)
        return pa.table({
            "event_type": pa.array(df["event_type"], type=pa.string()),
            "user_id": pa.array(df["user_id"].to_numpy(), type=pa.int64()),
            "hb": pa.array(hb),
        })

    def bucket_distinct(g: pa.Table) -> pa.Table:
        return (g.select(["event_type", "user_id"])
                .group_by(["event_type", "user_id"]).aggregate([])
                .select(["event_type"]))

    exact = combine(
        ds.map_batches(key_partial, batch_format="pyarrow",
                       batch_size=65536)
        .groupby("hb").map_groups(bucket_distinct, batch_format="pyarrow"),
        "event_type", {"n_exact": ("event_type", "count")})

    def _tag_est(t: pa.Table) -> pa.Table:
        return t.append_column("n_exact", pa.nulls(t.num_rows,
                                                   type=pa.int64()))

    def _tag_exact(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "event_type": t.column("event_type"),
            "m": pa.nulls(n, type=pa.int64()),
            "v_zero": pa.nulls(n, type=pa.int64()),
            "s_int": pa.nulls(n, type=pa.int64()),
            "est_distinct": pa.nulls(n, type=pa.float64()),
            "n_exact": t.column("n_exact"),
        })

    def _merge(g: pa.Table) -> pa.Table:
        has_m = pc.is_valid(g.column("m"))
        a = g.filter(has_m)
        b = g.filter(pc.invert(has_m))
        return pa.table({
            "event_type": a.column("event_type"),
            "m": pc.cast(a.column("m"), pa.int64()),
            "v_zero": pc.cast(a.column("v_zero"), pa.int64()),
            "s_int": pc.cast(a.column("s_int"), pa.int64()),
            "est_distinct": pc.cast(a.column("est_distinct"),
                                    pa.float64()),
            "n_exact": pc.cast(b.column("n_exact"), pa.int64()),
        })

    return (est.map_batches(_tag_est, batch_format="pyarrow")
            .union(exact.map_batches(_tag_exact, batch_format="pyarrow"))
            .groupby("event_type")
            .map_groups(_merge, batch_format="pyarrow"))


# ------------------------------------------------------------ filter/project

def click_events(sf_dir: str):
    """Vectorized filter + projection (Arrow compute, zero-copy)."""
    ds = scan(sf_dir, "events",
              columns=["event_id", "event_type", "value", "user_id"])
    return ds.map_batches(
        lambda b: b.filter(
            pc.and_(pc.equal(b["event_type"], "click"),
                    pc.greater(b["value"], 10.0))
        ).select(["event_id", "user_id", "value"]),
        batch_format="pyarrow",
    )


# ------------------------------------------------------- anti / semi joins

_INACTIVE_CUTOFF = "2000-01-01"


def inactive_customers(sf_dir: str):
    """Customers with NO order since a cutoff date — the distributed
    ANTI-JOIN shape (NOT EXISTS). The orders side is shrunk to unique
    active custkeys inside ``map_batches`` (combiner) before the
    hash-partitioned ``left_anti`` join, so the exchange moves at most
    one row per (batch, custkey) instead of every order row. At 100 TB
    both sides co-partition by custkey; nothing is broadcast."""
    import datetime as _dt

    cutoff = pa.scalar(_dt.datetime(2000, 1, 1), type=pa.timestamp("us"))

    cust = scan(
        sf_dir, "customer",
        columns=["c_custkey", "c_name", "c_acctbal"])
    orders = scan(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def active_keys(batch: pa.Table) -> pa.Table:
        recent = batch.filter(
            pc.greater_equal(batch.column("o_orderdate"), cutoff))
        return pa.table({"o_custkey": pc.unique(recent.column("o_custkey"))})

    act = orders.map_batches(active_keys, batch_format="pyarrow",
                             batch_size=65536)
    out = hash_join(cust, act, "left_anti", "c_custkey", "o_custkey")
    return out.map_batches(
        lambda b: b.select(["c_custkey", "c_name", "c_acctbal"]),
        batch_format="pyarrow")


def shipping_priority(sf_dir: str):
    """TPC-H-Q3-shaped 3-table join + grouped top-k: lineitem ⋈ orders
    run as a hash-partitioned BIG ⋈ BIG join, the filtered customer
    side applied as a ``left_semi`` join (existence check — no column
    carry, half the exchange width of an inner join). Revenue is summed
    in exact integer 1e-4 currency units (cents × discount basis
    points), so the per-order totals are bit-identical to the SQL
    oracle regardless of summation order."""
    import datetime as _dt

    cutoff = pa.scalar(_dt.datetime(1998, 1, 1), type=pa.timestamp("us"))

    li = scan(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def li_partial(batch: pa.Table) -> pa.Table:
        shipped = batch.filter(
            pc.greater(batch.column("l_shipdate"), cutoff))
        cents = np.rint(
            shipped.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc_bp = np.rint(
            shipped.column("l_discount").to_numpy() * 100.0
        ).astype(np.int64)
        return group_agg(pa.table({
            "l_orderkey": shipped.column("l_orderkey"),
            "rev_e4": pa.array(cents * (100 - disc_bp), type=pa.int64()),
        }), "l_orderkey", {"rev_e4": ("rev_e4", "sum")})

    orders = scan(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"],
    ).map_batches(
        lambda b: b.filter(pc.less(b.column("o_orderdate"), cutoff)),
        batch_format="pyarrow", batch_size=65536)

    bld = scan(
        sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("c_mktsegment"), pa.scalar("BUILDING"))
        ).select(["c_custkey"]),
        batch_format="pyarrow", batch_size=65536)

    # bucket count tracks the ORDER table's bytes (not the CPU-capped
    # join width) so each bucket group stays ~32 MiB at any corpus size
    n_buckets = max(8, int(table_bytes(sf_dir, "orders") // (32 << 20)) + 1)

    def bucket_col(b: pa.Table) -> pa.Table:
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        return b.append_column(
            "ob", pa.array((k % n_buckets).astype(np.int32)))

    def order_topk(t: pa.Table) -> pa.Table:
        # per-order fold (Arrow group_by — Ray's Aggregate walks the
        # ~|orders| key space per group) plus a per-bucket top-10 cut:
        # the global top-10 under (revenue desc, orderkey asc) is a
        # subset of the bucket top-10s, so the final sort sees at most
        # 10×n_buckets candidate rows instead of one per order
        g = (t.select(["l_orderkey", "o_orderdate", "o_orderpriority",
                       "rev_e4"])
             .group_by(["l_orderkey", "o_orderdate", "o_orderpriority"])
             .aggregate([("rev_e4", "sum")]))
        # the cut must rank in the SAME key space as the final sort and
        # the oracle — ROUNDED revenue, then orderkey. Cutting by exact
        # rev_e4 would break the bucket-top-10 ⊇ global-top-10 subset
        # property whenever distinct exact values round to a tie
        rev = round_half_away(
            g.column("rev_e4_sum").to_numpy() / 10000.0, 2)
        key = g.column("l_orderkey").to_numpy()
        top = np.lexsort((key, -rev))[:10]
        g = g.take(top)
        return pa.table({
            "l_orderkey": g.column("l_orderkey"),
            "revenue": pa.array(np.atleast_1d(round_half_away(
                g.column("rev_e4_sum").to_numpy() / 10000.0, 2)),
                type=pa.float64()),
            "o_orderdate": pc.cast(g.column("o_orderdate"),
                                   pa.timestamp("us")),
            "o_orderpriority": g.column("o_orderpriority"),
        })

    return (
        hash_join(
            hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                     batch_size=65536),
                      orders, "inner", "l_orderkey", "o_orderkey"),
            bld, "left_semi", "o_custkey", "c_custkey")
        .map_batches(bucket_col, batch_format="pyarrow")
        .groupby("ob")
        .map_groups(order_topk, batch_format="pyarrow")
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(10))


# ---------------------------------------------------------- part / supplier

def promo_revenue(sf_dir: str):
    """TPC-H-Q14-shaped promo share per ship month: lineitem ⋈ part as
    a hash-partitioned join (part scales with the corpus — not
    broadcast), with lineitem pre-collapsed per batch to one row per
    (partkey, month) before the exchange. Revenue in exact integer 1e-4
    units; the share is a ratio of two integer sums, so the oracle
    matches bit-for-bit."""
    li = scan(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def li_partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc_bp = np.rint(
            batch.column("l_discount").to_numpy() * 100.0
        ).astype(np.int64)
        month = pc.strftime(batch.column("l_shipdate"), format="%Y-%m")
        return group_agg(pa.table({
            "l_partkey": batch.column("l_partkey"),
            "month": month,
            "rev_e4": pa.array(cents * (100 - disc_bp), type=pa.int64()),
        }), ["l_partkey", "month"], {"rev_e4": ("rev_e4", "sum")})

    part = scan(sf_dir, "part", columns=["p_partkey", "p_type"])

    def split_promo(batch: pa.Table) -> pa.Table:
        # folded to one row per month IN-BATCH: month cardinality is
        # calendar-bounded, so the downstream groupby's sort exchange
        # moves ~months×blocks rows instead of the whole joined fact
        # stream (6.9 s of Aggregate remote wall at sf0.1)
        promo = pc.equal(batch.column("p_type"), pa.scalar("PROMO"))
        rev = batch.column("rev_e4").to_numpy()
        isp = promo.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "month": batch.column("month"),
            "promo_e4": pa.array(rev * isp, type=pa.int64()),
            "total_e4": batch.column("rev_e4"),
        })

    agg = combine(
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  part, "inner", "l_partkey", "p_partkey"),
        "month", {"promo_e4": ("promo_e4", "sum"),
                  "total_e4": ("total_e4", "sum")}, split_promo)

    def final(batch: pa.Table) -> pa.Table:
        share = round_half_away(
            100.0 * batch.column("promo_e4").to_numpy()
            / batch.column("total_e4").to_numpy(), 4)
        return pa.table({
            "month": batch.column("month"),
            "promo_share": pa.array(np.atleast_1d(share),
                                    type=pa.float64()),
            "revenue": pa.array(round_half_away(
                batch.column("total_e4").to_numpy() / 10000.0, 2),
                type=pa.float64()),
        })

    return agg.map_batches(final, batch_format="pyarrow")


def region_supplier_revenue(sf_dir: str):
    """Revenue by (region, supplier nation) — the snowflake
    dimension-chain lookup: supplier→nation→region resolve into ONE
    composed (suppkey → names) broadcast array driver-side (the dims
    are bounded reference tables by contract), so the fact scan does a
    single searchsorted per batch and pre-aggregates to at most
    |nation| rows before the tiny final groupby. Integer 1e-4 revenue
    units — oracle matches bit-for-bit."""
    import pyarrow.parquet as pq

    sup = pq.read_table(_pq(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_nationkey"]) \
            .sort_by("s_suppkey")
    nat = pq.read_table(_pq(sf_dir, "nation")).sort_by("n_nationkey")
    reg = pq.read_table(_pq(sf_dir, "region")).sort_by("r_regionkey")

    n_name = nat.column("n_name").to_numpy(zero_copy_only=False)
    r_name = reg.column("r_name").to_numpy(zero_copy_only=False)[
        nat.column("n_regionkey").to_numpy()]
    keys = sup.column("s_suppkey").to_numpy()
    s_nat = sup.column("s_nationkey").to_numpy()
    nations, regions = n_name[s_nat], r_name[s_nat]

    ds = scan(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def join_cells(batch: pa.Table) -> pa.Table:
        idx = np.searchsorted(keys, batch.column("l_suppkey").to_numpy())
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc_bp = np.rint(
            batch.column("l_discount").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "r_name": pa.array(regions[idx], type=pa.string()),
            "n_name": pa.array(nations[idx], type=pa.string()),
            "rev_e4": pa.array(cents * (100 - disc_bp), type=pa.int64()),
        })

    agg = combine(ds, ["r_name", "n_name"], {"rev_e4": ("rev_e4", "sum")},
                  join_cells)
    return agg.map_batches(
        lambda b: pa.table({
            "r_name": b["r_name"],
            "n_name": b["n_name"],
            "revenue": pa.array(round_half_away(
                b.column("rev_e4").to_numpy() / 10000.0, 2),
                type=pa.float64()),
        }),
        batch_format="pyarrow")


def distinct_users_salted(sf_dir: str, n_salts: int = 16):
    """Exact distinct users per event type via SALTED two-stage
    aggregation — the hot-key discipline for HOLISTIC aggregates.
    ``event_type`` has a tiny vocabulary, so every key is hot: a naive
    groupby ships every (type, user) row to one reducer. Salting by
    ``user_id % n_salts`` splits each hot key into ``n_salts`` bounded
    groups; because the salt is a function of the DISTINCT key, the
    per-salt distinct sets are disjoint and stage 2 just SUMS the
    per-salt counts — exact, no set ever crosses the wire twice.
    (Algebraic aggregates get the combiner treatment elsewhere; this is
    the pattern for the aggregates combiners can't fold.)"""
    ds = scan(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": b.column("event_type").to_pylist(),
            "user_id": b.column("user_id").to_numpy(),
        }).drop_duplicates()
        return pa.table({
            "event_type": pa.array(df["event_type"], type=pa.string()),
            "user_id": pa.array(df["user_id"].to_numpy(), type=pa.int64()),
            "salt": pa.array(
                (df["user_id"].to_numpy() % n_salts).astype(np.int32)),
        })

    def salt_distinct(g: pa.Table) -> pa.Table:
        out = (g.select(["event_type", "user_id"])
               .group_by("event_type")
               .aggregate([("user_id", "count_distinct")]))
        return pa.table({
            "event_type": out.column("event_type"),
            "nd": pc.cast(out.column("user_id_count_distinct"),
                          pa.int64()),
        })

    return fold(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["event_type", "salt"])
        .map_groups(salt_distinct, batch_format="pyarrow"),
        "event_type", {"n_users": ("nd", "sum")})


def customer_order_counts(sf_dir: str):
    """Per-customer order count in a date window INCLUDING zeros — the
    LEFT OUTER JOIN shape, which Ray Data's hash join doesn't offer
    natively (inner/semi/anti only), expressed as the union-tag
    pattern: customer rows and pre-aggregated per-customer counts union
    into one narrow stream, co-locate in bounded custkey-hash buckets,
    and each bucket emits customer rows with their count or 0. Both
    sides stay corpus-scale (nothing broadcast); the orders side folds
    to one row per (batch, custkey) before the exchange."""
    import datetime as _dt

    cutoff = pa.scalar(_dt.datetime(2000, 1, 1), type=pa.timestamp("us"))
    n_buckets = 64

    cust = scan(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def cust_rows(b: pa.Table) -> pa.Table:
        key = b.column("c_custkey").to_numpy()
        return pa.table({
            "c_custkey": b.column("c_custkey"),
            "c_name": b.column("c_name"),
            "n": pa.array(np.zeros(len(key), dtype=np.int64)),
            "tag": pa.array(np.zeros(len(key), dtype=np.int8)),
            "kb": pa.array((key % n_buckets).astype(np.int32)),
        })

    orders = scan(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def count_rows(b: pa.Table) -> pa.Table:
        recent = b.filter(
            pc.greater_equal(b.column("o_orderdate"), cutoff))
        g = group_agg(pa.table({
            "c_custkey": recent.column("o_custkey"),
            "one": pa.array(
                np.ones(recent.num_rows, dtype=np.int64)),
        }), "c_custkey", {"n": ("one", "sum")})
        key = g.column("c_custkey").to_numpy()
        return pa.table({
            "c_custkey": g.column("c_custkey"),
            "c_name": pa.array([""] * len(key), type=pa.string()),
            "n": g.column("n"),
            "tag": pa.array(np.ones(len(key), dtype=np.int8)),
            "kb": pa.array((key % n_buckets).astype(np.int32)),
        })

    def outer(g: pa.Table) -> pa.Table:
        tag = g.column("tag")
        counts = (g.filter(pc.equal(tag, 1))
                  .select(["c_custkey", "n"]).group_by("c_custkey")
                  .aggregate([("n", "sum")]))
        left = g.filter(pc.equal(tag, 0)).select(["c_custkey", "c_name"])
        m = left.join(counts, keys="c_custkey", join_type="left outer")
        return pa.table({
            "c_custkey": m.column("c_custkey"),
            "c_name": m.column("c_name"),
            "n_orders": pc.cast(pc.fill_null(m.column("n_sum"), 0),
                                pa.int64()),
        })

    return (
        cust.map_batches(cust_rows, batch_format="pyarrow",
                         batch_size=65536)
        .union(orders.map_batches(count_rows, batch_format="pyarrow",
                                  batch_size=65536))
        .groupby("kb")
        .map_groups(outer, batch_format="pyarrow")
    )


# ----------------------------------------------- semi-structured extraction

def props_numeric_agg(sf_dir: str):
    """Semi-structured field extraction + aggregate: pull the numeric
    ``k`` out of the JSON ``props`` payload and aggregate it per event
    type — the log-analytics shape (every web-scale event stream
    carries a JSON blob column). Extraction is ``pc.extract_regex``
    over the zero-copy Arrow column (no per-row json.loads loop, no
    pandas conversion); rows that don't parse are dropped identically
    on both sides. Sums stay int64-exact; only the mean is rounded."""
    ds = scan(sf_dir, "events", columns=["event_type", "props"])

    def cells(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b.column("props"),
                             pattern=r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        ok = pc.is_valid(k)
        k = pc.filter(k, ok)
        return pa.table({
            "event_type": pc.filter(b.column("event_type"), ok),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
            "k": k,
        })

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_events").to_numpy()
        s = b.column("sum_k").to_numpy()
        return pa.table({
            "event_type": b.column("event_type"),
            "n_events": b.column("n_events"),
            "sum_k": b.column("sum_k"),
            "avg_k": pa.array(round_half_away(s / n, 4),
                              type=pa.float64()),
            "max_k": b.column("max_k"),
        })

    return combine(ds, "event_type", {
        "n_events": ("one", "sum"), "sum_k": ("k", "sum"),
        "max_k": ("k", "max"),
    }, cells).map_batches(finish, batch_format="pyarrow")


# -------------------------------------------------------------- rollup

def revenue_rollup(sf_dir: str):
    """ROLLUP levels (nation, month) → (nation) → () computed by
    re-aggregating the SMALL base aggregate — the fact table is scanned
    exactly once; the coarser levels fold the ~|nation|×|month| base
    rows, never the corpus. Customer nation resolves via the broadcast
    dim-lookup (segment_revenue pattern); o_totalprice sums in integer
    cents so every level is bit-exact. NULL group keys are encoded as
    'ALL' on both sides (driver-stable compare)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(_pq(sf_dir, "customer"),
                         columns=["c_custkey", "c_nationkey"]) \
             .sort_by("c_custkey")
    nat = pq.read_table(_pq(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"]) \
            .sort_by("n_nationkey")
    names = nat.column("n_name").to_numpy(zero_copy_only=False)
    keys = cust.column("c_custkey").to_numpy()
    nations = names[cust.column("c_nationkey").to_numpy()]

    ds = scan(sf_dir, "orders",
              columns=["o_custkey", "o_orderdate",
                       "o_totalprice"])

    def base_cells(batch: pa.Table) -> pa.Table:
        nn = nations[np.searchsorted(keys,
                                     batch.column("o_custkey").to_numpy())]
        cents = np.rint(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "n_name": pa.array(nn, type=pa.string()),
            "month": pc.strftime(batch.column("o_orderdate"),
                                 format="%Y-%m"),
            "rev_c": pa.array(cents, type=pa.int64()),
            "n_orders": pa.array(np.ones(len(cents), dtype=np.int64)),
        })

    base = combine(ds, ["n_name", "month"], {
        "rev_c": ("rev_c", "sum"), "n_orders": ("n_orders", "sum"),
    }, base_cells).to_arrow_refs()
    base_tab = pa.concat_tables([ray.get(r) for r in base])

    # roll the tiny base up driver-side (bounded: |nation| x |month|)
    df = base_tab.to_pandas()
    lvl1 = df.groupby("n_name", as_index=False)[["rev_c", "n_orders"]] \
        .sum().assign(month="ALL")
    lvl2 = pd.DataFrame({"n_name": ["ALL"], "month": ["ALL"],
                         "rev_c": [df["rev_c"].sum()],
                         "n_orders": [df["n_orders"].sum()]})
    out = pd.concat([df, lvl1, lvl2], ignore_index=True)
    return pa.table({
        "n_name": pa.array(out["n_name"], type=pa.string()),
        "month": pa.array(out["month"], type=pa.string()),
        "revenue": pa.array(round_half_away(
            out["rev_c"].to_numpy() / 100.0, 2), type=pa.float64()),
        "n_orders": pa.array(out["n_orders"].to_numpy(), type=pa.int64()),
    })


# ------------------------------------------------------ distributed moments

def price_quantity_corr(sf_dir: str):
    """Pearson correlation of (l_quantity, l_extendedprice) from
    EXACT integer moment partials: quantities are integral and prices
    integral in cents, so each batch folds to ONE row of int64
    (n, Σq, Σpc, Σq², Σpc², Σq·pc) — pc² ≈ 10¹⁴/row keeps a 65 536-row
    batch inside int64 — and the per-batch rows (one per ~64 MiB block,
    KBs even at 100 TB) stream to the driver where Python's unbounded
    ints combine them order-independently. No float partial ever rides
    a nondeterministic Ray Sum; the closed form converts the exact
    moments to float ONCE, mirroring the oracle's HUGEINT arithmetic."""
    import math

    ds = scan(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        q = np.round(batch.column("l_quantity").to_numpy()) \
            .astype(np.int64)
        pc_ = np.round(batch.column("l_extendedprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({
            "n": pa.array([len(q)], type=pa.int64()),
            "sq": pa.array([int(q.sum())], type=pa.int64()),
            "sp": pa.array([int(pc_.sum())], type=pa.int64()),
            "sqq": pa.array([int((q * q).sum())], type=pa.int64()),
            "spp": pa.array([int((pc_ * pc_).sum())], type=pa.int64()),
            "sqp": pa.array([int((q * pc_).sum())], type=pa.int64()),
        })

    tot = {k: 0 for k in ("n", "sq", "sp", "sqq", "spp", "sqp")}
    for b in ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=65536) \
               .iter_batches(batch_size=4096, batch_format="pyarrow"):
        for k in tot:
            tot[k] += sum(b.column(k).to_pylist())   # exact Python ints

    n = tot["n"]
    cov = n * tot["sqp"] - tot["sq"] * tot["sp"]
    var_q = n * tot["sqq"] - tot["sq"] ** 2
    var_p = n * tot["spp"] - tot["sp"] ** 2
    den = math.sqrt(float(var_q) * float(var_p))
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "corr": pa.array([round_half_away(float(cov) / den, 4)],
                         type=pa.float64()),
        "mean_qty": pa.array([round_half_away(float(tot["sq"]) / n, 4)],
                             type=pa.float64()),
        "mean_price": pa.array(
            [round_half_away(float(tot["sp"]) / 100.0 / n, 4)],
            type=pa.float64()),
    })


def k_anonymity(sf_dir: str):
    """k-anonymity census over the customer quasi-identifier
    (c_nationkey, c_mktsegment) — Sweeney 2002's re-identification
    risk gauge as count-of-counts: each row says "n_groups
    equivalence classes of size k cover n_customers people"; the
    dataset's k-anonymity is the smallest k present, and any k=1 row
    is a uniquely re-identifiable individual. The privacy audit a
    curation pipeline runs before releasing joined demographics.

    Scale shape: per-batch Arrow ``group_by`` collapses to one cell
    per quasi-id combination per block (the quasi-id space is
    catalog-bounded: |nations|×|segments|), one bounded fold sums
    class sizes, and the count-of-counts is a second ≤|classes|-key
    fold — all exact integers, nothing rides a float."""
    ds = scan(sf_dir, "customer", columns=["c_nationkey", "c_mktsegment"])

    def cells(b: pa.Table) -> pa.Table:
        return pa.table({
            "nat": b.column("c_nationkey"),
            "seg": b.column("c_mktsegment"),
            "k": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    def counts_of_counts(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column("k"),
            "n_groups": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_customers": b.column("k"),
        })

    classes = combine(ds, ["nat", "seg"], {"k": ("k", "sum")}, cells)
    return combine(classes, "k", {
        "n_groups": ("n_groups", "sum"),
        "n_customers": ("n_customers", "sum"),
    }, counts_of_counts)


def benford_order_totals(sf_dir: str):
    """Benford's-law first-digit audit of order totals — the classic
    fabricated-numbers screen (Nigrini 1996): observed vs expected
    log₁₀(1+1/d) leading-digit frequencies with per-digit χ² terms.
    Synthetic uniform-ish prices FAIL Benford loudly — the op's
    honest reading here is "this data is not organic", which is
    exactly what the audit is for.

    Exactness: the leading digit is integer string arithmetic (no
    float log boundary), the ≤9-key histogram folds exact counts, and
    the χ² terms mirror the oracle's float expression term-for-term
    driver-side."""
    import math

    ds = scan(sf_dir, "orders", columns=["o_totalprice"])

    def cells(b: pa.Table) -> pa.Table:
        v = np.floor(b.column("o_totalprice").to_numpy()).astype(np.int64)
        digit = v.astype("U20").astype("U1").astype(np.int64)
        return pa.table({
            "digit": pa.array(digit),
            "n": pa.array(np.ones(len(v), dtype=np.int64)),
        })

    hist = combine(ds, "digit", {"n": ("n", "sum")}, cells).take_all()
    hist.sort(key=lambda r: r["digit"])
    n = sum(int(r["n"]) for r in hist)
    dig, obs, of, ef, chi = [], [], [], [], []
    for r in hist:
        d_, nd = int(r["digit"]), int(r["n"])
        pe = math.log10(1 + 1.0 / d_)
        dev = nd - n * pe
        dig.append(d_)
        obs.append(nd)
        of.append(nd * 1.0 / n)
        ef.append(pe)
        chi.append(dev * dev / (n * pe))
    return pa.table({
        "digit": pa.array(dig, type=pa.int64()),
        "n_obs": pa.array(obs, type=pa.int64()),
        "observed_frac": pa.array(
            round_half_away(np.array(of), 6), type=pa.float64()),
        "expected_frac": pa.array(
            round_half_away(np.array(ef), 6), type=pa.float64()),
        "chi2_term": pa.array(
            round_half_away(np.array(chi), 4), type=pa.float64()),
    })


_WILSON_Z, _WILSON_Z2 = 1.96, 3.8416  # 95% Wilson score interval
_WILSON_TOPK = 20


def supplier_wilson_rank(sf_dir: str):
    """Supplier reliability leaderboard by the WILSON SCORE lower
    bound of the on-time-shipment rate ("late" = shipped more than 90
    days after the order, this schema's only lateness signal) — the
    "how not to sort by average rating" fix: a 2/2 supplier must not
    outrank a 95/100 one, so rank on the 95% lower confidence bound,
    not the raw rate.

    Scale shape: lineitem ⋈ orders co-partition in bounded
    orderkey-hash buckets via a tagged union (one shuffle each side,
    no broadcast), per-supplier (n, on_time) pre-sum in-bucket, one
    catalog-bounded supplier fold; the Wilson expression then runs
    vectorized on exact integer counts, term-for-term identical to
    the oracle's, and only the final sort+limit sees supplier rows."""
    n_buckets = max(64, int(table_bytes(sf_dir, "lineitem") // (32 << 20)) + 1)

    def order_rows(b: pa.Table) -> pa.Table:
        ok = b.column("o_orderkey").to_numpy()
        odate = (b.column("o_orderdate").to_numpy()
                 .astype("datetime64[us]").astype(np.int64))
        return pa.table({
            "bucket": pa.array((ok % n_buckets).astype(np.int32)),
            "side": pa.array(np.zeros(len(ok), dtype=np.int8)),
            "ok": pa.array(ok, type=pa.int64()),
            "supp": pa.array(np.zeros(len(ok), dtype=np.int64)),
            "ts": pa.array(odate),
        })

    def line_rows(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey").to_numpy()
        ship = (b.column("l_shipdate").to_numpy()
                .astype("datetime64[us]").astype(np.int64))
        return pa.table({
            "bucket": pa.array((ok % n_buckets).astype(np.int32)),
            "side": pa.array(np.ones(len(ok), dtype=np.int8)),
            "ok": pa.array(ok, type=pa.int64()),
            "supp": pc.cast(b.column("l_suppkey"), pa.int64()),
            "ts": pa.array(ship),
        })

    orders = scan(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(order_rows, batch_format="pyarrow", batch_size=65536)
    lines = scan(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    ).map_batches(line_rows, batch_format="pyarrow", batch_size=65536)

    _LATE_US = 90 * 86_400_000_000

    def per_bucket(g: pa.Table) -> pa.Table:
        side = g.column("side")
        o = (g.filter(pc.equal(side, 0)).select(["ok", "ts"])
             .rename_columns(["ok", "od"]))
        li = g.filter(pc.equal(side, 1)).select(["ok", "supp", "ts"])
        m = li.join(o, keys="ok", join_type="inner")
        ot = (m.column("ts").to_numpy(zero_copy_only=False)
              <= m.column("od").to_numpy(zero_copy_only=False)
              + _LATE_US).astype(np.int64)
        agg = (pa.table({"supp": m.column("supp"),
                         "ot": pa.array(ot)})
               .group_by("supp")
               .aggregate([("ot", "count"), ("ot", "sum")]))
        return pa.table({
            "supp": pc.cast(agg.column("supp"), pa.int64()),
            "n": pc.cast(agg.column("ot_count"), pa.int64()),
            "on_time": pc.cast(agg.column("ot_sum"), pa.int64()),
        })

    counts = fold(orders.union(lines).groupby("bucket")
                  .map_groups(per_bucket, batch_format="pyarrow"),
                  "supp", {"n": ("n", "sum"), "on_time": ("on_time", "sum")})

    def wilson(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy().astype(np.float64)
        ot = b.column("on_time").to_numpy().astype(np.float64)
        p = ot / n
        lb = ((p + _WILSON_Z2 / (2 * n)
               - _WILSON_Z * np.sqrt((p * (1 - p)
                                      + _WILSON_Z2 / (4 * n)) / n))
              / (1 + _WILSON_Z2 / n))
        return pa.table({
            "suppkey": b.column("supp"),
            "n_shipments": b.column("n"),
            "n_on_time": b.column("on_time"),
            "on_time_rate": pa.array(round_half_away(p, 4),
                                     type=pa.float64()),
            "wilson_lb": pa.array(lb, type=pa.float64()),
        })

    def finish(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.column_names.index("wilson_lb"), "wilson_lb",
            pa.array(round_half_away(
                b.column("wilson_lb").to_numpy(), 4), type=pa.float64()))

    return (counts.map_batches(wilson, batch_format="pyarrow")
            .sort(["wilson_lb", "suppkey"], descending=[True, False])
            .limit(_WILSON_TOPK)
            .map_batches(finish, batch_format="pyarrow"))


def order_size_regression(sf_dir: str):
    """Multivariate OLS by NORMAL EQUATIONS — distributed linear
    regression of order value (cents) on (line count, total quantity)
    with intercept, the textbook two-stage shape: the corpus-sized
    work reduces to ten exact integer moments (XᵀX and Xᵀy entries),
    and the 3×3 solve is CRAMER'S RULE on exact integer determinants —
    so the coefficients are exact rationals divided ONCE, bit-equal to
    the oracle's HUGEINT determinant arithmetic, and R² follows from
    the same moments via SSE = yᵀy − βᵀXᵀy. The how-much-is-an-extra-
    line-worth pricing model, verified where regression outputs are
    normally unverifiable.

    Scale shape: lineitem ⋈ orders co-partition in bounded
    orderkey-hash buckets (tagged union, no broadcast); each bucket
    folds its per-order feature rows to ONE int64 moment row (bucket
    size is capped by construction at ~32 MiB of input, which keeps
    Σy² inside int64; the driver combine is Python unbounded ints);
    the driver then does O(1) determinant algebra."""
    n_buckets = max(64, int(table_bytes(sf_dir, "lineitem") // (32 << 20)) + 1)

    def order_rows(b: pa.Table) -> pa.Table:
        ok = b.column("o_orderkey").to_numpy()
        y = np.rint(b.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({
            "bucket": pa.array((ok % n_buckets).astype(np.int32)),
            "side": pa.array(np.zeros(len(ok), dtype=np.int8)),
            "ok": pa.array(ok, type=pa.int64()),
            "v": pa.array(y),
        })

    def line_rows(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey").to_numpy()
        q = np.rint(b.column("l_quantity").to_numpy()).astype(np.int64)
        return pa.table({
            "bucket": pa.array((ok % n_buckets).astype(np.int32)),
            "side": pa.array(np.ones(len(ok), dtype=np.int8)),
            "ok": pa.array(ok, type=pa.int64()),
            "v": pa.array(q),
        })

    orders = scan(
        sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(order_rows, batch_format="pyarrow", batch_size=65536)
    lines = scan(
        sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"]
    ).map_batches(line_rows, batch_format="pyarrow", batch_size=65536)

    _M = ("n", "s1", "s2", "s11", "s12", "s22", "sy", "s1y", "s2y", "yy")

    def moments(g: pa.Table) -> pa.Table:
        side = g.column("side")
        o = (g.filter(pc.equal(side, 0)).select(["ok", "v"])
             .rename_columns(["ok", "y"]))
        li = g.filter(pc.equal(side, 1)).select(["ok", "v"])
        f = (li.group_by("ok")
             .aggregate([("v", "count"), ("v", "sum")])
             .rename_columns(["ok", "x1", "x2"]))
        j = f.join(o, keys="ok", join_type="inner")
        x1 = j.column("x1").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x2 = j.column("x2").to_numpy(
            zero_copy_only=False).astype(np.int64)
        y = j.column("y").to_numpy(
            zero_copy_only=False).astype(np.int64)
        vals = [len(x1), x1.sum(), x2.sum(), (x1 * x1).sum(),
                (x1 * x2).sum(), (x2 * x2).sum(), y.sum(),
                (x1 * y).sum(), (x2 * y).sum(), (y * y).sum()]
        return pa.table({k: pa.array([int(v)], type=pa.int64())
                         for k, v in zip(_M, vals)})

    tot = {k: 0 for k in _M}
    for b in (orders.union(lines).groupby("bucket")
              .map_groups(moments, batch_format="pyarrow")
              .iter_batches(batch_size=4096, batch_format="pyarrow")):
        for k in _M:
            tot[k] += sum(b.column(k).to_pylist())   # exact Python ints

    n, s1, s2, s11, s12, s22, sy, s1y, s2y, yy = (tot[k] for k in _M)
    det = (n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
           + s2 * (s1 * s12 - s11 * s2))
    det0 = (sy * (s11 * s22 - s12 * s12) - s1 * (s1y * s22 - s12 * s2y)
            + s2 * (s1y * s12 - s11 * s2y))
    det1 = (n * (s1y * s22 - s12 * s2y) - sy * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s2y - s1y * s2))
    det2 = (n * (s11 * s2y - s1y * s12) - s1 * (s1 * s2y - s1y * s2)
            + sy * (s1 * s12 - s11 * s2))
    b0 = float(det0) / float(det)
    b1 = float(det1) / float(det)
    b2 = float(det2) / float(det)
    sse = float(yy) - (b0 * float(sy) + b1 * float(s1y)
                       + b2 * float(s2y))
    sst = float(yy) - float(sy) * float(sy) / n
    r2 = 1 - sse / sst
    return pa.table({
        "n_orders": pa.array([n], type=pa.int64()),
        "intercept_cents": pa.array(
            round_half_away(np.array([b0]), 4), type=pa.float64()),
        "per_line_cents": pa.array(
            round_half_away(np.array([b1]), 4), type=pa.float64()),
        "per_qty_cents": pa.array(
            round_half_away(np.array([b2]), 4), type=pa.float64()),
        "r2": pa.array(
            round_half_away(np.array([r2]), 6), type=pa.float64()),
    })


_TREND_EPOCH_DAYS = 9131  # days from unix epoch to 1995-01-01


def part_price_trend(sf_dir: str):
    """GROUPED linear regression — per-part OLS slope of extended
    price (cents) over ship date (days since 1995-01-01): the
    price-drift / elasticity census behind "which SKUs are getting
    cheaper?". The grouped sibling of :func:`price_quantity_corr`'s
    exact-moment design: no float partial ever rides a
    nondeterministic combine.

    Scale shape: each batch folds to one row of int64 moment partials
    (n, Σx, Σy, Σx², Σx·y) per part via Arrow ``group_by``; partials
    combine in bounded part-hash buckets where the closed form
    ``(n·Σxy − Σx·Σy)/(n·Σx² − Σx²)`` runs per part in Python
    unbounded ints (the cross products overflow int64 at ~10⁵ rows
    per part) — O(catalog) narrow rows, never corpus rows. Parts with
    a single distinct ship day have zero x-variance and are dropped
    by the same integer test on both engines."""
    ds = scan(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_shipdate", "l_extendedprice"])
    n_buckets = 64

    def partial(b: pa.Table) -> pa.Table:
        x = (b.column("l_shipdate").to_numpy()
             .astype("datetime64[D]").astype(np.int64)
             - _TREND_EPOCH_DAYS)
        y = np.rint(
            b.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
        cols = {"n": np.ones(b.num_rows, dtype=np.int64), "sx": x,
                "sy": y, "sxx": x * x, "sxy": x * y}
        g = group_agg(
            pa.table({"partkey": b.column("l_partkey"),
                      **{c: pa.array(v) for c, v in cols.items()}}),
            "partkey", {c: (c, "sum") for c in cols})
        return g.append_column("pb", pa.array(
            (g.column("partkey").to_numpy() % n_buckets).astype(np.int32)))

    def fold(g: pa.Table) -> pa.Table:
        f = (g.drop_columns(["pb"]).group_by("partkey").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("sxy", "sum")]))
        f = f.rename_columns(["partkey", "n", "sx", "sy", "sxx", "sxy"])
        out_k, out_n, out_s = [], [], []
        for pk, n, sx, sy, sxx, sxy in zip(
                f.column("partkey").to_pylist(), f.column("n").to_pylist(),
                f.column("sx").to_pylist(), f.column("sy").to_pylist(),
                f.column("sxx").to_pylist(), f.column("sxy").to_pylist()):
            den = n * sxx - sx * sx          # exact: 0 iff one distinct day
            if den <= 0:
                continue
            out_k.append(pk)
            out_n.append(n)
            out_s.append(round_half_away(
                np.array([float(n * sxy - sx * sy) / float(den)]), 4)[0])
        return pa.table({
            "partkey": pa.array(out_k, type=pa.int64()),
            "n": pa.array(out_n, type=pa.int64()),
            "slope_cents_per_day": pa.array(out_s, type=pa.float64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("pb")
            .map_groups(fold, batch_format="pyarrow"))


def customer_running_total(sf_dir: str):
    """Windowed CUMULATIVE aggregate: every order carries the customer's
    running spend to date plus its per-customer sequence number — the
    ``SUM() OVER (PARTITION BY … ROWS UNBOUNDED PRECEDING)`` window shape
    the surface lacked (reference has no window functions; brief §2.6).

    One bounded custkey-hash bucket exchange; inside each bucket the
    whole prefix sum is one vectorized ``groupby().cumsum`` over integer
    cents, so the running values are exact and independent of block
    layout (the only order that matters is the explicit
    (o_orderdate, o_orderkey) sort). Partitioning assumption: one
    customer's order history fits in a worker's heap."""
    n_buckets = max(64, int(table_bytes(sf_dir, "orders") // (32 << 20)) + 1)

    ds = scan(
        sf_dir, "orders",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def add_bucket(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        k = b.column("o_custkey").to_numpy()
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "o_orderkey": b.column("o_orderkey"),
            "o_orderdate": b.column("o_orderdate"),
            "cents": pa.array(cents, type=pa.int64()),
            "bucket": pa.array((k % n_buckets).astype(np.int32)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("o_custkey", "ascending"),
                       ("o_orderdate", "ascending"),
                       ("o_orderkey", "ascending")])
        cust = g.column("o_custkey").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        cs = np.cumsum(cents)
        first = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
        offs = (np.concatenate(([0], cs[first[1:] - 1]))
                if len(first) > 1
                else np.zeros(len(first), dtype=np.int64))
        starts = np.repeat(offs, np.diff(np.r_[first, len(cust)]))
        return pa.table({
            "o_custkey": g.column("o_custkey"),
            "o_orderkey": g.column("o_orderkey"),
            "order_seq": pa.array(grouped_cumcount(cust) + 1),
            # int cents / 100.0 — bit-identical to the oracle's division
            "running_spend": pa.array((cs - starts) / 100.0,
                                      type=pa.float64()),
        })

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


_LATE_US = 90 * 86_400 * 1_000_000  # "late" = shipped >90 days after order


def late_suppliers(sf_dir: str):
    """TPC-H-Q21-shaped DOUBLE-CORRELATED existence test: suppliers that
    were the ONLY late supplier in a finished multi-supplier order
    ("late" = l_shipdate > o_orderdate + 90 days; this schema has no
    commit/receipt dates). The classic EXISTS + NOT EXISTS pair becomes
    per-order set logic: both fact sides co-locate in bounded
    orderkey-hash buckets via a tagged union (one shuffle each, nothing
    broadcast), each bucket resolves its orders with one vectorized
    merge + groupby, and the per-supplier wait counts fold through a
    second bounded suppkey-hash bucket exchange — the shuffle key space
    is always the bucket count, never |orders| or |supplier|."""
    n_buckets = max(64, int(table_bytes(sf_dir, "lineitem") // (32 << 20)) + 1)

    orders = scan(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"])

    def order_rows(b: pa.Table) -> pa.Table:
        fin = b.filter(pc.equal(b.column("o_orderstatus"), pa.scalar("F")))
        ok = fin.column("o_orderkey").to_numpy()
        odate = fin.column("o_orderdate").to_numpy().astype(
            "datetime64[us]").astype(np.int64)
        return pa.table({
            "ok": pa.array(ok, type=pa.int64()),
            "sk": pa.array(np.full(len(ok), -1, dtype=np.int64)),
            "ship_us": pa.array(odate, type=pa.int64()),  # carries odate
            "bucket": pa.array((ok % n_buckets).astype(np.int32)),
        })

    li = scan(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    def li_rows(b: pa.Table) -> pa.Table:
        # per-batch combiner: one row per (order, supplier) with the max
        # ship date — "any line late" ≡ "max ship date late"
        ship = b.column("l_shipdate").to_numpy().astype(
            "datetime64[us]").astype(np.int64)
        g = group_agg(pa.table({
            "ok": pc.cast(b.column("l_orderkey"), pa.int64()),
            "sk": pc.cast(b.column("l_suppkey"), pa.int64()),
            "ship_us": pa.array(ship, type=pa.int64()),
        }), ["ok", "sk"], {"ship_us": ("ship_us", "max")})
        ok = g.column("ok").to_numpy()
        return g.append_column(
            "bucket", pa.array((ok % n_buckets).astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        sk = g.column("sk")
        od = (g.filter(pc.less(sk, 0)).select(["ok", "ship_us"])
              .rename_columns(["ok", "odate_us"]))
        li_g = (g.filter(pc.greater_equal(sk, 0))
                .select(["ok", "sk", "ship_us"]))
        # inner join drops lineitems of non-'F' orders
        m = li_g.join(od, keys="ok", join_type="inner")
        per = (m.group_by(["ok", "sk"])
               .aggregate([("ship_us", "max"), ("odate_us", "min")]))
        late = (per.column("ship_us_max").to_numpy(zero_copy_only=False)
                > per.column("odate_us_min").to_numpy(
                    zero_copy_only=False) + _LATE_US).astype(np.int64)
        per = per.append_column("late", pa.array(late))
        stat = (per.group_by("ok")
                .aggregate([("sk", "count"), ("late", "sum")])
                .rename_columns(["ok", "nsupp", "nlate"]))
        j = per.join(stat, keys="ok", join_type="inner")
        hit = j.filter(pc.and_(
            pc.and_(pc.equal(j.column("late"), 1),
                    pc.equal(j.column("nlate"), 1)),
            pc.greater_equal(pc.cast(j.column("nsupp"), pa.int64()),
                             2)))
        out = hit.group_by("sk").aggregate([("ok", "count")])
        return pa.table({
            "sk": pc.cast(out.column("sk"), pa.int64()),
            "numwait": pc.cast(out.column("ok_count"), pa.int64()),
        })

    def add_sk_bucket(b: pa.Table) -> pa.Table:
        sk = b.column("sk").to_numpy()
        return b.append_column(
            "skb", pa.array((sk % 64).astype(np.int32)))

    def fold_suppliers(t: pa.Table) -> pa.Table:
        g = (t.select(["sk", "numwait"]).group_by("sk")
             .aggregate([("numwait", "sum")]))
        return pa.table({
            "s_suppkey": g.column("sk"),
            "numwait": g.column("numwait_sum"),
        })

    union = li.map_batches(
        li_rows, batch_format="pyarrow", batch_size=65536).union(
        orders.map_batches(order_rows, batch_format="pyarrow",
                           batch_size=65536))
    return (
        union.groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(add_sk_bucket, batch_format="pyarrow")
        .groupby("skb")
        .map_groups(fold_suppliers, batch_format="pyarrow")
    )


def idle_customer_balance(sf_dir: str):
    """TPC-H-Q22-shaped: per market segment, the count and total balance
    of customers whose balance beats the positive-balance average and
    who placed NO order since 2001-01-01. The average threshold is ONE
    tiny two-cell reduce broadcast back as an integer CROSS-PRODUCT
    compare (bal_cents · n > sum_cents) so no float average ever decides
    a boundary row; the no-recent-orders test is the native
    hash-partitioned ``left_anti`` join with the orders side
    pre-collapsed to per-batch unique custkeys (the
    ``inactive_customers`` discipline). Nothing corpus-sized ever
    touches the driver — the global reduce is one row per block."""
    import datetime as _dt

    cutoff = pa.scalar(_dt.datetime(2001, 1, 1), type=pa.timestamp("us"))

    cust = scan(
        sf_dir, "customer",
        columns=["c_custkey", "c_acctbal", "c_mktsegment"])

    def bal_partial(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("c_acctbal").to_numpy() * 100.0).astype(np.int64)
        pos = cents[cents > 0]
        return pa.table({"s": pa.array([int(pos.sum())], type=pa.int64()),
                         "n": pa.array([len(pos)], type=pa.int64())})

    tot_s = tot_n = 0
    for b in cust.map_batches(bal_partial, batch_format="pyarrow",
                              batch_size=65536) \
                 .iter_batches(batch_size=4096, batch_format="pyarrow"):
        tot_s += sum(b.column("s").to_pylist())
        tot_n += sum(b.column("n").to_pylist())

    def above_avg(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("c_acctbal").to_numpy() * 100.0).astype(np.int64)
        keep = cents * tot_n > tot_s
        t = b.append_column("bal_c", pa.array(cents, type=pa.int64()))
        return t.filter(pa.array(keep))

    def active_keys(b: pa.Table) -> pa.Table:
        recent = b.filter(
            pc.greater_equal(b.column("o_orderdate"), cutoff))
        return pa.table({"o_custkey": pc.unique(recent.column("o_custkey"))})

    orders = scan(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    act = orders.map_batches(active_keys, batch_format="pyarrow",
                             batch_size=65536)
    idle = hash_join(cust.map_batches(above_avg, batch_format="pyarrow",
                                      batch_size=65536),
                     act, "left_anti", "c_custkey", "o_custkey")

    def seg_partial(b: pa.Table) -> pa.Table:
        return group_agg(b, "c_mktsegment", {
            "bal_c": ("bal_c", "sum"), "n": ("bal_c", "count")})

    def seg_fold(t: pa.Table) -> pa.Table:
        g = (t.select(["c_mktsegment", "bal_c", "n"])
             .group_by("c_mktsegment")
             .aggregate([("bal_c", "sum"), ("n", "sum")]))
        return pa.table({
            "c_mktsegment": g.column("c_mktsegment"),
            "n_custs": g.column("n_sum"),
            "total_bal": pc.divide(
                pc.cast(g.column("bal_c_sum"), pa.float64()),
                pa.scalar(100.0)),
        })

    return (
        idle.map_batches(seg_partial, batch_format="pyarrow",
                         batch_size=65536)
        .groupby("c_mktsegment")
        .map_groups(seg_fold, batch_format="pyarrow")
    )


_PIVOT_YEARS = tuple(range(1995, 2002))  # orders span 1995-2001


def orders_pivot(sf_dir: str):
    """PIVOT / wide-aggregate: one row per order priority with one
    revenue column per order year — the long→wide reshape every BI
    export needs. Per-batch Arrow ``group_by`` collapses to at most
    |priorities|×|years| cells (a combiner), the cells fold in one tiny
    groupby, and each priority group emits its wide row. Integer-cent
    sums keep every cell bit-exact vs the oracle's conditional
    aggregation. The column set is CALENDAR-BOUNDED (fixed year range),
    so the wide schema is a constant — the reshape never depends on the
    data."""
    ds = scan(
        sf_dir, "orders",
        columns=["o_orderpriority", "o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        yr = b.column("o_orderdate").to_numpy().astype(
            "datetime64[Y]").astype(np.int64) + 1970
        return group_agg(pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "yr": pa.array(yr, type=pa.int64()),
            "rev_c": pa.array(cents, type=pa.int64()),
        }), ["o_orderpriority", "yr"], {"rev_c": ("rev_c", "sum")})

    def widen(g: pa.Table) -> pa.Table:
        f = (g.select(["yr", "rev_c"]).group_by("yr")
             .aggregate([("rev_c", "sum")]))
        cells = dict(zip(f.column("yr").to_pylist(),
                         f.column("rev_c_sum").to_pylist()))
        out = {"o_orderpriority": pa.array(
            [g.column("o_orderpriority")[0].as_py()], type=pa.string())}
        for y in _PIVOT_YEARS:
            out[f"rev_{y}"] = pa.array(
                [float(cells.get(y, 0)) / 100.0], type=pa.float64())
        return pa.table(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("o_orderpriority")
        .map_groups(widen, batch_format="pyarrow")
    )


_SKETCH_BINS = 4096
_SKETCH_QS = (0.5, 0.9, 0.99)


def events_quantile_sketch(sf_dir: str):
    """Streaming histogram quantile ESTIMATOR over event values — the
    bounded-memory companion to the exact selector in :mod:`orderstats`
    (error ≤ one bin width by construction, the estimate itself is
    value-checked because the oracle replays the identical binning).

    Two passes, both O(bins) in driver state at any corpus size:
    min/max/count reduce, then per-batch ``bincount`` partials fold
    through a ≤4096-key native groupby. Every float step — bin width,
    bucket index, the ``lo + (j+1)·w`` upper-bound estimate — is the
    same IEEE expression on both engines, so the comparison is exact,
    not approximate."""
    import numpy as np

    from ray.data.aggregate import Count, Max, Min

    ds = scan(sf_dir, "events", columns=["value"])
    mm = ds.aggregate(Min("value"), Max("value"), Count())
    lo, hi = float(mm["min(value)"]), float(mm["max(value)"])
    n = int(mm["count()"])
    w = (hi - lo) / float(_SKETCH_BINS)

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        if w == 0.0:
            bkt = np.zeros(len(v), dtype=np.int64)
        else:
            bkt = np.minimum(np.floor((v - lo) / w),
                             _SKETCH_BINS - 1).astype(np.int64)
        counts = np.bincount(bkt, minlength=_SKETCH_BINS)
        nz = np.nonzero(counts)[0]
        return pa.table({"bkt": pa.array(nz, type=pa.int64()),
                         "cnt": pa.array(counts[nz], type=pa.int64())})

    rows = fold(
        ds.map_batches(hist, batch_format="pyarrow", batch_size=65536),
        "bkt", {"cnt": ("cnt", "sum")}).to_pandas().sort_values("bkt")
    bkt = rows["bkt"].to_numpy(dtype=np.int64)
    cum = np.cumsum(rows["cnt"].to_numpy(dtype=np.int64))

    qs, est = [], []
    for q in _SKETCH_QS:
        k = int(np.ceil(q * n))
        j = int(bkt[np.searchsorted(cum, k)])
        qs.append(q)
        est.append(lo if w == 0.0 else lo + (j + 1) * w)
    return pa.table({
        "quantile": pa.array(qs, type=pa.float64()),
        "estimate": pa.array(est, type=pa.float64()),
        "n": pa.array([n] * len(qs), type=pa.int64()),
    })


_SKETCH_VALUES = ", ".join(f"({q})" for q in _SKETCH_QS)

_QUANTILE_SKETCH_SQL = f"""
    WITH mm AS (SELECT MIN(value) AS lo, MAX(value) AS hi,
                       COUNT(*) AS n FROM events),
    b AS (SELECT CASE WHEN hi = lo THEN 0 ELSE
                 LEAST(FLOOR((value - lo) / ((hi - lo) / {_SKETCH_BINS}.0)),
                       {_SKETCH_BINS - 1}) END AS bkt, COUNT(*) AS c
          FROM events CROSS JOIN mm GROUP BY bkt),
    cm AS (SELECT bkt, SUM(c) OVER (ORDER BY bkt) AS cum FROM b),
    q AS (SELECT * FROM (VALUES {_SKETCH_VALUES}) t(q))
    SELECT q.q AS quantile,
           CASE WHEN mm.hi = mm.lo THEN mm.lo ELSE
                mm.lo + (MIN(cm.bkt) + 1) * ((mm.hi - mm.lo)
                                             / {_SKETCH_BINS}.0)
           END AS estimate,
           mm.n AS n
    FROM q CROSS JOIN mm
    JOIN cm ON cm.cum >= CAST(CEIL(q.q * mm.n) AS BIGINT)
    GROUP BY q.q, mm.lo, mm.hi, mm.n
"""


def _orders_pivot_sql() -> str:
    cols = ",\n               ".join(
        f"COALESCE(SUM(CASE WHEN year(o_orderdate) = {y} "
        f"THEN CAST(ROUND(o_totalprice * 100) AS BIGINT) END), 0) / 100.0 "
        f"AS rev_{y}" for y in _PIVOT_YEARS)
    return f"""
        SELECT o_orderpriority,
               {cols}
        FROM orders GROUP BY o_orderpriority
    """


LDIV_BAND_CENTS = 100_000     # 1000-currency-unit balance bands
LDIV_BAND_SHIFT = 10_000_000  # shifts min acctbal (-999.99) positive


def l_diversity(sf_dir: str):
    """l-diversity census (Machanavajjhala et al. 2007 — the
    k-anonymity upgrade): for each quasi-identifier class
    (c_nationkey, 1000-unit account-balance band), how many DISTINCT
    sensitive values (c_mktsegment) appear? Count-of-counts output:
    "n_classes classes expose only l distinct segments, covering
    n_customers people" — any l=1 row is a homogeneity attack (the
    class's segment is known even though k-anonymity holds). Runs
    with [[k-anonymity]] before releasing joined demographics.

    Scale shape: per-batch Arrow ``group_by`` collapses to one cell
    per (nat, band, segment) per block — the quasi-id × sensitive
    space is catalog-bounded — one fold sums class-segment sizes, a
    second ≤|classes| fold counts distinct segments per class, and
    the count-of-counts is a third ≤|segments| fold. Exact integers
    throughout; balance bands are integer-cents floor division on the
    SHIFTED (always-positive) value so truncation equals floor on
    both engines."""
    per_class = combine(_class_segments(sf_dir), ["nat", "band"],
                        {"l": ("n", "count"), "n_cust": ("n", "sum")})

    def counts_of_counts(b: pa.Table) -> pa.Table:
        return pa.table({
            "l": b.column("l"),
            "n_classes": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_customers": b.column("n_cust"),
        })

    return combine(per_class, "l", {
        "n_classes": ("n_classes", "sum"),
        "n_customers": ("n_customers", "sum"),
    }, counts_of_counts)


def _class_segments(sf_dir: str):
    """Customers per (nation, balance band, segment) cell — the
    catalog-bounded quasi-id × sensitive census under l-diversity and
    t-closeness."""
    ds = scan(sf_dir, "customer",
              columns=["c_nationkey", "c_acctbal",
                       "c_mktsegment"])

    def cells(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b.column("c_acctbal").to_numpy() * 100).astype(np.int64)
        band = (cents + LDIV_BAND_SHIFT) // LDIV_BAND_CENTS
        return pa.table({
            "nat": b.column("c_nationkey"),
            "band": pa.array(band),
            "seg": b.column("c_mktsegment"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    return combine(ds, ["nat", "band", "seg"], {"n": ("n", "sum")}, cells)


def key_skew_audit(sf_dir: str):
    """Shuffle-key skew audit over lineitem's supplier key — the
    pre-flight census THIS ENGINE's own bucket discipline depends on:
    row count, key cardinality, the hottest key and its size, mean
    rows/key, and the Gini coefficient of the per-key row-count
    distribution (0 = perfectly balanced partitions, →1 = one key
    owns the table; >0.6 says salt before you groupby).

    Scale shape: per-batch Arrow ``group_by`` pre-counts collapse each
    block to ≤|keys| cells, one key-fold produces the per-key count
    vector — bounded by the supplier catalog, the ONLY driver-side
    hold — and the Gini is the doclen_gini rank formula on exact
    integers with one float expression mirroring the oracle."""
    ds = scan(sf_dir, "lineitem", columns=["l_suppkey"])

    def cells(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column("l_suppkey"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    rows = combine(ds, "k", {"n": ("n", "sum")}, cells).take_all()
    k = np.array([r["k"] for r in rows], dtype=np.int64)
    n = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.lexsort((k, n))          # count asc, key asc on ties
    n_sorted = n[order]
    nk = len(n)
    nr = int(n.sum())
    mx = int(n.max())
    top_key = int(k[n == mx].min())
    s_in = int((np.arange(1, nk + 1, dtype=np.int64)
                * n_sorted).sum())      # Σ rank·count, exact
    gini = 2.0 * s_in / (nk * nr) - (nk + 1.0) / nk
    return pa.table({
        "n_rows": pa.array([nr], type=pa.int64()),
        "n_keys": pa.array([nk], type=pa.int64()),
        "max_n": pa.array([mx], type=pa.int64()),
        "top_key": pa.array([top_key], type=pa.int64()),
        "mean_rows_per_key": pa.array(
            [round_half_away(float(nr) / nk, 4)], type=pa.float64()),
        "gini": pa.array([round_half_away(gini, 4)],
                         type=pa.float64()),
    })


_FK_RELS = [
    ("lineitem.l_orderkey->orders.o_orderkey",
     "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem.l_partkey->part.p_partkey",
     "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier.s_suppkey",
     "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("orders.o_custkey->customer.c_custkey",
     "orders", "o_custkey", "customer", "c_custkey"),
]


def fk_integrity_audit(sf_dir: str):
    """Referential-integrity audit across the star schema's four
    foreign keys — the pre-ingest data-quality gate every warehouse
    load runs: per relationship, child row count, distinct child
    keys, and how many keys/rows are ORPHANS (no matching parent).
    Clean synthetic data honestly reports zero orphans; the audit is
    the harness a real ingest plugs into.

    Scale shape: ONE fused exchange covers all four relationships,
    anti-join included. Each table is read exactly once with pruned
    key columns; a per-batch Arrow ``group_by`` collapses child keys
    to tagged ``(rel, key, n)`` cells while parent keys ride the same
    union as ``(rel, key, par=1)`` sentinel cells. Everything
    co-partitions on one (rel, key-hash) bucket id, and the bucket
    fold groups by key to classify each child key as parented or
    orphan IN PLACE (sum(par) == 0 ⇒ NOT EXISTS — the anti-join is
    free once parent and child cells share a bucket), emitting ONE
    partial stats row per (bucket, rel). The driver folds ≤ 4·buckets
    bounded partials — no join machinery, no materialization of
    anything raw, nothing but keys and counts ever shuffles. Exact
    integers throughout."""
    n_kb = fold_buckets(sf_dir, "lineitem")
    # table → [(rel_id, key_column, is_parent)]
    roles: dict[str, list[tuple[int, str, int]]] = {}
    for rid, (_, child, ck, parent, pk) in enumerate(_FK_RELS):
        roles.setdefault(child, []).append((rid, ck, 0))
        roles.setdefault(parent, []).append((rid, pk, 1))

    def bucket_fold(t: pa.Table) -> pa.Table:
        g = (t.select(["rel", "k", "n", "par"]).group_by(["rel", "k"])
             .aggregate([("n", "sum"), ("par", "sum")]))
        rel = g.column("rel").to_numpy(zero_copy_only=False)
        n = g.column("n_sum").to_numpy(zero_copy_only=False)
        par = g.column("par_sum").to_numpy(zero_copy_only=False)
        child = n > 0          # parent-only keys are not child keys
        orphan = child & (par == 0)
        rids = np.unique(rel)
        out = {"rel": [], "n_rows": [], "n_keys": [],
               "n_orphan_keys": [], "n_orphan_rows": []}
        for r in rids:
            m = rel == r
            out["rel"].append(int(r))
            out["n_rows"].append(int(n[m].sum()))
            out["n_keys"].append(int((child & m).sum()))
            out["n_orphan_keys"].append(int((orphan & m).sum()))
            out["n_orphan_rows"].append(int(n[m & orphan].sum()))
        return pa.table({k: pa.array(v, type=pa.int64())
                         for k, v in out.items()})

    parts = []
    for tbl, rels in roles.items():
        ds = scan(sf_dir, tbl, columns=sorted({c for _, c, _ in rels}))

        def tagged_partial(b: pa.Table, _rels=tuple(rels)) -> pa.Table:
            outs = []
            for rid, col, is_par in _rels:
                if is_par:
                    # primary keys are unique: no pre-collapse needed
                    k = b.column(col).cast(pa.int64()) \
                         .to_numpy(zero_copy_only=False)
                    n = np.zeros(len(k), dtype=np.int64)
                    par = np.ones(len(k), dtype=np.int64)
                else:
                    g = group_agg(pa.table({
                        "k": b.column(col).cast(pa.int64()),
                        "n": pa.array(
                            np.ones(b.num_rows, dtype=np.int64)),
                    }), "k", {"n": ("n", "sum")})
                    k = g.column("k").to_numpy(zero_copy_only=False)
                    n = g.column("n").to_numpy(zero_copy_only=False)
                    par = np.zeros(len(k), dtype=np.int64)
                outs.append(pa.table({
                    "rel": pa.array(np.full(len(k), rid,
                                            dtype=np.int32)),
                    "k": pa.array(k, type=pa.int64()),
                    "n": pa.array(n),
                    "par": pa.array(par),
                    # rel folded into the bucket id: one exchange
                    # co-partitions all four relationships at once
                    "kb": pa.array(
                        (rid * n_kb + k % n_kb).astype(np.int32)),
                }))
            return pa.concat_tables(outs)

        parts.append(ds.map_batches(tagged_partial,
                                    batch_format="pyarrow",
                                    batch_size=65536))
    cells = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    stats = (cells.groupby("kb")
             .map_groups(bucket_fold, batch_format="pyarrow")
             .take_all())                 # ≤ 4·n_kb bounded partials
    agg = {rid: [0, 0, 0, 0] for rid in range(len(_FK_RELS))}
    for row in stats:
        a = agg[row["rel"]]
        a[0] += row["n_rows"]
        a[1] += row["n_keys"]
        a[2] += row["n_orphan_keys"]
        a[3] += row["n_orphan_rows"]
    rel_ = [rel for rel, *_ in _FK_RELS]
    nrow_ = [agg[i][0] for i in range(len(_FK_RELS))]
    nkey_ = [agg[i][1] for i in range(len(_FK_RELS))]
    okey_ = [agg[i][2] for i in range(len(_FK_RELS))]
    orow_ = [agg[i][3] for i in range(len(_FK_RELS))]
    return pa.table({
        "rel": pa.array(rel_, type=pa.string()),
        "n_rows": pa.array(nrow_, type=pa.int64()),
        "n_keys": pa.array(nkey_, type=pa.int64()),
        "n_orphan_keys": pa.array(okey_, type=pa.int64()),
        "n_orphan_rows": pa.array(orow_, type=pa.int64()),
    })


_FK_SQL = "\nUNION ALL\n".join(f"""
SELECT '{rel}' AS rel,
       (SELECT COUNT(*) FROM {child}) AS n_rows,
       (SELECT COUNT(DISTINCT {ck}) FROM {child}) AS n_keys,
       (SELECT COUNT(*) FROM (SELECT DISTINCT {ck} AS k FROM {child}) c
        WHERE NOT EXISTS (SELECT 1 FROM {parent} p
                          WHERE p.{pk} = c.k)) AS n_orphan_keys,
       (SELECT COUNT(*) FROM {child} c
        WHERE NOT EXISTS (SELECT 1 FROM {parent} p
                          WHERE p.{pk} = c.{ck})) AS n_orphan_rows
""" for rel, child, ck, parent, pk in _FK_RELS)


def t_closeness(sf_dir: str):
    """t-closeness census (Li, Li & Venkatasubramanian 2007 — the
    third rung of the privacy ladder after [[k-anonymity]] and
    [[l-diversity]]): for each quasi-identifier class (c_nationkey,
    1000-unit balance band), the variational distance between the
    class's sensitive-value (c_mktsegment) distribution and the
    GLOBAL one — t = ½·Σ|p_class − p_global|. Classes with small l
    can still be safe if their mix mirrors the population; a high-t
    class leaks a segment skew even when l-diversity passes.

    Exact: the catalog-bounded (class × segment) counts fold once;
    t's numerator Σ|cᵢ·N − nᵢ·C| is EXACT INTEGER cross-products
    (class count cᵢ, class size C, global segment count nᵢ, total N)
    divided by 2·C·N once — mirroring the oracle's HUGEINT tree."""
    rows = _class_segments(sf_dir).take_all()
    segs = sorted({r["seg"] for r in rows})
    sidx = {s: i for i, s in enumerate(segs)}
    classes: dict[tuple, np.ndarray] = {}
    for r in rows:
        key = (int(r["nat"]), int(r["band"]))
        classes.setdefault(
            key, np.zeros(len(segs), dtype=np.int64))[sidx[r["seg"]]] \
            += int(r["n"])
    glob = np.sum(list(classes.values()), axis=0)
    N = int(glob.sum())
    nat_, band_, ncust_, t_ = [], [], [], []
    for (nat, band), c in sorted(classes.items()):
        C = int(c.sum())
        num = int(np.abs(c.astype(object) * N
                         - glob.astype(object) * C).sum())
        nat_.append(nat)
        band_.append(band)
        ncust_.append(C)
        t_.append(round_half_away(
            float(num) / (2.0 * C * N), 6))
    return pa.table({
        "nat": pa.array(nat_, type=pa.int64()),
        "band": pa.array(band_, type=pa.int64()),
        "n_cust": pa.array(ncust_, type=pa.int64()),
        "t": pa.array(t_, type=pa.float64()),
    })


_TCLOSE_SQL = f"""
WITH cls AS (
  SELECT c_nationkey AS nat,
         (CAST(ROUND(c_acctbal * 100) AS BIGINT) + {LDIV_BAND_SHIFT})
             // {LDIV_BAND_CENTS} AS band,
         c_mktsegment AS seg, COUNT(*) AS n
  FROM customer GROUP BY nat, band, seg
), segs AS (SELECT DISTINCT c_mktsegment AS seg FROM customer),
keys AS (SELECT DISTINCT nat, band FROM cls),
grid AS (
  SELECT k.nat, k.band, s.seg, COALESCE(cls.n, 0) AS n
  FROM keys k CROSS JOIN segs s
  LEFT JOIN cls ON cls.nat = k.nat AND cls.band = k.band
                AND cls.seg = s.seg
), gl AS (SELECT seg, SUM(n) AS gn FROM grid GROUP BY seg),
tot AS (SELECT SUM(n) AS nn FROM grid),
csz AS (SELECT nat, band, SUM(n) AS c FROM grid GROUP BY nat, band)
SELECT CAST(g.nat AS BIGINT) AS nat, CAST(g.band AS BIGINT) AS band,
       CAST(csz.c AS BIGINT) AS n_cust,
       ROUND(SUM(ABS(CAST(g.n AS HUGEINT) * tot.nn
                     - CAST(gl.gn AS HUGEINT) * csz.c))
             / (2.0 * csz.c * tot.nn), 6) AS t
FROM grid g
JOIN gl USING (seg) JOIN csz USING (nat, band) CROSS JOIN tot
GROUP BY g.nat, g.band, csz.c, tot.nn
"""


PSI_BUCKETS = 10
# per-arm counts of the A/B splits below (psi, mannwhitney)
_ARM_SUMS = {"c_a": ("c_a", "sum"), "c_b": ("c_b", "sum")}


def value_psi(sf_dir: str):
    """Population Stability Index between the first and second time
    halves of the event value stream — THE production drift metric of
    ML monitoring (PSI < 0.1 stable, > 0.25 retrain): equal-width
    value deciles over the full range, per-bucket shares compared as
    (p_A − p_B)·ln(p_A/p_B) with add-one smoothing. One row per
    bucket so the drift's LOCATION is visible, not just its size.

    Exact end-to-end: values are integer cents, the bucket rule
    ((v−lo)·10)//(hi−lo) is ALL-INTEGER (no float boundary can flip a
    row), the time split is the integer-microsecond midpoint, the
    smoothed log-ratio quantizes as floor(1000·ln(·)) via libm, and
    each term is two exact-integer products divided by floats ONCE —
    mirroring the oracle term for term."""
    import math

    from ray.data.aggregate import Max, Min

    ds = scan(sf_dir, "events", columns=["ts", "value"])

    def mm_partial(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy()
        c = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table({
            "t0": pa.array([int(us.min())], type=pa.int64()),
            "t1": pa.array([int(us.max())], type=pa.int64()),
            "lo": pa.array([int(c.min())], type=pa.int64()),
            "hi": pa.array([int(c.max())], type=pa.int64()),
        })

    mm = (ds.map_batches(mm_partial, batch_format="pyarrow",
                         batch_size=65536)
          .aggregate(Min("t0"), Max("t1"), Min("lo"), Max("hi")))
    t0, t1 = int(mm["min(t0)"]), int(mm["max(t1)"])
    lo, hi = int(mm["min(lo)"]), int(mm["max(hi)"])
    mid = (t0 + t1) // 2
    span = hi - lo

    def bucket_cells(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy()
        c = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        bk = (np.minimum(PSI_BUCKETS - 1,
                         (c - lo) * PSI_BUCKETS // span)
              if span else np.zeros(len(c), dtype=np.int64))
        side = (us >= mid).astype(np.int64)
        return pa.table({
            "bucket": pa.array(bk),
            "c_a": pa.array((1 - side)),
            "c_b": pa.array(side),
        })

    rows = combine(ds, "bucket", _ARM_SUMS, bucket_cells).take_all()
    ca = np.zeros(PSI_BUCKETS, dtype=np.int64)
    cb = np.zeros(PSI_BUCKETS, dtype=np.int64)
    for r in rows:
        ca[r["bucket"]] = r["c_a"]
        cb[r["bucket"]] = r["c_b"]
    na, nb = int(ca.sum()), int(cb.sum())
    terms = []
    for k in range(PSI_BUCKETS):
        L = math.floor(1000.0 * math.log(
            ((int(ca[k]) + 1) * (nb + PSI_BUCKETS))
            / ((int(cb[k]) + 1) * (na + PSI_BUCKETS))))
        terms.append(round_half_away(
            (int(ca[k]) + 1) * L / (1000.0 * (na + PSI_BUCKETS))
            - (int(cb[k]) + 1) * L / (1000.0 * (nb + PSI_BUCKETS)), 6))
    return pa.table({
        "bucket": pa.array(np.arange(PSI_BUCKETS, dtype=np.int64)),
        "c_a": pa.array(ca),
        "c_b": pa.array(cb),
        "psi_term": pa.array(terms, type=pa.float64()),
    })


HILL_K = 100


def hill_tail_index(sf_dir: str):
    """Hill estimator of the heavy-tail exponent of order totals
    (Hill 1975): α̂ = k / Σᵢ₌₁..k ln(x₍ᵢ₎/x₍ₖ₊₁₎) over the top-k
    order statistics — the whale-risk gauge (α ≤ 2 means infinite
    variance: expect single orders to dominate revenue partitions;
    the value-side companion to zipf_fit's count-side slope).

    Scale shape: ONE distributed sort-limit ships k+1 integer-cent
    values to the driver (the zipf_fit discipline); ln is libm on
    both engines and the 4-dp round absorbs the k-term float-sum
    association order."""
    import math

    ds = scan(sf_dir, "orders", columns=["o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({"c": pa.array(
            np.rint(b.column("o_totalprice").to_numpy() * 100)
            .astype(np.int64))})

    top = (ds.map_batches(cents, batch_format="pyarrow",
                          batch_size=65536)
           .sort("c", descending=True)
           .limit(HILL_K + 1).take_all())
    xs = [int(r["c"]) for r in top]
    sl = sum(math.log(float(x)) for x in xs[:HILL_K])
    den = sl - HILL_K * math.log(float(xs[HILL_K]))
    alpha = round_half_away(HILL_K / den, 4) if den > 0 else 0.0
    return pa.table({
        "k": pa.array([HILL_K], type=pa.int64()),
        "x_k": pa.array([xs[HILL_K]], type=pa.int64()),
        "hill_alpha": pa.array([alpha], type=pa.float64()),
    })


def mannwhitney_order_values(sf_dir: str):
    """Mann-Whitney U test between hash-assigned A/B arms of order
    totals — the NONPARAMETRIC two-sample test (no normality
    assumption, immune to the heavy tail [[hill-tail-index]]
    measures), tie-corrected normal approximation. Arms are orderkey
    parity, exchangeable by construction: the harness is the
    deliverable and the honest answer is "not significant".

    Exactness: the statistic is computed from the VALUE HISTOGRAM —
    per distinct integer-cent value, arm counts (cA, cB) fold
    distributed to a DOMAIN-bounded table (integer cents ≤ the max
    order total, independent of row count), which one driver-side
    sorted cumsum turns into 2U = Σ(2·cA·cumB₍₋₎ + cA·cB) in exact
    integers; the tie term Σ(t³−t) and the variance are exact too,
    ONE sqrt+division at the end mirroring the oracle's
    window-function replay."""
    import math

    ds = scan(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    n_kb = fold_buckets(sf_dir, "orders")

    def partial(b: pa.Table) -> pa.Table:
        x = np.rint(b.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        arm = (b.column("o_orderkey").to_numpy() % 2).astype(np.int64)
        t = group_agg(pa.table({
            "x": pa.array(x),
            "c_a": pa.array(1 - arm),
            "c_b": pa.array(arm),
        }), "x", _ARM_SUMS)
        return t.append_column("kb", pa.array(
            (t.column("x").to_numpy(zero_copy_only=False)
             % n_kb).astype(np.int32)))

    def fold_x(t: pa.Table) -> pa.Table:
        return group_agg(t, "x", _ARM_SUMS)

    # bucketed fold (NOT a native per-key aggregate — Ray's sort
    # aggregate costs ~100us/key at 150k distinct values); the folded
    # histogram key space is the VALUE DOMAIN (integer cents, bounded
    # by the max order total, independent of row count), so one
    # domain-bounded take_all + driver numpy sort finishes it
    rows = (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("kb").map_groups(fold_x, batch_format="pyarrow")
            .take_all())
    x = np.array([r["x"] for r in rows], dtype=np.int64)
    order = np.argsort(x, kind="stable")
    ca = np.array([r["c_a"] for r in rows], dtype=np.int64)[order]
    cb = np.array([r["c_b"] for r in rows], dtype=np.int64)[order]
    cum_in = np.concatenate([[0], np.cumsum(cb)[:-1]])
    u2 = int((2 * ca * cum_in + ca * cb).sum())
    t = ca + cb
    t3 = int((t * t * t - t).sum())
    na = int(ca.sum())
    nb = int(cb.sum())
    n = na + nb
    var_num = na * nb * (n * (n - 1) * (n + 1) - t3)   # exact ints
    var = float(var_num) / (12 * n * (n - 1))
    z = (u2 - na * nb) / (2.0 * math.sqrt(var)) if var > 0 else 0.0
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "u2": pa.array([u2], type=pa.int64()),
        "z": pa.array([round_half_away(z, 4)], type=pa.float64()),
        "significant": pa.array([int(abs(z) > 1.96)],
                                type=pa.int64()),
    })


_MWU_SQL = """
WITH v AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS x,
         o_orderkey % 2 AS arm
  FROM orders
), h AS (
  SELECT x,
         SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS c_a,
         SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS c_b
  FROM v GROUP BY x
), o AS (
  SELECT x, c_a, c_b,
         COALESCE(SUM(c_b) OVER (ORDER BY x
                  ROWS BETWEEN UNBOUNDED PRECEDING
                  AND 1 PRECEDING), 0) AS cum_b
  FROM h
), m AS (
  SELECT SUM(c_a) AS na, SUM(c_b) AS nb,
         SUM(2 * c_a * cum_b + c_a * c_b) AS u2,
         SUM(CAST(c_a + c_b AS HUGEINT) * (c_a + c_b) * (c_a + c_b)
             - (c_a + c_b)) AS t3
  FROM o
)
SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       CAST(u2 AS BIGINT) AS u2,
       ROUND((u2 - na * nb)
             / (2.0 * SQRT(CAST(na * nb
                 * (CAST(na + nb AS HUGEINT) * (na + nb - 1)
                    * (na + nb + 1) - t3) AS DOUBLE)
                 / (12 * (na + nb) * (na + nb - 1)))), 4) AS z,
       CAST(CASE WHEN ABS((u2 - na * nb)
             / (2.0 * SQRT(CAST(na * nb
                 * (CAST(na + nb AS HUGEINT) * (na + nb - 1)
                    * (na + nb + 1) - t3) AS DOUBLE)
                 / (12 * (na + nb) * (na + nb - 1))))) > 1.96
            THEN 1 ELSE 0 END AS BIGINT) AS significant
FROM m
"""


BOOT_B = 16          # bootstrap replicates
# Poisson(1) CDF thresholds scaled to 2^40, k = 0..8 (weights cap at
# 9): weight = count of thresholds <= hash40 — identical integer
# compares on both engines
_POISSON_T40 = [404487723187, 808975446375, 1011219307969,
                1078633928500, 1095487583633, 1098858314660,
                1099420103164, 1099500358665, 1099510390602]
# Per-replicate odd 60-bit multiply-shift constants (splitmix64
# stream, seed 0x1234567890ABCDEF, low 60 bits forced odd) — each
# row pays ONE md5 (a 60-bit base from the first 15 hex chars) and
# every replicate's 40-bit draw is (base * C_rep mod 2^60) >> 20,
# a universal multiply-shift hash the oracle replays in HUGEINT
# (product < 2^120) with plain % and // — no per-replicate md5.
_BOOT_MIX = [906505647824660501, 1053545081321049051,
             732266854765488239, 746945125342133159,
             829718696367412199, 205601913862331955,
             15679512933385289, 1141632390386609805,
             409234102773873797, 11486974032919957,
             1091762498639499451, 682627282742901223,
             721436828753957831, 344121833412585385,
             855078239548287813, 398313753572459967]


def bootstrap_median_ci(sf_dir: str):
    """POISSON-BOOTSTRAP replicate medians of the order-total
    distribution — the bootstrap that actually streams at scale
    (Chamandy et al. 2012, "Estimating uncertainty for massive data
    streams"): instead of resampling rows (impossible distributed),
    every row draws an independent Poisson(1) weight per replicate
    from a deterministic hash, so each replicate is a valid bootstrap
    resample computable row-locally. Output: one LOWER WEIGHTED
    MEDIAN per replicate — the spread of these 16 values IS the
    median's sampling uncertainty.

    Exactness: the hash→weight map is integer compares against
    precomputed Poisson-CDF thresholds scaled to 2⁴⁰ (shared literals
    with the oracle), weighted histograms fold in bounded
    (replicate, value)-hash buckets, and the lower-median rule
    2·cum ≥ W is all-integer — no interpolation, no float
    anywhere."""
    from ..functions.hashing import md5_hex

    n_kb = fold_buckets(sf_dir, "orders")
    ds = scan(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    thr = np.array(_POISSON_T40, dtype=np.int64)

    mix = np.array(_BOOT_MIX, dtype=np.uint64)
    m60 = np.uint64((1 << 60) - 1)          # 2^60 | 2^64, so the
    s20 = np.uint64(20)                     # uint64 wrap is exact

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("o_orderkey").to_pylist()
        x = np.rint(b.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        base = np.fromiter(
            (int(md5_hex(str(k))[:15], 16) for k in keys),
            dtype=np.uint64, count=len(keys))     # one md5 per key
        bs, xs, ws = [], [], []
        for rep in range(BOOT_B):
            h = (((base * mix[rep]) & m60) >> s20).astype(np.int64)
            w = np.searchsorted(thr, h, side="right")
            nz = w > 0
            bs.append(np.full(int(nz.sum()), rep, dtype=np.int64))
            xs.append(x[nz])
            ws.append(w[nz].astype(np.int64))
        t = group_agg(pa.table({
            "b": pa.array(np.concatenate(bs)),
            "x": pa.array(np.concatenate(xs)),
            "w": pa.array(np.concatenate(ws)),
        }), ["b", "x"], {"w": ("w", "sum")})
        return t.append_column("kb", pa.array(
            ((t.column("b").to_numpy(zero_copy_only=False)
              * np.int64(2654435761)
              + t.column("x").to_numpy(zero_copy_only=False))
             % n_kb).astype(np.int32)))

    def fold_bx(t: pa.Table) -> pa.Table:
        return group_agg(t, ["b", "x"], {"w": ("w", "sum")})

    # stream the folded (replicate, value, weight) histogram cells to
    # the driver as Arrow batches and fold vectorized — take_all()'s
    # per-row Python dicts cost ~4 s at sf0.1 where this costs ~0.2 s
    bs, xs, ws = [], [], []
    folded = (ds.map_batches(partial, batch_format="pyarrow",
                             batch_size=65536)
              .groupby("kb").map_groups(fold_bx, batch_format="pyarrow"))
    for bt in folded.iter_batches(batch_size=65536,
                                  batch_format="pyarrow"):
        bs.append(bt.column("b").to_numpy(zero_copy_only=False))
        xs.append(bt.column("x").to_numpy(zero_copy_only=False))
        ws.append(bt.column("w").to_numpy(zero_copy_only=False))
    b = np.concatenate(bs) if bs else np.empty(0, dtype=np.int64)
    x = np.concatenate(xs) if xs else np.empty(0, dtype=np.int64)
    w = np.concatenate(ws) if ws else np.empty(0, dtype=np.int64)
    order = np.lexsort((x, b))
    b, x, w = b[order], x[order], w[order]
    reps, meds = [], []
    for rep in range(BOOT_B):
        lo = np.searchsorted(b, rep, side="left")
        hi = np.searchsorted(b, rep, side="right")
        if hi == lo:
            reps.append(rep)
            meds.append(0)
            continue
        cum = np.cumsum(w[lo:hi])
        total = int(cum[-1])
        # lower weighted median: first x with 2*cum >= total, i.e.
        # cum >= ceil(total / 2)
        idx = int(np.searchsorted(cum, (total + 1) // 2, side="left"))
        reps.append(rep)
        meds.append(int(x[lo + idx]))
    return pa.table({
        "replicate": pa.array(reps, type=pa.int64()),
        "median_cents": pa.array(meds, type=pa.int64()),
    })


def _bootstrap_sql() -> str:
    ladder = " ".join(
        f"WHEN h < {t} THEN {i}" for i, t in enumerate(_POISSON_T40))
    mix_rows = ", ".join(
        f"({rep}, CAST({c} AS HUGEINT))"
        for rep, c in enumerate(_BOOT_MIX))
    return f"""
WITH mix(b, c) AS (VALUES {mix_rows}),
base AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS x,
         CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)),
              1, 15)) AS BIGINT) AS h60
  FROM orders
), r AS (
  SELECT mix.b, base.x,
         CAST(((CAST(base.h60 AS HUGEINT) * mix.c)
               % 1152921504606846976) // 1048576 AS BIGINT) AS h
  FROM base CROSS JOIN mix
), w AS (
  SELECT b, x,
         CASE {ladder} ELSE {len(_POISSON_T40)} END AS w
  FROM r
), hw AS (
  SELECT b, x, SUM(w) AS w FROM w WHERE w > 0 GROUP BY b, x
), c AS (
  SELECT b, x,
         SUM(w) OVER (PARTITION BY b ORDER BY x) AS cw,
         SUM(w) OVER (PARTITION BY b) AS tw
  FROM hw
), med AS (
  SELECT b, CAST(MIN(x) AS BIGINT) AS median_cents
  FROM c WHERE 2 * cw >= tw GROUP BY b
)
SELECT reps.b AS replicate,
       COALESCE(med.median_cents, CAST(0 AS BIGINT)) AS median_cents
FROM (SELECT unnest(range({BOOT_B})) AS b) reps
LEFT JOIN med ON reps.b = med.b
"""


def weekday_anova(sf_dir: str):
    """One-way ANOVA of order totals across weekdays — "does the day
    of the week move basket size?": the F-statistic over the 7
    day-of-week groups plus η² (the variance share the grouping
    explains). The classic fixed-effects readout between the t-test
    family ([[ab-conversion-ztest]]) and the regression family
    ([[order-size-regression]]).

    Exactness: per-(dow, block) int64 moment cells (n, Σx, Σx²) in
    integer cents stream to the driver where Python unbounded ints
    combine them order-independently (Σx² exceeds int64 at sf≥0.1 —
    the price_quantity_corr discipline, NOT a Ray Sum); SSB/SSW
    convert the exact moments with the oracle's identical float
    expression — the only float sums are over SEVEN group terms,
    absorbed by the 4-dp round."""
    ds = scan(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        days = (b.column("o_orderdate").to_numpy()
                .astype("datetime64[D]").astype(np.int64))
        g = (days + 4) % 7          # 0=Sunday, DuckDB dayofweek()
        x = np.rint(b.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        return group_agg(pa.table({
            "g": pa.array(g),
            "n": pa.array(np.ones(len(x), dtype=np.int64)),
            "s": pa.array(x),
            "q": pa.array(x * x),
        }), "g", {c: (c, "sum") for c in ("n", "s", "q")})

    cells: dict[int, list] = {}
    for b in ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=65536) \
               .iter_batches(batch_size=4096, batch_format="pyarrow"):
        for g, n_, s_, q_ in zip(b.column("g").to_pylist(),
                                 b.column("n").to_pylist(),
                                 b.column("s").to_pylist(),
                                 b.column("q").to_pylist()):
            c = cells.setdefault(int(g), [0, 0, 0])
            c[0] += int(n_)           # exact Python ints
            c[1] += int(s_)
            c[2] += int(q_)
    rows = [(g, *cells[g]) for g in sorted(cells)]
    k = len(rows)
    nn = sum(r[1] for r in rows)
    ss = sum(r[2] for r in rows)
    sb2 = sum(float(r[2]) * r[2] / r[1] for r in rows)
    qq = sum(float(r[3]) for r in rows)
    ssb = sb2 - float(ss) * ss / nn
    ssw = qq - sb2
    f = ((ssb / (k - 1)) / (ssw / (nn - k))
         if k > 1 and ssw > 0 else 0.0)
    return pa.table({
        "n": pa.array([nn], type=pa.int64()),
        "k": pa.array([k], type=pa.int64()),
        "f_stat": pa.array([round_half_away(f, 4)],
                           type=pa.float64()),
        # denominator written as qq - ss^2/n (NOT ssb+ssw): the oracle
        # computes it that way and the two differ in the last ulp
        "eta_sq": pa.array(
            [round_half_away(ssb / (qq - float(ss) * ss / nn), 6)
             if qq - float(ss) * ss / nn > 0 else 0.0],
            type=pa.float64()),
    })


_ANOVA_SQL = """
WITH v AS (
  SELECT CAST(dayofweek(o_orderdate) AS BIGINT) AS g,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS x
  FROM orders
), gm AS (
  SELECT g, COUNT(*) AS n, SUM(x) AS s,
         SUM(CAST(x AS HUGEINT) * x) AS q
  FROM v GROUP BY g
), tot AS (
  SELECT SUM(n) AS nn, SUM(s) AS ss, COUNT(*) AS k FROM gm
), terms AS (
  SELECT SUM(CAST(s AS DOUBLE) * s / n) AS sb2,
         SUM(CAST(q AS DOUBLE)) AS qq
  FROM gm
)
SELECT CAST(tot.nn AS BIGINT) AS n, CAST(tot.k AS BIGINT) AS k,
       CASE WHEN tot.k <= 1
                 OR terms.qq - terms.sb2 <= 0 THEN 0.0
            ELSE ROUND(((terms.sb2 - CAST(tot.ss AS DOUBLE) * tot.ss
                         / tot.nn) / (tot.k - 1))
                       / ((terms.qq - terms.sb2)
                          / (tot.nn - tot.k)), 4)
       END AS f_stat,
       CASE WHEN terms.qq - CAST(tot.ss AS DOUBLE) * tot.ss / tot.nn
                 <= 0 THEN 0.0
            ELSE ROUND((terms.sb2 - CAST(tot.ss AS DOUBLE) * tot.ss
                        / tot.nn)
                       / (terms.qq - CAST(tot.ss AS DOUBLE) * tot.ss
                          / tot.nn), 6)
       END AS eta_sq
FROM tot CROSS JOIN terms
"""


_PSI_SQL = f"""
WITH m AS (
  SELECT MIN(epoch_us(ts)) AS t0, MAX(epoch_us(ts)) AS t1,
         MIN(CAST(ROUND(value * 100) AS BIGINT)) AS lo,
         MAX(CAST(ROUND(value * 100) AS BIGINT)) AS hi
  FROM events
), e AS (
  SELECT CASE WHEN epoch_us(ts) >= (m.t0 + m.t1) // 2
         THEN 1 ELSE 0 END AS side,
         CASE WHEN m.hi = m.lo THEN 0
              ELSE LEAST({PSI_BUCKETS} - 1,
                   ((CAST(ROUND(value * 100) AS BIGINT) - m.lo)
                    * {PSI_BUCKETS}) // (m.hi - m.lo))
         END AS bucket
  FROM events CROSS JOIN m
), c AS (
  SELECT bucket,
         SUM(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS c_a,
         SUM(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS c_b
  FROM e GROUP BY bucket
), n AS (SELECT SUM(c_a) AS na, SUM(c_b) AS nb FROM c),
b10 AS (SELECT unnest(range({PSI_BUCKETS})) AS bucket),
f AS (
  SELECT b10.bucket, COALESCE(c.c_a, 0) AS c_a,
         COALESCE(c.c_b, 0) AS c_b
  FROM b10 LEFT JOIN c USING (bucket)
), q AS (
  SELECT f.bucket, f.c_a, f.c_b,
         CAST(FLOOR(1000.0 * LN(
             CAST((f.c_a + 1) * (n.nb + {PSI_BUCKETS}) AS DOUBLE)
             / ((f.c_b + 1) * (n.na + {PSI_BUCKETS})))) AS BIGINT) AS l,
         n.na, n.nb
  FROM f CROSS JOIN n
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(c_a AS BIGINT) AS c_a, CAST(c_b AS BIGINT) AS c_b,
       ROUND((c_a + 1) * l / (1000.0 * (na + {PSI_BUCKETS}))
             - (c_b + 1) * l / (1000.0 * (nb + {PSI_BUCKETS})), 6)
           AS psi_term
FROM q
"""

_HILL_SQL = f"""
WITH v AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c FROM orders
), top AS (
  SELECT c, row_number() OVER (ORDER BY c DESC) AS i
  FROM v ORDER BY c DESC LIMIT {HILL_K} + 1
), xk AS (SELECT c AS ck FROM top WHERE i = {HILL_K} + 1),
m AS (
  SELECT SUM(ln(CAST(c AS DOUBLE))) AS sl FROM top WHERE i <= {HILL_K}
)
SELECT CAST({HILL_K} AS BIGINT) AS k,
       CAST(xk.ck AS BIGINT) AS x_k,
       CASE WHEN m.sl - {HILL_K} * ln(CAST(xk.ck AS DOUBLE)) <= 0
            THEN 0.0
            ELSE ROUND({HILL_K} / (m.sl - {HILL_K}
                       * ln(CAST(xk.ck AS DOUBLE))), 4)
       END AS hill_alpha
FROM xk CROSS JOIN m
"""


_LDIV_SQL = f"""
WITH cls AS (
  SELECT c_nationkey AS nat,
         (CAST(ROUND(c_acctbal * 100) AS BIGINT) + {LDIV_BAND_SHIFT})
             // {LDIV_BAND_CENTS} AS band,
         c_mktsegment AS seg, COUNT(*) AS n
  FROM customer GROUP BY nat, band, seg
), cl AS (
  SELECT nat, band, COUNT(*) AS l, SUM(n) AS n_cust
  FROM cls GROUP BY nat, band
)
SELECT CAST(l AS BIGINT) AS l,
       CAST(COUNT(*) AS BIGINT) AS n_classes,
       CAST(SUM(n_cust) AS BIGINT) AS n_customers
FROM cl GROUP BY l
"""

_KEY_SKEW_SQL = """
WITH kc AS (
  SELECT l_suppkey AS k, COUNT(*) AS n FROM lineitem GROUP BY k
), r AS (
  SELECT k, n, row_number() OVER (ORDER BY n, k) AS i FROM kc
), m AS (
  SELECT COUNT(*) AS nk, SUM(n) AS nr, MAX(n) AS mx,
         SUM(CAST(i AS HUGEINT) * n) AS s_in
  FROM r
), t AS (
  SELECT MIN(k) AS top_key FROM kc
  WHERE n = (SELECT MAX(n) FROM kc)
)
SELECT CAST(nr AS BIGINT) AS n_rows, CAST(nk AS BIGINT) AS n_keys,
       CAST(mx AS BIGINT) AS max_n, t.top_key,
       ROUND(CAST(nr AS DOUBLE) / nk, 4) AS mean_rows_per_key,
       ROUND(2.0 * s_in / (nk * nr) - (nk + 1.0) / nk, 4) AS gini
FROM m CROSS JOIN t
"""


ORACLE_SQL = {
    "l_diversity": _LDIV_SQL,
    "key_skew_audit": _KEY_SKEW_SQL,
    "value_psi": _PSI_SQL,
    "hill_tail_index": _HILL_SQL,
    "t_closeness": _TCLOSE_SQL,
    "weekday_anova": _ANOVA_SQL,
    "mannwhitney_order_values": _MWU_SQL,
    "bootstrap_median_ci": _bootstrap_sql(),
    "fk_integrity_audit": _FK_SQL,
    "props_numeric_agg": r"""
        WITH x AS (
          SELECT event_type,
                 CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS k
          FROM events
          WHERE regexp_matches(props, '"k": (\d+)')
        )
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(SUM(k) AS BIGINT) AS sum_k,
               ROUND(SUM(k) * 1.0 / COUNT(*), 4) AS avg_k,
               MAX(k) AS max_k
        FROM x GROUP BY event_type
    """,
    "orders_pivot": _orders_pivot_sql(),
    "customer_running_total": """
        SELECT o_custkey, o_orderkey,
               CAST(ROW_NUMBER() OVER w AS BIGINT) AS order_seq,
               SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) OVER w
                   / 100.0 AS running_spend
        FROM orders
        WINDOW w AS (PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey
                     ROWS UNBOUNDED PRECEDING)
    """,
    "late_suppliers": """
        WITH per AS (
          SELECT l.l_orderkey AS ok, l.l_suppkey AS sk,
                 MAX(l.l_shipdate) > MAX(o.o_orderdate)
                     + INTERVAL 90 DAY AS late
          FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
          WHERE o.o_orderstatus = 'F'
          GROUP BY ok, sk
        ), stat AS (
          SELECT ok, COUNT(*) AS nsupp,
                 SUM(CASE WHEN late THEN 1 ELSE 0 END) AS nlate
          FROM per GROUP BY ok
        )
        SELECT p.sk AS s_suppkey, CAST(COUNT(*) AS BIGINT) AS numwait
        FROM per p JOIN stat s ON p.ok = s.ok
        WHERE p.late AND s.nlate = 1 AND s.nsupp >= 2
        GROUP BY p.sk
    """,
    "idle_customer_balance": """
        WITH t AS (
          SELECT SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS s,
                 COUNT(*) AS n
          FROM customer WHERE c_acctbal > 0
        )
        SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_custs,
               SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) / 100.0
                   AS total_bal
        FROM customer, t
        WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) * t.n > t.s
          AND NOT EXISTS (
            SELECT 1 FROM orders o
            WHERE o.o_custkey = c_custkey
              AND o.o_orderdate >= TIMESTAMP '2001-01-01')
        GROUP BY c_mktsegment
    """,
    "inactive_customers": """
        SELECT c_custkey, c_name, c_acctbal
        FROM customer c
        WHERE NOT EXISTS (
          SELECT 1 FROM orders o
          WHERE o.o_custkey = c.c_custkey
            AND o.o_orderdate >= TIMESTAMP '2000-01-01')
    """,
    "shipping_priority": """
        SELECT l_orderkey,
               ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                     / 10000.0, 2) AS revenue,
               o_orderdate, o_orderpriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate < TIMESTAMP '1998-01-01'
          AND l_shipdate > TIMESTAMP '1998-01-01'
        GROUP BY l_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue DESC, l_orderkey
        LIMIT 10
    """,
    "promo_revenue": """
        WITH e AS (
          SELECT strftime(l_shipdate, '%Y-%m') AS month,
                 CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                     AS rev_e4,
                 p_type
          FROM lineitem JOIN part ON p_partkey = l_partkey
        )
        SELECT month,
               ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                                      THEN rev_e4 ELSE 0 END)
                     / SUM(rev_e4), 4) AS promo_share,
               ROUND(SUM(rev_e4) / 10000.0, 2) AS revenue
        FROM e GROUP BY month
    """,
    "distinct_users_salted": """
        SELECT event_type,
               COUNT(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type
    """,
    "customer_order_counts": """
        SELECT c.c_custkey, c.c_name,
               COALESCE(o.n, 0) AS n_orders
        FROM customer c
        LEFT JOIN (
          SELECT o_custkey, COUNT(*) AS n FROM orders
          WHERE o_orderdate >= TIMESTAMP '2000-01-01'
          GROUP BY o_custkey
        ) o ON o.o_custkey = c.c_custkey
    """,
    "revenue_rollup": """
        SELECT COALESCE(n_name, 'ALL') AS n_name,
               COALESCE(month, 'ALL') AS month,
               ROUND(SUM(rev_c) / 100.0, 2) AS revenue,
               COUNT(*) AS n_orders
        FROM (
          SELECT n_name, strftime(o_orderdate, '%Y-%m') AS month,
                 CAST(ROUND(o_totalprice * 100) AS BIGINT) AS rev_c
          FROM orders
          JOIN customer ON c_custkey = o_custkey
          JOIN nation ON n_nationkey = c_nationkey
        )
        GROUP BY ROLLUP (n_name, month)
    """,
    "region_supplier_revenue": """
        SELECT r_name, n_name,
               ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                     / 10000.0, 2) AS revenue
        FROM lineitem
        JOIN supplier ON s_suppkey = l_suppkey
        JOIN nation ON n_nationkey = s_nationkey
        JOIN region ON r_regionkey = n_regionkey
        GROUP BY r_name, n_name
    """,
    "benford_order_totals": """
        WITH d AS (
          SELECT CAST(substr(CAST(CAST(FLOOR(o_totalprice) AS BIGINT)
                                  AS VARCHAR), 1, 1) AS BIGINT) AS digit
          FROM orders
        ), c AS (SELECT digit, COUNT(*) AS n FROM d GROUP BY digit),
        tot AS (SELECT SUM(n) AS n FROM c)
        SELECT digit, CAST(c.n AS BIGINT) AS n_obs,
               ROUND(c.n * 1.0 / tot.n, 6) AS observed_frac,
               ROUND(log10(1 + 1.0 / digit), 6) AS expected_frac,
               ROUND((c.n - tot.n * log10(1 + 1.0 / digit))
                     * (c.n - tot.n * log10(1 + 1.0 / digit))
                     / (tot.n * log10(1 + 1.0 / digit)), 4) AS chi2_term
        FROM c CROSS JOIN tot
    """,
    "order_size_regression": """
        WITH f AS (
          SELECT l_orderkey AS ok, COUNT(*) AS x1,
                 CAST(SUM(ROUND(l_quantity)) AS BIGINT) AS x2
          FROM lineitem GROUP BY ok
        ), j AS (
          SELECT f.x1, f.x2,
                 CAST(ROUND(o_totalprice * 100) AS BIGINT) AS y
          FROM f JOIN orders ON o_orderkey = ok
        ), m AS (
          SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                 CAST(SUM(x1) AS HUGEINT) AS s1,
                 CAST(SUM(x2) AS HUGEINT) AS s2,
                 CAST(SUM(x1 * x1) AS HUGEINT) AS s11,
                 CAST(SUM(x1 * x2) AS HUGEINT) AS s12,
                 CAST(SUM(x2 * x2) AS HUGEINT) AS s22,
                 CAST(SUM(y) AS HUGEINT) AS sy,
                 CAST(SUM(x1 * y) AS HUGEINT) AS s1y,
                 CAST(SUM(x2 * y) AS HUGEINT) AS s2y,
                 SUM(CAST(y AS HUGEINT) * y) AS yy
          FROM j
        ), d AS (
          SELECT *,
            n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
              + s2 * (s1 * s12 - s11 * s2) AS det,
            sy * (s11 * s22 - s12 * s12) - s1 * (s1y * s22 - s12 * s2y)
              + s2 * (s1y * s12 - s11 * s2y) AS det0,
            n * (s1y * s22 - s12 * s2y) - sy * (s1 * s22 - s12 * s2)
              + s2 * (s1 * s2y - s1y * s2) AS det1,
            n * (s11 * s2y - s1y * s12) - s1 * (s1 * s2y - s1y * s2)
              + sy * (s1 * s12 - s11 * s2) AS det2
          FROM m
        ), c AS (
          SELECT n, sy, s1y, s2y, yy,
                 CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE) AS b0,
                 CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE) AS b1,
                 CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE) AS b2
          FROM d
        )
        SELECT CAST(n AS BIGINT) AS n_orders,
               ROUND(b0, 4) AS intercept_cents,
               ROUND(b1, 4) AS per_line_cents,
               ROUND(b2, 4) AS per_qty_cents,
               ROUND(1 - (CAST(yy AS DOUBLE)
                          - (b0 * CAST(sy AS DOUBLE)
                             + b1 * CAST(s1y AS DOUBLE)
                             + b2 * CAST(s2y AS DOUBLE)))
                       / (CAST(yy AS DOUBLE)
                          - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)
                            / CAST(n AS DOUBLE)), 6) AS r2
        FROM c
    """,
    "supplier_wilson_rank": """
        WITH j AS (
          SELECT l_suppkey AS s,
                 CASE WHEN l_shipdate <= o_orderdate
                                         + INTERVAL 90 DAY
                      THEN 1 ELSE 0 END AS ot
          FROM lineitem JOIN orders ON o_orderkey = l_orderkey
        ), c AS (
          SELECT s, COUNT(*) AS n, SUM(ot) AS on_time FROM j GROUP BY s
        ), w AS (
          SELECT s, n, on_time, on_time * 1.0 / n AS p,
                 (on_time * 1.0 / n + 3.8416 / (2 * n)
                  - 1.96 * sqrt((on_time * 1.0 / n
                                 * (1 - on_time * 1.0 / n)
                                 + 3.8416 / (4 * n)) / n))
                 / (1 + 3.8416 / n) AS lb
          FROM c
        )
        SELECT CAST(s AS BIGINT) AS suppkey,
               CAST(n AS BIGINT) AS n_shipments,
               CAST(on_time AS BIGINT) AS n_on_time,
               ROUND(p, 4) AS on_time_rate,
               ROUND(lb, 4) AS wilson_lb
        FROM w ORDER BY lb DESC, s LIMIT 20
    """,
    "k_anonymity": """
        WITH g AS (
          SELECT c_nationkey, c_mktsegment, COUNT(*) AS k
          FROM customer GROUP BY c_nationkey, c_mktsegment
        )
        SELECT CAST(k AS BIGINT) AS k,
               CAST(COUNT(*) AS BIGINT) AS n_groups,
               CAST(SUM(k) AS BIGINT) AS n_customers
        FROM g GROUP BY k
    """,
    "part_price_trend": """
        WITH b AS (
          SELECT l_partkey AS partkey,
                 CAST(datediff('day', TIMESTAMP '1995-01-01',
                               l_shipdate) AS BIGINT) AS x,
                 CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS y
          FROM lineitem
        ), m AS (
          SELECT partkey, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
                 SUM(x * x) AS sxx, SUM(x * y) AS sxy
          FROM b GROUP BY partkey
        )
        SELECT partkey, CAST(n AS BIGINT) AS n,
               ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE), 4)
                   AS slope_cents_per_day
        FROM m WHERE n * sxx - sx * sx > 0
    """,
    "price_quantity_corr": """
        -- exact integer moments (cents), HUGEINT sums: mirrors the
        -- Ray side's Python-int combine bit-for-bit
        WITH b AS (
          SELECT CAST(ROUND(l_quantity) AS BIGINT) AS q,
                 CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS pc
          FROM lineitem
        ), m AS (
          SELECT COUNT(*) AS n, SUM(q) AS sq, SUM(pc) AS sp,
                 SUM(q * q) AS sqq, SUM(pc * pc) AS spp,
                 SUM(q * pc) AS sqp
          FROM b
        )
        SELECT CAST(n AS BIGINT) AS n,
               ROUND(CAST(n * sqp - sq * sp AS DOUBLE)
                     / sqrt(CAST(n * sqq - sq * sq AS DOUBLE)
                            * CAST(n * spp - sp * sp AS DOUBLE)),
                     4) AS corr,
               ROUND(CAST(sq AS DOUBLE) / n, 4) AS mean_qty,
               ROUND(CAST(sp AS DOUBLE) / 100 / n, 4) AS mean_price
        FROM m
    """,
    "orders_monthly_growth": """
        WITH m AS (
          SELECT strftime(o_orderdate, '%Y-%m') AS month,
                 SUM(o_totalprice) AS rev,
                 COUNT(*) AS n_orders
          FROM orders GROUP BY month
        )
        SELECT month, ROUND(rev, 2) AS revenue, n_orders,
               ROUND((rev - LAG(rev) OVER (ORDER BY month))
                     / LAG(rev) OVER (ORDER BY month), 4) AS growth
        FROM m
    """,
    "approx_distinct_pairs": f"""
        WITH h AS (
          SELECT DISTINCT CAST(('0x' || substr(md5(
              CAST(user_id AS VARCHAR) || '|' || props), 1, 15))
              AS BIGINT) AS h
          FROM events
        ), km AS (
          SELECT h FROM h ORDER BY h LIMIT {KMV_K}
        )
        SELECT CAST({KMV_K} AS BIGINT) AS k,
               MAX(km.h) AS kth_hash,
               ROUND(({KMV_K} - 1) * POW(2, 60) / MAX(km.h), 4)
                   AS est_distinct,
               (SELECT COUNT(*) FROM h) AS n_exact
        FROM km
    """,
    "hll_users_by_type": f"""
        WITH h AS (
          SELECT DISTINCT event_type,
                 CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 15))
                     AS BIGINT) AS h
          FROM events
        ), r AS (
          SELECT event_type, h % {HLL_M} AS idx,
                 CASE WHEN h // {HLL_M} > 0
                      THEN {HLL_RHO_MAX}
                           - length(format('{{:b}}', h // {HLL_M}))
                      ELSE {HLL_RHO_MAX} END AS rho
          FROM h
        ), regs AS (
          SELECT event_type, idx, MAX(rho) AS r
          FROM r GROUP BY event_type, idx
        ), agg AS (
          SELECT event_type, COUNT(*) AS n_present,
                 CAST(SUM(CAST(1 AS BIGINT) << ({HLL_RHO_MAX} - r))
                     AS BIGINT) AS s_present
          FROM regs GROUP BY event_type
        ), ex AS (
          SELECT event_type, COUNT(DISTINCT user_id) AS n_exact
          FROM events GROUP BY event_type
        )
        SELECT a.event_type,
               CAST({HLL_M} AS BIGINT) AS m,
               CAST({HLL_M} - n_present AS BIGINT) AS v_zero,
               CAST(s_present + ({HLL_M} - n_present)
                    * (CAST(1 AS BIGINT) << {HLL_RHO_MAX}) AS BIGINT)
                   AS s_int,
               ROUND((0.7213 / (1 + 1.079 / {HLL_M}))
                     * {HLL_M} * {HLL_M}
                     * (CAST(1 AS BIGINT) << {HLL_RHO_MAX})
                     / (s_present + ({HLL_M} - n_present)
                        * (CAST(1 AS BIGINT) << {HLL_RHO_MAX})), 4)
                   AS est_distinct,
               ex.n_exact
        FROM agg a JOIN ex ON ex.event_type = a.event_type
    """,
    "events_quantile_sketch": _QUANTILE_SKETCH_SQL,
    "events_seasonality": """
        SELECT CAST(isodow(ts) AS BIGINT) AS dow,
               CAST(hour(ts) AS BIGINT) AS hour,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               ROUND(CAST(SUM(CAST(ROUND(value * 1000000) AS BIGINT))
                          AS DOUBLE) / COUNT(*) / 1000000.0, 6)
                 AS mean_value
        FROM events GROUP BY dow, hour
    """,
    "rfm_segments": """
        WITH c AS (
          SELECT o_custkey,
                 date_diff('day', MAX(o_orderdate),
                           TIMESTAMP '2001-09-01') AS rec,
                 CAST(COUNT(*) AS DOUBLE) AS freq,
                 CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                      AS DOUBLE) AS mon
          FROM orders GROUP BY o_custkey),
        q AS (
          SELECT quantile_cont(CAST(rec AS DOUBLE),
                               [1.0/3, 2.0/3]) AS rq,
                 quantile_cont(freq, [1.0/3, 2.0/3]) AS fq,
                 quantile_cont(mon, [1.0/3, 2.0/3]) AS mq
          FROM c)
        SELECT CAST(CASE WHEN rec <= rq[1] THEN 0
                         WHEN rec <= rq[2] THEN 1 ELSE 2 END AS BIGINT)
                 AS r_bucket,
               CAST(CASE WHEN freq <= fq[1] THEN 0
                         WHEN freq <= fq[2] THEN 1 ELSE 2 END AS BIGINT)
                 AS f_bucket,
               CAST(CASE WHEN mon <= mq[1] THEN 0
                         WHEN mon <= mq[2] THEN 1 ELSE 2 END AS BIGINT)
                 AS m_bucket,
               CAST(COUNT(*) AS BIGINT) AS n_customers
        FROM c CROSS JOIN q
        GROUP BY r_bucket, f_bucket, m_bucket
    """,
    "events_profile": """
        WITH p AS (
          SELECT 'value' AS col, COUNT(*) AS n_rows,
                 COUNT(*) - COUNT(value) AS n_null,
                 CAST(MIN(value) AS DOUBLE) AS min_v,
                 CAST(MAX(value) AS DOUBLE) AS max_v,
                 ROUND(CAST(SUM(CAST(ROUND(value * 1000000) AS BIGINT))
                            AS DOUBLE) / COUNT(*) / 1000000.0, 6) AS mean_v
          FROM events
          UNION ALL
          SELECT 'event_id', COUNT(*), COUNT(*) - COUNT(event_id),
                 CAST(MIN(event_id) AS DOUBLE),
                 CAST(MAX(event_id) AS DOUBLE),
                 ROUND(CAST(SUM(event_id) AS DOUBLE) / COUNT(*), 6)
          FROM events
          UNION ALL
          SELECT 'user_id', COUNT(*), COUNT(*) - COUNT(user_id),
                 CAST(MIN(user_id) AS DOUBLE),
                 CAST(MAX(user_id) AS DOUBLE),
                 ROUND(CAST(SUM(user_id) AS DOUBLE) / COUNT(*), 6)
          FROM events
          UNION ALL
          SELECT 'ts_day', COUNT(*), COUNT(*) - COUNT(ts),
                 CAST(MIN(epoch_us(ts) // 86400000000) AS DOUBLE),
                 CAST(MAX(epoch_us(ts) // 86400000000) AS DOUBLE),
                 ROUND(CAST(SUM(epoch_us(ts) // 86400000000) AS DOUBLE)
                       / COUNT(*), 6)
          FROM events)
        SELECT col, CAST(n_rows AS BIGINT) AS n_rows,
               CAST(n_null AS BIGINT) AS n_null, min_v, max_v, mean_v
        FROM p
    """,
    "customer_ltv_deciles": """
        WITH t AS (
          SELECT o_custkey,
                 CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                      AS DOUBLE) AS tot
          FROM orders GROUP BY o_custkey)
        SELECT CAST(unnest([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
                    AS DOUBLE) AS q,
               ROUND(unnest(quantile_cont(tot,
                     [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
                     / 100.0, 4) AS ltv
        FROM t
    """,
    "mad_outliers": """
        WITH m AS (SELECT event_type, MEDIAN(value) AS med
                   FROM events GROUP BY event_type),
        md AS (SELECT e.event_type, MEDIAN(ABS(e.value - m.med)) AS mad
               FROM events e JOIN m USING (event_type)
               GROUP BY e.event_type)
        SELECT e.event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CASE WHEN ABS(e.value - m.med) > 3 * md.mad
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers,
               ROUND(m.med, 4) AS median, ROUND(md.mad, 4) AS mad
        FROM events e JOIN m USING (event_type) JOIN md USING (event_type)
        GROUP BY e.event_type, m.med, md.mad
    """,
    "events_zscore": """
        WITH m AS (
          SELECT event_type, COUNT(*) AS n, SUM(value) AS s,
                 SUM(value * value) AS ss
          FROM events GROUP BY event_type
        )
        SELECT e.event_id, e.event_type,
               ROUND((e.value - m.s / m.n)
                     / sqrt(m.ss / m.n - (m.s / m.n) * (m.s / m.n)), 4)
                   AS z
        FROM events e JOIN m USING (event_type)
    """,
    "nation_revenue": """
        SELECT n_name,
               ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                     / 10000.0, 2) AS revenue
        FROM lineitem
        JOIN orders   ON o_orderkey = l_orderkey
        JOIN customer ON c_custkey = o_custkey
        JOIN nation   ON n_nationkey = c_nationkey
        GROUP BY n_name
    """,
    "lineitem_agg": """
        SELECT l_returnflag, l_linestatus,
               ROUND(SUM(l_quantity), 4) AS sum_qty,
               ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     / 100.0, 2) AS sum_base_price,
               ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                     / 10000.0, 2) AS sum_disc_price,
               COUNT(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "top_orders": """
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
    """,
    "segment_revenue": """
        SELECT c_mktsegment,
               ROUND(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     / 100.0, 2) AS revenue,
               COUNT(*) AS n_orders
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """,
    "events_hourly": """
        SELECT event_type,
               strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start,
               COUNT(*) AS n_events,
               ROUND(SUM(CAST(ROUND(value * 10000) AS BIGINT))
                     / 10000.0, 4) AS sum_value
        FROM events GROUP BY 1, 2
    """,
    "events_hopping": """
        WITH expanded AS (
          SELECT event_type, value,
                 date_trunc('minute', ts)
                   - INTERVAL (EXTRACT(minute FROM ts)::INT % 30) MINUTE AS w
          FROM events
          UNION ALL
          SELECT event_type, value,
                 date_trunc('minute', ts)
                   - INTERVAL (EXTRACT(minute FROM ts)::INT % 30) MINUTE
                   - INTERVAL 30 MINUTE AS w
          FROM events
        )
        SELECT event_type,
               strftime(w, '%Y-%m-%d %H:%M:%S') AS window_start,
               COUNT(*) AS n_events,
               ROUND(SUM(value), 4) AS sum_value
        FROM expanded GROUP BY 1, 2
    """,
    "priority_top_orders": """
        SELECT o_orderpriority, rk, o_orderkey, o_totalprice FROM (
          SELECT o_orderpriority, o_orderkey, o_totalprice,
                 ROW_NUMBER() OVER (
                     PARTITION BY o_orderpriority
                     ORDER BY o_totalprice DESC, o_orderkey) AS rk
          FROM orders) WHERE rk <= 3
    """,
    "group_quantiles": " UNION ALL ".join(
        f"SELECT l_returnflag, {q} AS q,"
        f" ROUND(quantile_cont(l_extendedprice, {q}), 4) AS value"
        f" FROM lineitem GROUP BY l_returnflag"
        for q in (0.25, 0.5, 0.75, 0.9)
    ),
    "price_quantiles": " UNION ALL ".join(
        f"SELECT {q} AS q, ROUND(quantile_cont(o_totalprice, {q}), 4)"
        f" AS value FROM orders"
        for q in (0.25, 0.5, 0.75, 0.9, 0.99)
    ),
    "user_activity": """
        SELECT user_id, COUNT(*) AS n_events,
               COUNT(DISTINCT event_type) AS n_types,
               ROUND(MAX(value), 4) AS max_value
        FROM events GROUP BY user_id
    """,
    "click_events": """
        SELECT event_id, user_id, value FROM events
        WHERE event_type = 'click' AND value > 10.0
    """,
}

QUERIES = {
    "lineitem_agg": lineitem_agg,
    "props_numeric_agg": props_numeric_agg,
    "top_orders": top_orders,
    "segment_revenue": segment_revenue,
    "events_hourly": events_hourly,
    "events_hopping": events_hopping,
    "priority_top_orders": priority_top_orders,
    "price_quantiles": price_quantiles,
    "group_quantiles": group_quantiles,
    "user_activity": user_activity,
    "nation_revenue": nation_revenue,
    "events_zscore": events_zscore,
    "events_quantile_sketch": events_quantile_sketch,
    "mad_outliers": mad_outliers,
    "customer_ltv_deciles": customer_ltv_deciles,
    "events_profile": events_profile,
    "rfm_segments": rfm_segments,
    "events_seasonality": events_seasonality,
    "approx_distinct_pairs": approx_distinct_pairs,
    "hll_users_by_type": hll_users_by_type,
    "orders_monthly_growth": orders_monthly_growth,
    "click_events": click_events,
    "inactive_customers": inactive_customers,
    "shipping_priority": shipping_priority,
    "price_quantity_corr": price_quantity_corr,
    "part_price_trend": part_price_trend,
    "k_anonymity": k_anonymity,
    "l_diversity": l_diversity,
    "key_skew_audit": key_skew_audit,
    "value_psi": value_psi,
    "hill_tail_index": hill_tail_index,
    "t_closeness": t_closeness,
    "weekday_anova": weekday_anova,
    "mannwhitney_order_values": mannwhitney_order_values,
    "bootstrap_median_ci": bootstrap_median_ci,
    "fk_integrity_audit": fk_integrity_audit,
    "supplier_wilson_rank": supplier_wilson_rank,
    "order_size_regression": order_size_regression,
    "benford_order_totals": benford_order_totals,
    "promo_revenue": promo_revenue,
    "region_supplier_revenue": region_supplier_revenue,
    "revenue_rollup": revenue_rollup,
    "customer_order_counts": customer_order_counts,
    "distinct_users_salted": distinct_users_salted,
    "customer_running_total": customer_running_total,
    "late_suppliers": late_suppliers,
    "idle_customer_balance": idle_customer_balance,
    "orders_pivot": orders_pivot,
}


# -------------------------------------------- range-partition manifest

RANGE_PARTS = 16


def range_partition_manifest(sf_dir: str, parts: int = RANGE_PARTS):
    """WRITE-SIDE range-partition PLANNER — the manifest a resumable
    partitioned-output job is driven by (the brief's "one directory
    per key range"): ``parts`` equal-count value cuts over the order
    totals (exact lower order statistics at ⌊n·p/parts⌋, integer
    cents domain — no interpolation, so the cuts are actual data
    values), then one counting pass assigning every row to its range
    (ties go right: partition = |{cuts ≤ x}|). Per partition: the
    upper cut and the exact row count — ties bunching rows across the
    ideal n/parts is the real skew signal a writer plans around.

    Scale shape: cuts come from the shared histogram order-statistic
    selection (:func:`orderstats.order_stats` over the integer cents —
    no global sort, two streaming passes plus one boundary-bucket
    fetch), the count pass folds ≤``parts`` cells per block, and only
    the tiny manifest reaches the driver."""
    col = "o_totalprice"
    ds = scan(sf_dir, "orders", columns=[col])

    def to_cents(batch: pa.Table) -> np.ndarray:
        return np.rint(
            batch.column(col).to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)

    cents = ds.map_batches(lambda b: pa.table({"x": to_cents(b)}),
                           batch_format="pyarrow", batch_size=65536)
    h = histogram(cents, "x")
    n = int(h.cum[0, -1])
    # the parts − 1 cuts, then the maximum (rank n − 1) as the last
    # partition's upper bound
    upper = order_stats(cents, h, [(n * p) // parts
                                   for p in range(1, parts)] + [n - 1])[0]
    cuts = upper[:-1]

    def assign(batch: pa.Table) -> pa.Table:
        # ties go right: partition = |{cuts <= x}|
        p = np.searchsorted(cuts, to_cents(batch), side="right")
        return pa.table({
            "partition": pa.array(p.astype(np.int64)),
            "n": pa.array(np.ones(len(p), dtype=np.int64)),
        })

    per = combine(ds, "partition", {"n": ("n", "sum")}, assign) \
        .to_pandas().sort_values("partition")
    pid = per["partition"].to_numpy().astype(np.int64)
    cnt = per["n"].to_numpy().astype(np.int64)
    full = np.zeros(parts, dtype=np.int64)
    full[pid] = cnt
    return pa.table({
        "partition": pa.array(np.arange(parts, dtype=np.int64)),
        "cut_cents": pa.array(upper),
        "n_rows": pa.array(full),
    })


_RANGE_MANIFEST_SQL = f"""
WITH v AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS x FROM orders
), s AS (
  SELECT x, ROW_NUMBER() OVER (ORDER BY x) - 1 AS rk FROM v
), nn AS (SELECT COUNT(*) AS n FROM v),
cuts AS (
  SELECT p.p, s.x AS c
  FROM (SELECT unnest(range(1, {RANGE_PARTS})) AS p) p
  JOIN nn ON TRUE
  JOIN s ON s.rk = (nn.n * p.p) // {RANGE_PARTS}
), asg AS (
  SELECT v.x,
         (SELECT COUNT(*) FROM cuts WHERE cuts.c <= v.x) AS partition
  FROM v
), cnt AS (
  SELECT partition, COUNT(*) AS n_rows FROM asg GROUP BY partition
), parts AS (SELECT unnest(range(0, {RANGE_PARTS})) AS partition),
upper AS (
  SELECT p.partition,
         COALESCE((SELECT MIN(c) FROM cuts
                   WHERE cuts.p = p.partition + 1),
                  (SELECT MAX(x) FROM v)) AS cut_cents
  FROM parts p
)
SELECT CAST(u.partition AS BIGINT) AS partition,
       CAST(u.cut_cents AS BIGINT) AS cut_cents,
       CAST(COALESCE(c.n_rows, 0) AS BIGINT) AS n_rows
FROM upper u LEFT JOIN cnt c USING (partition)
"""


QUERIES["range_partition_manifest"] = range_partition_manifest
ORACLE_SQL["range_partition_manifest"] = _RANGE_MANIFEST_SQL
