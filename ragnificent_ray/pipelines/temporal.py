"""Temporal operators Ray Data lacks natively: session windows + as-of join.

Both are brief-listed custom operators ("as-of join, range join, windowed
aggregate") built as compositions of ``map_batches`` + bounded-bucket
``groupby().map_groups`` — the partitioning discipline documented in
``pipelines/dedup.py``:

* the groupby key is a **bounded bucket** of the entity key (one bucket
  per ~64 MiB of input, min 64), never the raw key, so the shuffle key
  space stays small while each pandas group stays block-sized;
* all per-group work is vectorized pandas/numpy (``merge_asof``,
  ``groupby().cumsum``) — no per-row or per-entity Python loops;
* the as-of join co-partitions BOTH sides on the same bucket via a
  tagged union, so it is one shuffle each and no broadcast — the shape
  that survives when both sides are 100 TB.

Partitioning assumption: one entity's history (one user's events/orders)
fits in a worker's heap. That holds for behavioural data; a pathological
hot key would need salting plus a second combine pass, which these exact
per-entity semantics (cumulative counts, session numbering) do not admit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import grouped_cumcount, round_half_away
from .combine import combine, fold, group_agg
from .inputs import scan, table_bytes

_SESSION_GAP_US = 1_800_000_000  # 30-minute session gap
_MIN_BUCKETS = 64


def _bucket_count(sf_dir: str, tables: tuple[str, ...],
                  target_bytes: int = 64 << 20) -> int:
    """One bucket per ~64 MiB of combined input parquet (min 64)."""
    return max(_MIN_BUCKETS,
               int(table_bytes(sf_dir, *tables) // target_bytes) + 1)


def _ts_us(series: pd.Series) -> np.ndarray:
    return series.to_numpy().astype("datetime64[us]").astype("int64")


def _ts_us_col(col) -> np.ndarray:
    """Arrow timestamp column → int64 microseconds (the Arrow-body
    twin of :func:`_ts_us`; unit pinned to µs before the cast so a
    nanosecond-typed column can never silently rescale)."""
    return (col.cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype("int64"))


def _fmt_ts(us: np.ndarray) -> list:
    """int64 µs → ``%Y-%m-%d %H:%M:%S`` strings (bounded output rows)."""
    return list(pd.to_datetime(us, unit="us")
                .strftime("%Y-%m-%d %H:%M:%S"))


def _run_starts(n: int, key_change: np.ndarray) -> np.ndarray:
    """Per-row index of its run's first row, for a boolean new-run
    mask over sorted rows."""
    first = np.flatnonzero(key_change)
    return np.repeat(first, np.diff(np.r_[first, n]))


# ----------------------------------------------------------- session windows

def sessionize(sf_dir: str):
    """Session-window aggregate over the events stream (30-min gap).

    A new session starts when a user's inter-event gap exceeds 30
    minutes; sessions are numbered 1..n per user in time order
    (tiebreak: event_id). The reference has no session operator — this
    is the streaming-window family the brief requires; the tumbling
    variant is ``relational.events_hourly``.
    """
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        n = g.num_rows
        ts_us = _ts_us_col(g.column("ts"))
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        np.not_equal(uid[1:], uid[:-1], out=new_user[1:])
        gap = np.empty(n, dtype=bool)
        gap[0] = True
        gap[1:] = (ts_us[1:] - ts_us[:-1]) > _SESSION_GAP_US
        is_new = new_user | gap
        # per-user session ordinal: global cumsum minus the user's offset
        boundary = np.cumsum(is_new)
        user_start = np.where(new_user)[0]
        offset = np.repeat(boundary[user_start] - 1,
                           np.diff(np.append(user_start, n)))
        session_no = boundary - offset
        # (user, session) runs are contiguous in this sort order
        first = np.flatnonzero(is_new)
        ends = np.r_[first[1:], n]
        val = g.column("value").to_numpy(zero_copy_only=False)
        sum_value = np.array([val[a:b].sum()
                              for a, b in zip(first, ends)])
        return pa.table({
            "user_id": pa.array(uid[first].astype(np.int64)),
            "session_no": pa.array(session_no[first].astype(np.int64)),
            "session_start": pa.array(_fmt_ts(ts_us[first]),
                                      type=pa.string()),
            "session_end": pa.array(_fmt_ts(ts_us[ends - 1]),
                                    type=pa.string()),
            "n_events": pa.array((ends - first).astype(np.int64)),
            "sum_value": pa.array(round_half_away(sum_value, 4)),
        })

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["bucket"])
                     if "bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


# ---------------------------------------------------------------- as-of join

def user_order_asof(sf_dir: str):
    """As-of join: each event picks up the user's order history to date.

    For every event, the most recent order at-or-before the event time
    plus cumulative order count and spend — the point-in-time feature
    lookup a training pipeline uses to avoid label leakage. Events whose
    user has no prior order are dropped (inner as-of semantics).

    Shape: tag both sides, hash-co-partition on the user key into
    bounded buckets (one shuffle each, no broadcast — the small-side
    broadcast of ``relational.segment_revenue`` would not survive a
    100 TB orders table), then one C-speed ``pd.merge_asof`` per bucket
    against order rows pre-annotated with cumulative count/spend.
    """
    n_buckets = _bucket_count(sf_dir, ("events", "orders"))

    def tag_orders(b: pa.Table) -> pa.Table:
        key = b.column("o_custkey")
        bucket = key.to_numpy() % n_buckets
        return pa.table({
            "bucket": pa.array(bucket.astype(np.int32)),
            "side": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
            "key": pc.cast(key, pa.int64()),
            "ts_us": pc.cast(b.column("o_orderdate"), pa.int64()),
            "event_id": pa.array(np.full(b.num_rows, -1, dtype=np.int64)),
            "price": pc.cast(b.column("o_totalprice"), pa.float64()),
        })

    def tag_events(b: pa.Table) -> pa.Table:
        key = b.column("user_id")
        bucket = key.to_numpy() % n_buckets
        return pa.table({
            "bucket": pa.array(bucket.astype(np.int32)),
            "side": pa.array(np.ones(b.num_rows, dtype=np.int8)),
            "key": pc.cast(key, pa.int64()),
            "ts_us": pc.cast(b.column("ts"), pa.int64()),
            "event_id": pc.cast(b.column("event_id"), pa.int64()),
            "price": pa.array(np.zeros(b.num_rows, dtype=np.float64)),
        })

    orders = scan(
        sf_dir, "orders",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(tag_orders, batch_format="pyarrow", batch_size=65536)
    events = scan(
        sf_dir, "events",
        columns=["user_id", "ts", "event_id"],
    ).map_batches(tag_events, batch_format="pyarrow", batch_size=65536)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        e = g[g["side"] == 1]
        if not len(o) or not len(e):
            return pd.DataFrame({
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "last_order_date": pd.Series(dtype="object"),
                "orders_to_date": pd.Series(dtype="int64"),
                "spend_to_date": pd.Series(dtype="float64"),
            })
        o = o.sort_values(["key", "ts_us"], kind="mergesort",
                          ignore_index=True)
        o["orders_to_date"] = o.groupby("key").cumcount() + 1
        o["spend_to_date"] = o.groupby("key")["price"].cumsum()
        o["order_ts_us"] = o["ts_us"]
        # merge_asof wants both frames globally sorted on the on-key;
        # a stable resort keeps equal-ts cumulative rows in increasing
        # order so "backward" picks the full count at that timestamp
        o = o.sort_values("ts_us", kind="mergesort", ignore_index=True)
        e = e.sort_values("ts_us", kind="mergesort", ignore_index=True)
        m = pd.merge_asof(
            e[["event_id", "key", "ts_us"]],
            o[["key", "ts_us", "order_ts_us", "orders_to_date",
               "spend_to_date"]],
            on="ts_us", by="key", direction="backward",
        ).dropna(subset=["orders_to_date"])
        return pd.DataFrame({
            "event_id": m["event_id"].astype("int64"),
            "user_id": m["key"].astype("int64"),
            "last_order_date": pd.to_datetime(
                m["order_ts_us"].astype("int64"), unit="us"
            ).dt.strftime("%Y-%m-%d %H:%M:%S"),
            "orders_to_date": m["orders_to_date"].astype("int64"),
            "spend_to_date": round_half_away(
                m["spend_to_date"].to_numpy(dtype=np.float64), 4),
        })

    # deliberate pandas body: pd.merge_asof IS the vectorized as-of
    # kernel (C-speed backward search per key); an Arrow reimplementation
    # would re-derive it row-by-row for no gain
    return (
        orders.union(events)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .map_batches(lambda b: b.drop_columns(["bucket"])
                     if "bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


# ------------------------------------------------------- rolling window

def user_rolling_avg(sf_dir: str):
    """Per-key rolling-window aggregate: the 3-event moving average of
    ``value`` per user in (ts, event_id) order — the distributed form
    of ``AVG(...) OVER (PARTITION BY user_id ORDER BY ts ROWS BETWEEN
    2 PRECEDING AND CURRENT ROW)``. Same bounded-bucket co-partition
    as :func:`sessionize`; the per-bucket rolling mean is one
    vectorized pandas kernel, never per-user Python."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        n = g.num_rows
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        val = g.column("value").to_numpy(zero_copy_only=False)
        starts = _run_starts(n, np.r_[True, uid[1:] != uid[:-1]])
        idx = np.arange(n)
        # oldest-first window sum, the SQL window fold order
        v2 = np.where(idx - 1 >= starts, np.roll(val, 1), 0.0)
        v3 = np.where(idx - 2 >= starts, np.roll(val, 2), 0.0)
        cnt = np.minimum(idx - starts, 2) + 1
        avg = (v3 + v2 + val) / cnt
        return pa.table({
            "event_id": pc.cast(g.column("event_id"), pa.int64()),
            "user_id": pa.array(uid.astype(np.int64)),
            "rolling_avg": pa.array(round_half_away(avg, 4)),
        })

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["bucket"])
                     if "bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


# ------------------------------------------------------------- range join

_ATTR_WINDOW_US = 24 * 3600 * 1_000_000  # 24-hour attribution window


def purchase_attribution(sf_dir: str):
    """Range join: each purchase event picks up the same user's events
    in the preceding 24 hours — ``e.ts ∈ [p.ts − 24h, p.ts)`` — the
    classic marketing-attribution window.

    The brief-listed "range join" custom operator (the as-of sibling is
    :func:`user_order_asof`). Ray Data has no join primitive with an
    interval predicate, so anchors (purchases) and candidates (all
    events) are tagged in ONE pass over the events table and
    hash-co-partitioned on the user key into bounded buckets (one
    shuffle, no broadcast), then each bucket does one C-speed pandas
    equi-merge on the key followed by a vectorized interval filter and
    a grouped count — never a per-row or per-entity Python loop.

    Partitioning assumption (same as the module header): one user's
    event history fits in a worker's heap; the transient merge frame
    per key is |purchases_u| x |events_u| before the interval cut.
    Inner semantics: purchases with no prior event in-window drop out.
    """
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(
        sf_dir, "events",
        columns=["user_id", "ts", "event_id", "event_type", "value"])

    def tag(b: pa.Table) -> pa.Table:
        key = b.column("user_id").to_numpy()
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        eid = b.column("event_id").to_numpy()
        val = b.column("value").to_numpy()
        is_p = pc.equal(b.column("event_type"),
                        pa.scalar("purchase")).to_numpy(
                            zero_copy_only=False)
        # side 1 = candidate rows (every event); side 0 = anchor copies
        # of the purchase rows only
        pk, pts, pid = key[is_p], ts[is_p], eid[is_p]
        n_c, n_a = len(key), len(pk)
        return pa.table({
            "bucket": pa.array(np.concatenate(
                [pk % n_buckets, key % n_buckets]).astype(np.int32)),
            "side": pa.array(np.concatenate(
                [np.zeros(n_a, dtype=np.int8),
                 np.ones(n_c, dtype=np.int8)])),
            "key": pa.array(np.concatenate([pk, key]).astype(np.int64)),
            "ts_us": pa.array(np.concatenate([pts, ts]).astype(np.int64)),
            "event_id": pa.array(np.concatenate(
                [pid, eid]).astype(np.int64)),
            "value": pa.array(np.concatenate(
                [np.zeros(n_a, dtype=np.float64), val]).astype(np.float64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        side = g.column("side")
        a = (g.filter(pc.equal(side, 0))
             .select(["key", "ts_us", "event_id"])
             .rename_columns(["key", "ts_us_a", "event_id"]))
        e = (g.filter(pc.equal(side, 1))
             .select(["key", "ts_us", "value"])
             .rename_columns(["key", "ts_us_e", "value"]))
        if not a.num_rows or not e.num_rows:
            return pa.table({
                "event_id": pa.array([], type=pa.int64()),
                "user_id": pa.array([], type=pa.int64()),
                "n_events_24h": pa.array([], type=pa.int64()),
                "sum_value_24h": pa.array([], type=pa.float64()),
            })
        m = a.join(e, keys="key", join_type="inner")
        ets = m.column("ts_us_e").to_numpy(zero_copy_only=False)
        ats = m.column("ts_us_a").to_numpy(zero_copy_only=False)
        m = m.filter(pa.array((ets < ats)
                              & (ets >= ats - _ATTR_WINDOW_US)))
        agg = (m.select(["event_id", "key", "value"])
               .group_by(["event_id", "key"])
               .aggregate([("value", "count"), ("value", "sum")]))
        out = pa.table({
            "event_id": agg.column("event_id"),
            "key": agg.column("key"),
            "n_events_24h": pc.cast(agg.column("value_count"),
                                    pa.int64()),
            "sum_value_24h": agg.column("value_sum"),
        })
        return pa.table({
            "event_id": pc.cast(out.column("event_id"), pa.int64()),
            "user_id": pc.cast(out.column("key"), pa.int64()),
            "n_events_24h": out.column("n_events_24h"),
            "sum_value_24h": pa.array(round_half_away(
                out.column("sum_value_24h").to_numpy(
                    zero_copy_only=False).astype(np.float64), 4)),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["bucket"])
                     if "bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


_FUNNEL = ("view", "click", "purchase")


def events_funnel(sf_dir: str):
    """Ordered conversion funnel view → click → purchase: a user reaches
    stage k iff a stage-k event occurs at or after their first
    stage-(k−1) reach time (min-chaining — the standard first-touch
    funnel).

    Scale shape: per-user chaining happens inside bounded user-buckets
    (vectorized conditional mins, one pandas pass per stage), each
    bucket emits ONE partial count row, and the driver only ever sees
    the per-bucket partials. Output is three rows: stage, users
    reaching it, conversion from the previous stage."""
    ds = scan(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket", pc.cast(pc.bit_wise_and(b["user_id"], 63),
                              pa.int32()))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        nu = g["user_id"].nunique()
        t = {}
        prev = None
        for stage in _FUNNEL:
            sub = g[g["event_type"] == stage]
            if prev is not None:
                sub = sub.merge(prev.rename("tprev"), left_on="user_id",
                                right_index=True)
                sub = sub[sub["ts"] >= sub["tprev"]]
            t[stage] = sub.groupby("user_id")["ts"].min()
            prev = t[stage]
        return pd.DataFrame({
            "n_users": pd.array([nu], dtype="int64"),
            **{f"n_{s}": pd.array([len(t[s])], dtype="int64")
               for s in _FUNNEL},
        })

    # deliberate pandas body: the staged funnel is a chain of per-stage
    # indexed min-joins over a 3-entry stage list — a pandas-native
    # kernel on a bucket-bounded group, emitting one row per bucket
    parts = (ds.map_batches(add_bucket, batch_format="pyarrow",
                            batch_size=65536)
             .groupby("bucket")
             .map_groups(per_bucket, batch_format="pandas")).to_pandas()
    tot = parts.sum()
    nu = int(tot["n_users"])
    ns = [int(tot[f"n_{s}"]) for s in _FUNNEL]
    prev_counts = [nu] + ns[:-1]
    conv = [round_half_away(n / p, 4) if p else 0.0
            for n, p in zip(ns, prev_counts)]
    return pa.table({
        "stage": pa.array(list(_FUNNEL), type=pa.string()),
        "n_users": pa.array(ns, type=pa.int64()),
        "conversion": pa.array(conv, type=pa.float64()),
    })


TRENDING_K = 3


def trending_items(sf_dir: str):
    """Per-hour trending items: top-%d ``props.k`` items by event count
    in each tumbling 1-hour window (ties break on item id) — the
    windowed group-wise top-k every streaming analytics stack ships.

    Combiner discipline: each batch pre-counts (window, item) cells
    with an Arrow group_by, windows co-locate via a bounded hash bucket
    of the window string, and the per-window rank runs vectorized in
    the bucket group — the shuffle moves one row per (block, window,
    item), never per event.""" % TRENDING_K
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["ts", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        win = pc.strftime(
            pc.cast(pc.floor_temporal(batch.column("ts"), unit="hour"),
                    pa.timestamp("s")),
            format="%Y-%m-%d %H:%M:%S")
        ext = pc.extract_regex(batch.column("props"),
                               pattern=r'"k":\s*(?P<k>\d+)')
        item = pc.cast(pc.struct_field(ext, "k"), pa.int64())
        g = pa.table({"window_start": win, "item": item}) \
            .group_by(["window_start", "item"]).aggregate([([], "count_all")])
        from ..functions.hashing import stable_hash64
        wins = g.column("window_start").to_pylist()
        wb = np.fromiter((stable_hash64(w) % n_buckets for w in wins),
                         dtype=np.int32, count=len(wins))
        return pa.table({
            "window_start": g.column("window_start"),
            "item": g.column("item"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "wb": pa.array(wb),
        })

    def topk(g: pa.Table) -> pa.Table:
        agg = (g.select(["window_start", "item", "n"])
               .group_by(["window_start", "item"])
               .aggregate([("n", "sum")])
               .rename_columns(["window_start", "item", "n"]))
        agg = agg.sort_by([("window_start", "ascending"),
                           ("n", "descending"),
                           ("item", "ascending")])
        ws = agg.column("window_start").to_numpy(
            zero_copy_only=False).astype(object)
        codes = np.unique(ws, return_inverse=True)[1]
        rank = grouped_cumcount(codes) + 1
        agg = agg.append_column("rank", pa.array(rank))
        agg = agg.filter(pa.array(rank <= TRENDING_K))
        return pa.table({
            "window_start": agg.column("window_start"),
            "item": pc.cast(agg.column("item"), pa.int64()),
            "n": pc.cast(agg.column("n"), pa.int64()),
            "rank": agg.column("rank"),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("wb").map_groups(topk, batch_format="pyarrow"))


def active_sessions_hourly(sf_dir: str):
    """INTERVAL → bucket RANGE JOIN: for every clock hour, how many
    sessions were active (session span intersects the hour). The
    sessions come from the same 30-min-gap machinery as ``sessionize``;
    each session then fans out one row per covered hour (vectorized
    ``np.repeat`` + offset arange — span-bounded, no per-session Python
    loop), pre-counts per (bucket, hour) inside the group, and the final
    fold is a groupby over the CALENDAR-BOUNDED hour key space — the
    same boundedness argument as ``cohort_retention``'s week matrix.
    This is the interval-overlap shape (concurrent-usage counting) that
    a generic engine needs a range join for; here the co-location is by
    user for sessionization and by hour for the count, one bounded
    exchange each."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    _HOUR_US = 3_600_000_000

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        n_rows = g.num_rows
        ts_us = _ts_us_col(g.column("ts"))
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        new_user = np.empty(n_rows, dtype=bool)
        new_user[0] = True
        np.not_equal(uid[1:], uid[:-1], out=new_user[1:])
        gap = np.empty(n_rows, dtype=bool)
        gap[0] = True
        gap[1:] = (ts_us[1:] - ts_us[:-1]) > _SESSION_GAP_US
        is_new = new_user | gap
        # session spans via sorted-run endpoints (ts is sorted per user)
        starts = ts_us[is_new]
        end_idx = np.append(np.where(is_new)[0][1:] - 1, n_rows - 1)
        ends = ts_us[end_idx]
        h0 = starts // _HOUR_US
        h1 = ends // _HOUR_US
        counts = (h1 - h0 + 1).astype(np.int64)
        base = np.repeat(h0, counts)
        step = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        hrs, cnt = np.unique(base + step, return_counts=True)
        return pa.table({
            "hour": pa.array(hrs.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def fold_hours(t: pa.Table) -> pa.Table:
        g = t.select(["hour", "n"]).group_by("hour").aggregate(
            [("n", "sum")])
        hr_us = g.column("hour").to_numpy() * _HOUR_US
        window_start = pd.to_datetime(hr_us, unit="us").strftime(
            "%Y-%m-%d %H:%M:%S")
        return pa.table({
            "window_start": pa.array(np.asarray(window_start)),
            "n_active": g.column("n_sum"),
        })

    def add_hour_bucket(b: pa.Table) -> pa.Table:
        h = b.column("hour").to_numpy()
        return b.append_column(
            "hb", pa.array((h % 64).astype(np.int32)))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(add_hour_bucket, batch_format="pyarrow")
        .groupby("hb")
        .map_groups(fold_hours, batch_format="pyarrow")
    )


_ROLLING_DAYS = 7


def rolling_active_users(sf_dir: str):
    """SLIDING-WINDOW DISTINCT: for each day, how many distinct users
    were active in the trailing 7 days — the DAU/WAU-style holistic
    rolling metric that no combiner can fold (distinct is not
    summable). The scale shape: (day, user) pairs co-locate ONCE in
    bounded user-hash buckets; inside a bucket each user's distinct
    active days fan out to the ≤7 target days they fall into
    (vectorized repeat/arange), are de-duplicated per (user, target) —
    still inside the bucket, since the user is fixed — and leave as
    per-(bucket, day) pre-counts. The final fold groups over the
    CALENDAR-BOUNDED day key space. Output days are exactly those with
    a nonempty trailing window, so no max-date clamp pass is needed."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts"])

    def day_user(b: pa.Table) -> pa.Table:
        # per-batch distinct (day, user) combiner
        day = _ts_us(b.column("ts").to_pandas()) // 86_400_000_000
        t = pa.table({
            "user_id": b.column("user_id"),
            "day": pa.array(day, type=pa.int64()),
        }).group_by(["user_id", "day"]).aggregate([])
        uid = t.column("user_id").to_numpy()
        return t.append_column(
            "bucket", pa.array((uid % n_buckets).astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        pairs = (g.select(["user_id", "day"])
                 .group_by(["user_id", "day"]).aggregate([]))
        pu = pairs.column("user_id").to_numpy(zero_copy_only=False)
        pd_ = pairs.column("day").to_numpy(zero_copy_only=False)
        uid = np.repeat(pu, _ROLLING_DAYS)
        tgt = np.repeat(pd_, _ROLLING_DAYS) + np.tile(
            np.arange(_ROLLING_DAYS, dtype=np.int64), len(pu))
        fan = np.unique(np.stack([uid, tgt], axis=1), axis=0)
        days, cnt = np.unique(fan[:, 1], return_counts=True)
        return pa.table({"day": pa.array(days.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    def fold_days(t: pa.Table) -> pa.Table:
        g = t.select(["day", "n"]).group_by("day").aggregate([("n", "sum")])
        day_s = pd.to_datetime(
            g.column("day").to_numpy() * 86_400, unit="s").strftime(
            "%Y-%m-%d")
        return pa.table({
            "day": pa.array(np.asarray(day_s)),
            "n_active_7d": g.column("n_sum"),
        })

    def add_day_bucket(b: pa.Table) -> pa.Table:
        d = b.column("day").to_numpy()
        return b.append_column(
            "db", pa.array((d % 64).astype(np.int32)))

    return (
        ds.map_batches(day_user, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(add_day_bucket, batch_format="pyarrow")
        .groupby("db")
        .map_groups(fold_days, batch_format="pyarrow")
    )


# --------------------------------------------------- session-level rollup

def session_duration_stats(sf_dir: str):
    """Session-LENGTH distribution — the rollup OVER the sessionize
    output: sessions grouped by whole-minute duration (capped at 240 so
    the key space is bounded even with pathological always-on users),
    with session count and mean events per session. Composition shape:
    the sessionize exchange already happened; this adds only per-batch
    cell combiners plus one ≤241-key fold. Durations compare in exact
    integer seconds (both engines truncate session bounds to seconds),
    so bucket membership can't flip on a float boundary."""
    sessions = sessionize(sf_dir)

    def cells(b: pa.Table) -> pa.Table:
        start = pd.to_datetime(
            b.column("session_start").to_pylist()).asi8 // 1_000_000_000
        end = pd.to_datetime(
            b.column("session_end").to_pylist()).asi8 // 1_000_000_000
        dur_min = np.minimum((end - start) // 60, 240).astype(np.int64)
        return pa.table({
            "duration_min": pa.array(dur_min, type=pa.int64()),
            "n_sessions": pa.array(np.ones(len(dur_min), dtype=np.int64)),
            "events": b.column("n_events"),
        })

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_sessions").to_numpy()
        ev = b.column("events").to_numpy()
        return pa.table({
            "duration_min": b.column("duration_min"),
            "n_sessions": b.column("n_sessions"),
            "avg_events": pa.array(round_half_away(
                ev / n, 4), type=pa.float64()),
        })

    return combine(sessions, "duration_min", {
        "n_sessions": ("n_sessions", "sum"), "events": ("events", "sum"),
    }, cells).map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------- Markov transition matrix

_POW10 = np.array([10 ** k for k in range(1, 19)], dtype=np.int64)


def interarrival_histogram(sf_dir: str):
    """Inter-arrival-time distribution of each user's event stream:
    consecutive same-user event gaps, floored to whole seconds and
    bucketed by DECIMAL DIGIT COUNT (1 = under 10 s, 2 = under 100 s,
    …) — the burstiness profile behind session-gap and rate-limit
    tuning.

    Scale shape: the :func:`markov_transitions` discipline — one
    bounded user-bucket exchange orders each user's events
    (deterministic (ts, event_id) tiebreak), gaps diff vectorized
    inside the bucket and pre-count to ≤19 digit cells, and the final
    fold sums a ≤19-key space. Digit bucketing is an integer
    ``searchsorted`` against powers of ten (never float log10, whose
    boundary error at exact powers would disagree with the oracle's
    string length)."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def gap_counts(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        n = g.num_rows
        us = _ts_us_col(g.column("ts"))
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        same = np.empty(n, dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        delta_s = (np.roll(us, -1) - us)[same] // 1_000_000
        digits = (np.searchsorted(_POW10, delta_s, side="right")
                  + 1).astype(np.int64)
        d, cnt = np.unique(digits, return_counts=True)
        return pa.table({
            "digits": pa.array(d),
            "n_pairs": pa.array(cnt.astype(np.int64)),
        })

    return fold(
        ds.map_batches(add_bucket, batch_format="pyarrow",
                       batch_size=65536)
        .groupby("bucket")
        .map_groups(gap_counts, batch_format="pyarrow"),
        "digits", {"n_pairs": ("n_pairs", "sum")})


def events_late_arrival_stats(sf_dir: str):
    """Out-of-order arrival census per user stream — the data-quality
    probe a streaming pipeline runs before choosing watermark slack:
    in each user's ARRIVAL order (event_id), how many adjacent steps go
    backwards in event time, and the worst regression in seconds.

    Same bounded user-bucket exchange as :func:`interarrival_histogram`
    — streams order in-bucket by (user, event_id), the ts diff is
    vectorized, and each bucket collapses to ONE (pairs, inversions,
    max-regression) row before the final bounded fold to a single
    corpus row. Regressions compare in exact integer microseconds."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"),
                       ("event_id", "ascending")])
        n = g.num_rows
        us = _ts_us_col(g.column("ts"))
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        same = np.empty(n, dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        delta = (np.roll(us, -1) - us)[same]
        inv = delta < 0
        worst_us = int(-delta[inv].min()) if inv.any() else 0
        return pa.table({
            "n_pairs": pa.array([int(same.sum())], type=pa.int64()),
            "n_inversions": pa.array([int(inv.sum())],
                                     type=pa.int64()),
            "worst_regression_s": pa.array([worst_us // 1_000_000],
                                           type=pa.int64()),
        })

    from ray.data.aggregate import Max, Sum

    folded = (
        ds.map_batches(add_bucket, batch_format="pyarrow",
                       batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .aggregate(Sum("n_pairs", alias_name="n_pairs"),
                   Sum("n_inversions", alias_name="n_inversions"),
                   Max("worst_regression_s",
                       alias_name="worst_regression_s"))
    )
    return pa.table({
        "n_pairs": pa.array([int(folded["n_pairs"] or 0)],
                            type=pa.int64()),
        "n_inversions": pa.array([int(folded["n_inversions"] or 0)],
                                 type=pa.int64()),
        "worst_regression_s": pa.array(
            [int(folded["worst_regression_s"] or 0)], type=pa.int64()),
    })


def _pair_partials(sf_dir: str):
    """Per-bucket (event_type, next_type, cnt) adjacent-event counts:
    one bounded user-bucket exchange orders each user's events
    (deterministic (ts, event_id) tiebreak) and each bucket pre-counts
    its pairs, so at most |types|² rows per bucket leave it."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events",
              columns=["user_id", "ts", "event_id",
                       "event_type"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def pair_counts(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        n = g.num_rows
        cur = g.column("event_type").to_numpy(
            zero_copy_only=False).astype(object)
        nxt = np.roll(cur, -1)
        same_user = np.empty(n, dtype=bool)
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        same_user[:-1] = uid[1:] == uid[:-1]
        same_user[-1] = False
        return group_agg(pa.table({
            "event_type": pa.array(cur[same_user], type=pa.string()),
            "next_type": pa.array(nxt[same_user], type=pa.string()),
        }), ["event_type", "next_type"], {"cnt": ("next_type", "count")})

    return (ds.map_batches(add_bucket, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("bucket")
            .map_groups(pair_counts, batch_format="pyarrow"))


def markov_transitions(sf_dir: str):
    """First-order Markov transition matrix over each user's event
    stream: for every (event_type → next event_type) pair, the count
    and the conditional probability P(next | current). The classic
    click-path model behind "users who view then add-to-cart convert
    at p" product analytics; the reference has no sequence operator —
    this extends the brief's windowed-aggregate family.

    Scale shape: one bounded user-bucket exchange (same discipline as
    :func:`sessionize`) orders each user's events; adjacent pairs fold
    to per-bucket counts inside the group (vectorized shift + pandas
    groupby), so the second exchange moves at most |types|² rows per
    bucket. The final fold groups by the BOUNDED current-type key and
    computes the row-conditional probabilities inside the group —
    nothing corpus-sized leaves the stream."""
    def row_probs(g: pa.Table) -> pa.Table:
        out = (g.select(["event_type", "next_type", "cnt"])
               .group_by(["event_type", "next_type"])
               .aggregate([("cnt", "sum")])
               .rename_columns(["event_type", "next_type", "cnt"]))
        cnt = pc.cast(out.column("cnt"), pa.int64())
        tot = int(pc.sum(cnt).as_py() or 0)
        return pa.table({
            "event_type": out.column("event_type"),
            "next_type": out.column("next_type"),
            "cnt": cnt,
            "prob": pa.array(round_half_away(
                cnt.to_numpy(zero_copy_only=False) / float(tot), 6)),
        })

    return (_pair_partials(sf_dir).groupby("event_type")
            .map_groups(row_probs, batch_format="pyarrow"))


def _hourly_counts(ds, keys: list):
    """Events per (``keys``…, epoch hour ``hr``) cell, as ``c``."""
    def cells(b: pa.Table) -> pa.Table:
        hrs = (b.column("ts").to_numpy().astype("datetime64[h]")
               .astype(np.int64))
        return pa.table({
            **{k: b.column(k) for k in keys},
            "hr": pa.array(hrs),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    return combine(ds, keys + ["hr"], {"c": ("c", "sum")}, cells)


def events_burstiness(sf_dir: str):
    """Fano factor (index of dispersion, var/mean of hourly arrival
    counts over the FULL observation window — empty hours count) per
    event type: ≈1 is Poisson traffic, ≫1 is bursty, ≪1 is paced —
    the load-model census behind capacity planning and anomaly
    baselines.

    Exact by construction: hourly counts fold to integers over the
    calendar-bounded (type, hour) key space, the window length H is
    an integer hour difference, and the Fano closed form
    ``(H·Σc² − (Σc)²)/(H·Σc)`` divides exact integer moments once —
    Σc² over empty hours contributes zero, so only occupied hours
    ever ship. Population variance, matching the oracle's identical
    HUGEINT expression."""
    from ray.data.aggregate import Max, Min

    ds = scan(sf_dir, "events", columns=["event_type", "ts"])

    span = ds.map_batches(
        lambda b: pa.table({"hr": pa.array(
            b.column("ts").to_numpy().astype("datetime64[h]")
            .astype(np.int64))}),
        batch_format="pyarrow", batch_size=65536) \
        .aggregate(Min("hr"), Max("hr"))
    H = int(span["max(hr)"]) - int(span["min(hr)"]) + 1

    hourly = _hourly_counts(ds, ["event_type"])

    def moment_partial(b: pa.Table) -> pa.Table:
        c = b.column("c").to_numpy()
        return group_agg(pa.table({
            "event_type": b.column("event_type"),
            "sc": b.column("c"),
            "scc": pa.array(c * c),
        }), "event_type", {"sc": ("sc", "sum"), "scc": ("scc", "sum")})

    def finish(g: pa.Table) -> pa.Table:
        f = (g.group_by("event_type")
             .aggregate([("sc", "sum"), ("scc", "sum")]))
        f = f.rename_columns(["event_type", "sc", "scc"])
        sc = f.column("sc").to_pylist()
        scc = f.column("scc").to_pylist()
        fano = [round_half_away(
            np.array([float(H * q - s * s) / float(H * s)]), 4)[0]
            for s, q in zip(sc, scc)]
        return pa.table({
            "event_type": f.column("event_type"),
            "n_events": f.column("sc"),
            "n_hours": pa.array([H] * f.num_rows, type=pa.int64()),
            "fano": pa.array(fano, type=pa.float64()),
        })

    return (hourly.map_batches(moment_partial, batch_format="pyarrow")
            .groupby("event_type")
            .map_groups(finish, batch_format="pyarrow"))


def events_changepoint(sf_dir: str):
    """Single changepoint detection over the global hourly event-count
    series — one step of binary segmentation (Scott & Knott 1974, the
    classic CUSUM-style mean-shift scan): the split hour maximizing
    the between-segment sum of squares n₁n₂/n·(m₁−m₂)², over the FULL
    observation window (empty hours count as zero load). The
    did-traffic-shift? monitor a pipeline runs before trusting a drift
    alarm.

    Exactness: hourly counts and their prefix sums are exact integers
    over a calendar-bounded series, so the only floats are the final
    per-split score expression — identical, term-for-term, to the
    oracle's — and the argmax tiebreak is the hour itself. The hourly
    census folds distributed (one cell per (hour) per block); the
    series walk is driver-side on ≤|hours| rows — the documented
    calendar-bounded-matrix pattern."""
    ds = scan(sf_dir, "events", columns=["ts"])
    hourly = _hourly_counts(ds, []).sort("hr").take_all()
    hr = np.array([r["hr"] for r in hourly], dtype=np.int64)
    c = np.array([r["c"] for r in hourly], dtype=np.int64)
    lo, hi = int(hr[0]), int(hr[-1])
    full = np.zeros(hi - lo + 1, dtype=np.int64)
    full[hr - lo] = c
    n = len(full)
    s = int(full.sum())
    s1 = np.cumsum(full)[:-1]                 # prefix sums, splits 1..n-1
    n1 = np.arange(1, n, dtype=np.int64)
    dm = s1 / n1 - (s - s1) / (n - n1)
    score = ((n1.astype(np.float64) * (n - n1)) / n) * dm ** 2
    best = int(np.lexsort((n1, -score))[0])
    return pa.table({
        "split_hr": pa.array([lo + int(n1[best]) - 1], type=pa.int64()),
        "n_before": pa.array([int(n1[best])], type=pa.int64()),
        "events_before": pa.array([int(s1[best])], type=pa.int64()),
        "mean_before": pa.array(
            [round_half_away(np.array([s1[best] / n1[best]]), 4)[0]],
            type=pa.float64()),
        "mean_after": pa.array(
            [round_half_away(
                np.array([(s - s1[best]) / (n - n1[best])]), 4)[0]],
            type=pa.float64()),
        "score": pa.array(
            [round_half_away(np.array([score[best]]), 4)[0]],
            type=pa.float64()),
    })


def kaplan_meier_reorder(sf_dir: str):
    """KAPLAN–MEIER survival curve of time-to-second-order (Kaplan &
    Meier 1958) — the right-censoring-aware answer to "how long until
    a customer comes back?" that a naive average of repeat gaps gets
    wrong (it silently drops everyone who hasn't reordered YET).
    One-order customers are censored at the end of observation; the
    curve is S(t) = Π_{tᵢ≤t} (1 − dᵢ/nᵢ) over event times, one row
    per distinct reorder-gap day with the risk set and event count.

    Exactness: per-customer first/second order dates reduce in
    bounded custkey-hash buckets; durations fold to a calendar-bounded
    (days, is_event) histogram — the ONLY driver-side hold — where
    risk sets and event counts are exact integers and the survival
    product multiplies the same IEEE factors in the same (time) order
    as the oracle's windowed ``product()``."""
    n_buckets = _bucket_count(sf_dir, ("orders",))
    ds = scan(sf_dir, "orders",
              columns=["o_custkey", "o_orderdate",
                       "o_orderkey"])

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column("bucket", pa.array(
            (b.column("o_custkey").to_numpy() % n_buckets)
            .astype(np.int32)))

    def first_two(g: pa.Table) -> pa.Table:
        g = g.sort_by([("o_custkey", "ascending"),
                       ("o_orderdate", "ascending"),
                       ("o_orderkey", "ascending")])
        cust = g.column("o_custkey").to_numpy(zero_copy_only=False)
        day = (g.column("o_orderdate")
               .to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        rank = grouped_cumcount(cust)
        keep = rank < 2
        cust, day, rank = cust[keep], day[keep], rank[keep]
        first = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
        ends = np.r_[first[1:], len(cust)]
        return pa.table({
            "t1_day": pa.array(day[first]),
            "t2_day": pa.array(day[ends - 1]),
            "ev": pa.array((ends - first >= 2).astype(np.int64)),
        })

    firsts = (ds.map_batches(add_bucket, batch_format="pyarrow",
                             batch_size=65536)
              .groupby("bucket")
              .map_groups(first_two, batch_format="pyarrow")
              .materialize())
    # censor at the end of observation = the global max ORDER date
    # (which may belong to a 3rd+ order, so it comes from the raw scan)
    from ray.data.aggregate import Max
    max_day = int(np.datetime64(
        ds.aggregate(Max("o_orderdate"))["max(o_orderdate)"], "D")
        .astype(np.int64))

    def dur_cells(b: pa.Table) -> pa.Table:
        t1 = b.column("t1_day").to_numpy()
        t2 = b.column("t2_day").to_numpy()
        ev = b.column("ev").to_numpy()
        t = np.where(ev == 1, t2 - t1, max_day - t1)
        return pa.table({
            "t": pa.array(t.astype(np.int64)),
            "d_i": pa.array(ev.astype(np.int64)),
            "all_at_t": pa.array(np.ones(len(t), dtype=np.int64)),
        })

    hist = combine(firsts, "t", {
        "d_i": ("d_i", "sum"), "all_at_t": ("all_at_t", "sum"),
    }, dur_cells).sort("t").take_all()
    t = np.array([r["t"] for r in hist], dtype=np.int64)
    d = np.array([r["d_i"] for r in hist], dtype=np.int64)
    a = np.array([r["all_at_t"] for r in hist], dtype=np.int64)
    total = int(a.sum())
    n_risk = total - np.concatenate([[0], np.cumsum(a)[:-1]])
    mask = d > 0
    surv = np.cumprod(1 - d[mask] * 1.0 / n_risk[mask])
    return pa.table({
        "t_days": pa.array(t[mask]),
        "n_risk": pa.array(n_risk[mask]),
        "n_events": pa.array(d[mask]),
        "survival": pa.array(round_half_away(surv, 6),
                             type=pa.float64()),
    })


_AB_Z_CRIT = 1.96  # two-sided 95%


_CONV_MAX = {"conv": ("conv", "max")}


def _user_day_conversions(n_buckets: int):
    """Batch partial of the user-day A/B tests: one (u, day, converted)
    row per user-day in the batch, tagged with its user bucket ``ub``."""
    def partial(b: pa.Table) -> pa.Table:
        day = (b.column("ts").to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        g = group_agg(pa.table({
            "u": b.column("user_id"),
            "day": pa.array(day),
            "conv": pc.cast(pc.equal(b.column("event_type"), "purchase"),
                            pa.int64()),
        }), ["u", "day"], _CONV_MAX)
        return g.append_column("ub", pa.array(
            (g.column("u").to_numpy() % n_buckets).astype(np.int32)))

    return partial


def ab_conversion_ztest(sf_dir: str):
    """Two-proportion z-test between A/B arms — the experimentation
    readout every event pipeline ends in. The experiment unit is the
    USER-DAY (this corpus has few users but years of traffic, so the
    user alone is degenerate — every user eventually converts);
    assignment is the parity of user_id + day (the deterministic
    hash-assignment stand-in), conversion = at least one ``purchase``
    that day, and the readout is the pooled two-proportion
    z-statistic with the |z| > 1.96 significance call. The arms are
    exchangeable by construction, so the honest answer is "not
    significant" — the op is the harness, the data is the null.

    Exactness: per-(user, day) conversion flags dedupe in bounded
    user-hash buckets (a user's events never straddle buckets), each
    bucket emits one (arm, n, conv) partial, and the z expression —
    identical term-for-term to the oracle's — touches floats only in
    the final single-row fold."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    user_partial = _user_day_conversions(n_buckets)

    def bucket_fold(g: pa.Table) -> pa.Table:
        f = group_agg(g, ["u", "day"], _CONV_MAX)
        u = f.column("u").to_numpy()
        day = f.column("day").to_numpy()
        conv = f.column("conv").to_numpy()
        arm = ((u + day) % 2).astype(np.int64)
        return group_agg(pa.table({
            "arm": pa.array(arm),
            "n": pa.array(np.ones(len(u), dtype=np.int64)),
            "conv": pa.array(conv.astype(np.int64)),
        }), "arm", {"n": ("n", "sum"), "conv": ("conv", "sum")})

    parts = (ds.map_batches(user_partial, batch_format="pyarrow",
                            batch_size=65536)
             .groupby("ub").map_groups(bucket_fold,
                                       batch_format="pyarrow")
             .take_all())   # ≤ 2×buckets tiny partial rows
    agg = {0: [0, 0], 1: [0, 0]}
    for r in parts:
        agg[int(r["arm"])][0] += int(r["n"])
        agg[int(r["arm"])][1] += int(r["conv"])
    na, ca = agg[0]
    nb, cb = agg[1]
    ra, rb = ca * 1.0 / na, cb * 1.0 / nb
    pp = (ca + cb) * 1.0 / (na + nb)
    z = (ra - rb) / np.sqrt(pp * (1 - pp) * (1.0 / na + 1.0 / nb))
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "conv_a": pa.array([ca], type=pa.int64()),
        "conv_b": pa.array([cb], type=pa.int64()),
        "rate_a": pa.array(round_half_away(np.array([ra]), 4),
                           type=pa.float64()),
        "rate_b": pa.array(round_half_away(np.array([rb]), 4),
                           type=pa.float64()),
        "z": pa.array(round_half_away(np.array([z]), 4),
                      type=pa.float64()),
        "significant": pa.array([int(abs(z) > _AB_Z_CRIT)],
                                type=pa.int64()),
    })


def purchase_did(sf_dir: str):
    """Difference-in-differences readout over the user-day A/B units
    of [[ab-conversion-ztest]] — the causal-inference workhorse for
    launches without a clean holdout: Δ = (treated_after −
    treated_before) − (control_after − control_before), with the
    "launch" at the ¾ point of the observed day range. Arms are the
    same deterministic (user+day) parity, so the true effect is zero
    by construction — the harness is the deliverable and the honest
    answer is ≈0.

    Exactness: per-(user, day) conversion flags dedupe in bounded
    user-hash buckets; each bucket emits ≤4 (arm, period, n, conv)
    int64 cells; the four rates and Δ touch floats only in the final
    single-row fold, term-identical to the oracle."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    from ray.data.aggregate import Max, Min

    span = ds.select_columns(["ts"]).map_batches(
        lambda b: pa.table({"day": pa.array(
            b.column("ts").to_numpy().astype("datetime64[D]")
            .astype(np.int64))}),
        batch_format="pyarrow", batch_size=65536) \
        .aggregate(Min("day"), Max("day"))
    d0, d1 = int(span["min(day)"]), int(span["max(day)"])
    split_day = d0 + (d1 - d0) * 3 // 4

    user_partial = _user_day_conversions(n_buckets)

    def bucket_fold(g: pa.Table) -> pa.Table:
        f = group_agg(g, ["u", "day"], _CONV_MAX)
        u = f.column("u").to_numpy()
        day = f.column("day").to_numpy()
        conv = f.column("conv").to_numpy()
        return group_agg(pa.table({
            "arm": pa.array(((u + day) % 2).astype(np.int64)),
            "per": pa.array((day >= split_day).astype(np.int64)),
            "n": pa.array(np.ones(len(u), dtype=np.int64)),
            "conv": pa.array(conv.astype(np.int64)),
        }), ["arm", "per"], {"n": ("n", "sum"), "conv": ("conv", "sum")})

    parts = (ds.map_batches(user_partial, batch_format="pyarrow",
                            batch_size=65536)
             .groupby("ub").map_groups(bucket_fold,
                                       batch_format="pyarrow")
             .take_all())
    cell = {(a, p): [0, 0] for a in (0, 1) for p in (0, 1)}
    for r in parts:
        c = cell[(int(r["arm"]), int(r["per"]))]
        c[0] += int(r["n"])
        c[1] += int(r["conv"])
    rate = {k: (v[1] * 1.0 / v[0] if v[0] else 0.0)
            for k, v in cell.items()}
    did = (((rate[(1, 1)] - rate[(1, 0)])
            - (rate[(0, 1)] - rate[(0, 0)]))
           if all(v[0] for v in cell.values()) else 0.0)
    return pa.table({
        "n_c_pre": pa.array([cell[(0, 0)][0]], type=pa.int64()),
        "conv_c_pre": pa.array([cell[(0, 0)][1]], type=pa.int64()),
        "n_c_post": pa.array([cell[(0, 1)][0]], type=pa.int64()),
        "conv_c_post": pa.array([cell[(0, 1)][1]], type=pa.int64()),
        "n_t_pre": pa.array([cell[(1, 0)][0]], type=pa.int64()),
        "conv_t_pre": pa.array([cell[(1, 0)][1]], type=pa.int64()),
        "n_t_post": pa.array([cell[(1, 1)][0]], type=pa.int64()),
        "conv_t_post": pa.array([cell[(1, 1)][1]], type=pa.int64()),
        "did": pa.array([round_half_away(did, 6)], type=pa.float64()),
    })


_DID_SQL = """
WITH ud AS (
  SELECT user_id AS u,
         epoch_us(ts) // 86400000000 AS day,
         MAX(CASE WHEN event_type = 'purchase'
             THEN 1 ELSE 0 END) AS conv
  FROM events GROUP BY u, day
), m AS (
  SELECT MIN(epoch_us(ts) // 86400000000) AS d0,
         MAX(epoch_us(ts) // 86400000000) AS d1
  FROM events
), s AS (SELECT d0 + (d1 - d0) * 3 // 4 AS sd FROM m),
cells AS (
  SELECT (u + day) % 2 AS arm,
         CASE WHEN day >= s.sd THEN 1 ELSE 0 END AS per,
         COUNT(*) AS n, SUM(conv) AS c
  FROM ud CROSS JOIN s GROUP BY 1, 2
), w AS (
  SELECT
    CAST(COALESCE(SUM(CASE WHEN arm=0 AND per=0 THEN n END), 0)
        AS BIGINT) AS n_c_pre,
    CAST(COALESCE(SUM(CASE WHEN arm=0 AND per=0 THEN c END), 0)
        AS BIGINT) AS conv_c_pre,
    CAST(COALESCE(SUM(CASE WHEN arm=0 AND per=1 THEN n END), 0)
        AS BIGINT) AS n_c_post,
    CAST(COALESCE(SUM(CASE WHEN arm=0 AND per=1 THEN c END), 0)
        AS BIGINT) AS conv_c_post,
    CAST(COALESCE(SUM(CASE WHEN arm=1 AND per=0 THEN n END), 0)
        AS BIGINT) AS n_t_pre,
    CAST(COALESCE(SUM(CASE WHEN arm=1 AND per=0 THEN c END), 0)
        AS BIGINT) AS conv_t_pre,
    CAST(COALESCE(SUM(CASE WHEN arm=1 AND per=1 THEN n END), 0)
        AS BIGINT) AS n_t_post,
    CAST(COALESCE(SUM(CASE WHEN arm=1 AND per=1 THEN c END), 0)
        AS BIGINT) AS conv_t_post
  FROM cells
)
SELECT *,
       CASE WHEN n_c_pre = 0 OR n_c_post = 0
                 OR n_t_pre = 0 OR n_t_post = 0 THEN 0.0
            ELSE ROUND((conv_t_post * 1.0 / n_t_post
                        - conv_t_pre * 1.0 / n_t_pre)
                       - (conv_c_post * 1.0 / n_c_post
                          - conv_c_pre * 1.0 / n_c_pre), 6)
       END AS did
FROM w
"""


def ab_cuped(sf_dir: str):
    """CUPED variance reduction (Deng et al. 2013, "Improving the
    sensitivity of online controlled experiments") over the user-day
    A/B units of :func:`ab_conversion_ztest`: metric y = that day's
    purchase count, covariate x = the SAME user's previous-day event
    count (0 if idle), θ = cov(x,y)/var(x) fitted pooled, and the
    readout is the raw vs CUPED-adjusted arm difference plus the
    variance reduction corr(x,y)² the adjustment buys. The
    pre-experiment-covariate trick every experimentation platform
    runs; on exchangeable arms the adjusted difference stays null —
    the harness is the deliverable.

    Exactness: per-(user, day) counts and the day−1 covariate join
    co-locate in user-hash buckets (a user's days never straddle
    buckets); each bucket folds to per-arm int64 moment rows; θ is an
    exact integer ratio divided once, and every later float mirrors
    the oracle term-for-term."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    ev_sums = {"n_ev": ("n_ev", "sum"), "n_pur": ("n_pur", "sum")}

    def day_partial(b: pa.Table) -> pa.Table:
        day = (b.column("ts").to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        purch = pc.cast(pc.equal(b.column("event_type"), "purchase"),
                        pa.int64())
        g = group_agg(pa.table({
            "u": b.column("user_id"),
            "day": pa.array(day),
            "n_ev": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_pur": purch,
        }), ["u", "day"], ev_sums)
        return g.append_column("ub", pa.array(
            (g.column("u").to_numpy() % n_buckets).astype(np.int32)))

    _C = ("n", "sx", "sy", "sxx", "sxy", "syy")

    def bucket_moments(g: pa.Table) -> pa.Table:
        df = group_agg(g, ["u", "day"], ev_sums).to_pandas()
        prev = df[["u", "day", "n_ev"]].copy()
        prev["day"] += 1
        m = df.merge(prev.rename(columns={"n_ev": "x"}),
                     on=["u", "day"], how="left")
        x = m["x"].fillna(0).to_numpy(dtype=np.int64)
        y = m["n_pur"].to_numpy(dtype=np.int64)
        arm = ((m["u"].to_numpy() + m["day"].to_numpy()) % 2
               ).astype(np.int64)
        rows = []
        for a in (0, 1):
            sel = arm == a
            xs, ys = x[sel], y[sel]
            rows.append([a, int(sel.sum()), int(xs.sum()),
                         int(ys.sum()), int((xs * xs).sum()),
                         int((xs * ys).sum()), int((ys * ys).sum())])
        arr = np.array(rows, dtype=np.int64)
        return pa.table({"arm": pa.array(arr[:, 0]),
                         **{k: pa.array(arr[:, i + 1])
                            for i, k in enumerate(_C)}})

    parts = (ds.map_batches(day_partial, batch_format="pyarrow",
                            batch_size=65536)
             .groupby("ub").map_groups(bucket_moments,
                                       batch_format="pyarrow")
             .take_all())
    m = {0: {k: 0 for k in _C}, 1: {k: 0 for k in _C}}
    for r in parts:
        for k in _C:
            m[int(r["arm"])][k] += int(r[k])
    n = m[0]["n"] + m[1]["n"]
    sx = m[0]["sx"] + m[1]["sx"]
    sy = m[0]["sy"] + m[1]["sy"]
    sxx = m[0]["sxx"] + m[1]["sxx"]
    sxy = m[0]["sxy"] + m[1]["sxy"]
    syy = m[0]["syy"] + m[1]["syy"]
    num = n * sxy - sx * sy
    denx = n * sxx - sx * sx
    deny = n * syy - sy * sy
    theta = float(num) / float(denx)
    corr = float(num) / np.sqrt(float(denx) * float(deny))
    raw = (m[0]["sy"] * 1.0 / m[0]["n"]
           - m[1]["sy"] * 1.0 / m[1]["n"])
    cuped = raw - theta * (m[0]["sx"] * 1.0 / m[0]["n"]
                           - m[1]["sx"] * 1.0 / m[1]["n"])
    return pa.table({
        "n_units": pa.array([n], type=pa.int64()),
        "theta": pa.array(round_half_away(np.array([theta]), 6),
                          type=pa.float64()),
        "raw_diff": pa.array(round_half_away(np.array([raw]), 6),
                             type=pa.float64()),
        "cuped_diff": pa.array(round_half_away(np.array([cuped]), 6),
                               type=pa.float64()),
        "var_reduction_pct": pa.array(
            round_half_away(np.array([corr * corr * 100]), 4),
            type=pa.float64()),
    })


def _pair_matrix(sf_dir: str) -> list[dict]:
    """Driver-side (event_type, next_type, cnt) transition matrix —
    the |types|²-bounded fold shared by :func:`markov_stationary` and
    :func:`next_event_entropy`; same two-exchange shape as
    :func:`markov_transitions` (ordering in bounded user buckets,
    pair counts pre-summed in-group)."""
    return fold(_pair_partials(sf_dir), ["event_type", "next_type"],
                {"cnt": ("cnt", "sum")}).take_all()


MARKOV_ITERS = 3
MARKOV_MASS = 1_000_000


def markov_stationary(sf_dir: str, iters: int = MARKOV_ITERS):
    """Stationary distribution of the event-type Markov chain —
    where does a long click-path session spend its time? — by
    fixed-round INTEGER power iteration over the transition matrix
    (the pagerank_mass discipline on the behaviour chain): mass
    m₊(j) = Σᵢ ⌊mᵢ·n(i,j)/nᵢ⌋ with dangling types simply losing
    mass, so every round is bit-exact on any cluster and the DuckDB
    oracle replays the whole recurrence as an unrolled CTE chain.

    Scale shape: the transition fold is the distributed part (two
    bounded exchanges); the matrix is |types|²-bounded driver state
    and the iteration is exact integer arithmetic on it."""
    rows = _pair_matrix(sf_dir)
    types = sorted({r["event_type"] for r in rows}
                   | {r["next_type"] for r in rows})
    tidx = {t: i for i, t in enumerate(types)}
    n = np.zeros((len(types), len(types)), dtype=np.int64)
    for r in rows:
        n[tidx[r["event_type"]], tidx[r["next_type"]]] = r["cnt"]
    ni = n.sum(axis=1)
    m = np.full(len(types), MARKOV_MASS, dtype=np.int64)
    for _ in range(iters):
        nm = np.zeros(len(types), dtype=np.int64)
        for i in range(len(types)):
            if ni[i] > 0:
                nm += (int(m[i]) * n[i]) // int(ni[i])
        m = nm
    tot = int(m.sum())
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "mass": pa.array(m),
        "share": pa.array(
            [round_half_away(float(v) / float(tot), 6) for v in m],
            type=pa.float64()),
    })


def next_event_entropy(sf_dir: str):
    """Conditional entropy H(next event | current event) of the
    click-path chain in nats, with its perplexity — the one-number
    predictability gauge over [[markov-transitions]]: H→0 means the
    stream is a deterministic funnel, H→ln|types| means anarchy.

    Exact by the DSIR quantized-log discipline: every conditional
    log-prob quantizes as floor(1000·ln(n_ij/n_i)) via libm, the
    numerator Σ n_ij·L_ij is an exact integer, and ONE float division
    (plus one exp for the perplexity) mirrors the oracle term for
    term."""
    import math

    rows = _pair_matrix(sf_dir)
    ni: dict[str, int] = {}
    for r in rows:
        ni[r["event_type"]] = ni.get(r["event_type"], 0) + int(r["cnt"])
    num = 0
    n_total = 0
    for r in rows:
        c = int(r["cnt"])
        n_total += c
        num += c * math.floor(
            1000.0 * math.log(c / ni[r["event_type"]]))
    h = -float(num) / (1000.0 * n_total)
    return pa.table({
        "n_transitions": pa.array([n_total], type=pa.int64()),
        "entropy_nats": pa.array([round_half_away(h, 6)],
                                 type=pa.float64()),
        "perplexity": pa.array([round_half_away(math.exp(h), 4)],
                               type=pa.float64()),
    })


PATH_TOPK = 25
_SESSION_GAP_US = 1_800_000_000   # 30 min, the sessionize rule


def session_path_topk(sf_dir: str):
    """Top-25 within-session event-type TRIGRAM paths — the
    click-path mining readout ("view>view>purchase") product
    analytics builds its funnel hypotheses from, over the same 30-min
    session rule as [[sessionize]]. The sequence-mining complement to
    [[markov-transitions]]' first-order matrix: trigrams expose the
    second-order structure a Markov chain flattens.

    Scale shape: each user's stream orders inside ONE bounded
    user-hash bucket (sessions never straddle buckets); trigram
    counting is vectorized shifts + a per-bucket pre-count, so the
    path fold moves at most |types|³ rows per bucket; the top-k is a
    distributed sort-limit on the bounded path key space. Exact
    integer counts; deterministic (n DESC, path) order."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events",
              columns=["user_id", "ts", "event_id",
                       "event_type"])

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def tri_counts(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        n = g.num_rows
        us = _ts_us_col(g.column("ts"))
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        new = np.ones(n, dtype=np.int64)
        if n > 1:
            same = uid[1:] == uid[:-1]
            new[1:] = (~same
                       | (us[1:] - us[:-1] > _SESSION_GAP_US)) \
                .astype(np.int64)
        sid = np.cumsum(new)
        t = g.column("event_type").to_numpy(
            zero_copy_only=False).astype(object)
        ok = np.zeros(n, dtype=bool)
        if n > 2:
            ok[:-2] = sid[:-2] == sid[2:]
        idx = np.flatnonzero(ok)
        paths = [f"{t[i]}>{t[i + 1]}>{t[i + 2]}" for i in idx]
        vals, cnt = np.unique(np.asarray(paths, dtype=object),
                              return_counts=True)
        return pa.table({
            "path": pa.array(vals, type=pa.string()),
            "n": pa.array(cnt.astype(np.int64)),
        })

    return (fold(ds.map_batches(add_bucket, batch_format="pyarrow",
                                batch_size=65536)
                 .groupby("bucket")
                 .map_groups(tri_counts, batch_format="pyarrow"),
                 "path", {"n": ("n", "sum")})
            .sort(["n", "path"], descending=[True, False])
            .limit(PATH_TOPK))


_PATH_SQL = f"""
WITH lagged AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL
              OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w
                 > {_SESSION_GAP_US}
         THEN 1 ELSE 0 END AS is_new
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  SELECT user_id, ts, event_id, event_type,
         SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS session_no
  FROM lagged
), tri AS (
  SELECT event_type || '>' || LEAD(event_type, 1) OVER w2
             || '>' || LEAD(event_type, 2) OVER w2 AS path,
         session_no,
         LEAD(session_no, 2) OVER w2 AS s2
  FROM numbered
  WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT path, COUNT(*) AS n FROM tri
WHERE s2 = session_no
GROUP BY path ORDER BY n DESC, path LIMIT {PATH_TOPK}
"""


CHURN_SPLIT_NUM, CHURN_SPLIT_DEN = 3, 4   # label window = last quarter


def churn_labels(sf_dir: str):
    """Training-set construction for churn prediction — the LABEL
    ENGINEERING step of a user-model pipeline: the observation window
    splits at its ¾ point (integer microseconds); features are each
    user's early-window activity counts (events, purchases, distinct
    active days, total value in cents) and the label is churned=1 iff
    the user makes NO PURCHASE in the holdout quarter (every user has
    SOME event there — purchases are the retention signal). Users
    first seen in the holdout are excluded (no feature window). This is the
    supervised-dataset shape every behavioural model trains on.

    Scale shape: ONE bounded user-hash bucket exchange; features and
    the label fold per user inside the group from exact integers —
    the oracle replays the identical split arithmetic."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events",
              columns=["user_id", "ts", "event_type",
                       "value"])

    from ray.data.aggregate import Max, Min

    span = ds.select_columns(["ts"]).map_batches(
        lambda b: pa.table({"us": b.column("ts").cast(pa.int64())}),
        batch_format="pyarrow", batch_size=65536) \
        .aggregate(Min("us"), Max("us"))
    t0, t1 = int(span["min(us)"]), int(span["max(us)"])
    split = t0 + (t1 - t0) * CHURN_SPLIT_NUM // CHURN_SPLIT_DEN

    def add_bucket(b: pa.Table) -> pa.Table:
        bucket = b.column("user_id").to_numpy() % n_buckets
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int32)))

    def per_user(g: pa.Table) -> pa.Table:
        us = _ts_us_col(g.column("ts"))
        early = us < split
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        et = g.column("event_type").to_numpy(
            zero_copy_only=False).astype(object)
        if not early.any():
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "n_purchases": pa.array([], type=pa.int64()),
                "n_active_days": pa.array([], type=pa.int64()),
                "value_cents": pa.array([], type=pa.int64()),
                "churned": pa.array([], type=pa.int64()),
            })
        sub = pa.table({
            "user_id": pa.array(uid[early].astype(np.int64)),
            "day": pa.array(us[early] // 86_400_000_000),
            "pur": pa.array((et[early] == "purchase")
                            .astype(np.int64)),
            "cents": pa.array(np.rint(
                g.column("value").to_numpy(
                    zero_copy_only=False)[early] * 100)
                .astype(np.int64)),
        })
        agg = (sub.group_by("user_id")
               .aggregate([("day", "count"), ("pur", "sum"),
                           ("day", "count_distinct"),
                           ("cents", "sum")]))
        users = agg.column("user_id").to_numpy(zero_copy_only=False)
        late_users = set(
            uid[(~early) & (et == "purchase")].tolist())
        churned = np.fromiter(
            (0 if u in late_users else 1 for u in users),
            dtype=np.int64, count=len(users))
        return pa.table({
            "user_id": pa.array(users.astype(np.int64)),
            "n_events": pc.cast(agg.column("day_count"), pa.int64()),
            "n_purchases": pc.cast(agg.column("pur_sum"), pa.int64()),
            "n_active_days": pc.cast(agg.column("day_count_distinct"),
                                     pa.int64()),
            "value_cents": pc.cast(agg.column("cents_sum"),
                                   pa.int64()),
            "churned": pa.array(churned),
        })

    return (ds.map_batches(add_bucket, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("bucket")
            .map_groups(per_user, batch_format="pyarrow"))


_CHURN_SQL = f"""
WITH m AS (
  SELECT MIN(epoch_us(ts)) AS t0, MAX(epoch_us(ts)) AS t1 FROM events
), s AS (
  SELECT m.t0 + (m.t1 - m.t0) * {CHURN_SPLIT_NUM}
             // {CHURN_SPLIT_DEN} AS split
  FROM m
), early AS (
  SELECT user_id,
         COUNT(*) AS n_events,
         SUM(CASE WHEN event_type = 'purchase'
             THEN 1 ELSE 0 END) AS n_purchases,
         COUNT(DISTINCT epoch_us(ts) // 86400000000)
             AS n_active_days,
         SUM(CAST(ROUND(value * 100) AS BIGINT)) AS value_cents
  FROM events CROSS JOIN s WHERE epoch_us(ts) < s.split
  GROUP BY user_id
), late AS (
  SELECT DISTINCT user_id FROM events CROSS JOIN s
  WHERE epoch_us(ts) >= s.split AND event_type = 'purchase'
)
SELECT e.user_id, CAST(e.n_events AS BIGINT) AS n_events,
       CAST(e.n_purchases AS BIGINT) AS n_purchases,
       CAST(e.n_active_days AS BIGINT) AS n_active_days,
       CAST(e.value_cents AS BIGINT) AS value_cents,
       CAST(CASE WHEN late.user_id IS NULL THEN 1 ELSE 0 END
            AS BIGINT) AS churned
FROM early e LEFT JOIN late ON late.user_id = e.user_id
"""


_PAIR_CTE = """seq AS (
  SELECT event_type,
         LEAD(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS next_type
  FROM events
), tc AS (
  SELECT event_type, next_type, COUNT(*) AS cnt
  FROM seq WHERE next_type IS NOT NULL
  GROUP BY event_type, next_type
)"""


def _markov_stationary_sql(iters: int = MARKOV_ITERS) -> str:
    ctes = [
        _PAIR_CTE,
        "types AS (SELECT DISTINCT event_type AS ty FROM tc"
        " UNION SELECT DISTINCT next_type FROM tc)",
        "tot AS (SELECT event_type, SUM(cnt) AS ni FROM tc"
        " GROUP BY event_type)",
        f"m0 AS (SELECT ty, CAST({MARKOV_MASS} AS BIGINT) AS m"
        " FROM types)",
    ]
    for i in range(1, iters + 1):
        ctes.append(f"""m{i}s AS (
  SELECT tc.next_type AS ty, SUM((m{i - 1}.m * tc.cnt) // tot.ni) AS m
  FROM m{i - 1} JOIN tc ON tc.event_type = m{i - 1}.ty
              JOIN tot ON tot.event_type = m{i - 1}.ty
  GROUP BY tc.next_type)""")
        ctes.append(f"""m{i} AS (
  SELECT t.ty, COALESCE(m{i}s.m, 0) AS m
  FROM types t LEFT JOIN m{i}s ON m{i}s.ty = t.ty)""")
    return ("WITH " + ",\n".join(ctes) + f""",
fin AS (SELECT SUM(m) AS s FROM m{iters})
SELECT ty AS event_type, CAST(m AS BIGINT) AS mass,
       ROUND(CAST(m AS DOUBLE) / fin.s, 6) AS share
FROM m{iters} CROSS JOIN fin""")


_ENTROPY_SQL = f"""
WITH {_PAIR_CTE},
tot AS (SELECT event_type, SUM(cnt) AS ni FROM tc GROUP BY event_type),
q AS (
  SELECT tc.cnt,
         CAST(FLOOR(1000.0 * LN(CAST(tc.cnt AS DOUBLE) / tot.ni))
              AS BIGINT) AS l
  FROM tc JOIN tot USING (event_type)
), m AS (
  SELECT SUM(cnt) AS n, SUM(CAST(cnt AS HUGEINT) * l) AS num FROM q
)
SELECT CAST(n AS BIGINT) AS n_transitions,
       ROUND(-CAST(num AS DOUBLE) / (1000.0 * n), 6) AS entropy_nats,
       ROUND(EXP(-CAST(num AS DOUBLE) / (1000.0 * n)), 4) AS perplexity
FROM m
"""


ACF_MAX_LAG = 7


def _daily_order_counts(sf_dir: str) -> tuple[int, np.ndarray]:
    """(first epoch day, orders per day) over the calendar-filled
    [min, max] order-date range — empty days are real zeros."""
    ds = scan(sf_dir, "orders", columns=["o_orderdate"])

    def cells(b: pa.Table) -> pa.Table:
        days = (b.column("o_orderdate").to_numpy()
                .astype("datetime64[D]").astype(np.int64))
        return pa.table({
            "day": pa.array(days),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    daily = combine(ds, "day", {"c": ("c", "sum")}, cells) \
        .sort("day").take_all()
    dy = np.array([r["day"] for r in daily], dtype=np.int64)
    c = np.array([r["c"] for r in daily], dtype=np.int64)
    lo, hi = int(dy[0]), int(dy[-1])
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[dy - lo] = c
    return lo, x


def acf_daily_orders(sf_dir: str):
    """Autocorrelation function of the daily order-count series at
    lags 1..ACF_MAX_LAG — the seasonality/memory fingerprint (Box &
    Jenkins): a weekly cycle shows as a lag-7 peak, load smoothing as
    slow decay. The diagnostic a forecasting stage runs before picking
    model order.

    Exactness: daily counts fold distributed to exact integers over
    the calendar-filled [min, max] day range (empty days are real
    zeros); all per-lag moments (Σxₜxₜ₊ₖ and the head/tail partial
    sums) are exact Python ints on ≤|days| driver rows, and
    rₖ = (n²·Cₖ − n·S·(Hₖ+Tₖ) + (n−k)·S²) / (n·(n·Q − S²)) divides
    exact integers ONCE per lag — the oracle's HUGEINT expression
    term for term."""
    lo, x = _daily_order_counts(sf_dir)
    n = len(x)
    s = int(x.sum())
    q = int((x * x).sum())
    den = n * (n * q - s * s)          # exact Python int
    lags, acfs = [], []
    for k in range(1, ACF_MAX_LAG + 1):
        ck = int((x[:-k] * x[k:]).sum())
        hk = int(x[:-k].sum())
        tk = int(x[k:].sum())
        num = n * n * ck - n * s * (hk + tk) + (n - k) * s * s
        acfs.append(round_half_away(float(num) / float(den), 4)
                    if den else 0.0)
        lags.append(k)
    return pa.table({
        "lag": pa.array(lags, type=pa.int64()),
        "acf": pa.array(acfs, type=pa.float64()),
    })


EWMA_SCALE = 10_000       # smoothed level carried in 1e-4 order units
EWMA_SPIKE_NUM, EWMA_SPIKE_DEN = 3, 2   # alert when x > 1.5x smoothed


def ewma_daily_orders(sf_dir: str):
    """EWMA load monitor over daily order counts (the classic
    exponentially-weighted control chart, Roberts 1959, α = 1/2):
    every day gets the running smoothed level and a spike flag —
    xₜ > 1.5× yesterday's smoothed level — the streaming anomaly
    check a capacity planner runs on arrival rates.

    Exactness: the recurrence is ALL-INTEGER — sₜ = ⌊(sₜ₋₁ +
    xₜ·SCALE)/2⌋ in 1e-4 units, so there is no float fold order to
    drift and the DuckDB oracle replays the identical recurrence as a
    recursive CTE over the day index. Daily counts fold distributed;
    the walk is driver-side on the calendar-bounded series (the
    ``events_changepoint`` pattern)."""
    lo, x = _daily_order_counts(sf_dir)
    ewma = np.zeros(len(x), dtype=np.int64)
    alert = np.zeros(len(x), dtype=np.int64)
    s = int(x[0]) * EWMA_SCALE
    ewma[0] = s
    for t in range(1, len(x)):
        alert[t] = int(int(x[t]) * EWMA_SCALE * EWMA_SPIKE_DEN
                       > EWMA_SPIKE_NUM * s)
        s = (s + int(x[t]) * EWMA_SCALE) // 2
        ewma[t] = s
    return pa.table({
        "day": pa.array(lo + np.arange(len(x), dtype=np.int64)),
        "n_orders": pa.array(x),
        "ewma_q": pa.array(ewma),
        "spike": pa.array(alert),
    })


def _acf_sql(max_lag: int = ACF_MAX_LAG) -> str:
    return f"""
WITH dc AS (
  SELECT CAST(o_orderdate AS DATE) AS d, COUNT(*) AS c
  FROM orders GROUP BY d
), bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM dc),
cal AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY))::DATE AS d
  FROM bounds
), series AS (
  SELECT row_number() OVER (ORDER BY cal.d) AS t,
         COALESCE(dc.c, 0) AS x
  FROM cal LEFT JOIN dc ON dc.d = cal.d
), m AS (
  SELECT COUNT(*) AS n, SUM(x) AS s,
         SUM(CAST(x AS HUGEINT) * x) AS q
  FROM series
), lags AS (SELECT unnest(generate_series(1, {max_lag})) AS l),
ck AS (
  SELECT lags.l,
         SUM(CAST(a.x AS HUGEINT) * b.x) AS c_k,
         SUM(CAST(a.x AS HUGEINT)) AS h_k,
         SUM(CAST(b.x AS HUGEINT)) AS t_k
  FROM lags JOIN series a ON TRUE
            JOIN series b ON b.t = a.t + lags.l
  GROUP BY lags.l
)
SELECT CAST(l AS BIGINT) AS lag,
       CASE WHEN n * (n * q - s * s) = 0 THEN 0.0
            ELSE ROUND(CAST(n * n * c_k - n * s * (h_k + t_k)
                            + (n - l) * s * s AS DOUBLE)
                       / CAST(n * (n * q - s * s) AS DOUBLE), 4)
       END AS acf
FROM ck CROSS JOIN m
"""


def _ewma_sql() -> str:
    return f"""
WITH RECURSIVE dc AS (
  SELECT CAST(o_orderdate AS DATE) AS d, COUNT(*) AS c
  FROM orders GROUP BY d
), bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM dc),
cal AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY))::DATE AS d
  FROM bounds
), series AS (
  SELECT row_number() OVER (ORDER BY cal.d) AS t,
         epoch(cal.d)::BIGINT // 86400 AS day,
         COALESCE(dc.c, 0)::BIGINT AS x
  FROM cal LEFT JOIN dc ON dc.d = cal.d
), walk AS (
  SELECT t, day, x, x * {EWMA_SCALE} AS s, 0::BIGINT AS spike
  FROM series WHERE t = 1
  UNION ALL
  SELECT n.t, n.day, n.x,
         (w.s + n.x * {EWMA_SCALE}) // 2,
         CASE WHEN n.x * {EWMA_SCALE} * {EWMA_SPIKE_DEN}
                   > {EWMA_SPIKE_NUM} * w.s THEN 1 ELSE 0 END
  FROM walk w JOIN series n ON n.t = w.t + 1
)
SELECT day, x AS n_orders, s AS ewma_q, spike
FROM walk
"""


# --------------------------------------- watermark / late-data admission

WATERMARK_LATENESS_S = 600   # allowed lateness
WATERMARK_DELAY_MOD_S = 3600  # per-event network-delay spread
_WM_NEG = -(1 << 62)          # watermark sentinel before any event
_HOUR_US = 3_600_000_000


def events_watermark_windows(sf_dir: str,
                             lateness_s: int = WATERMARK_LATENESS_S):
    """Streaming WATERMARK accounting — the late-data admission rule a
    streaming engine applies, replayed exactly over the event log
    (SURVEY §2.10's "streaming concerns" made first-class). The event
    table is time-ordered at the source, so ARRIVAL order models the
    real ingest: each event arrives at ``ts + delay`` where delay is a
    deterministic md5 draw in [0, 1h) (the skewed-network model).
    The watermark before an arrival is the max EVENT time among all
    earlier arrivals; an event is LATE-DROPPED iff its event time lags
    the watermark by more than ``lateness_s``. Per tumbling 1-hour
    event-time window: accepted vs late-dropped counts — the census an
    allowed-lateness knob is tuned from.

    Scale shape — distributed prefix MAX over ARRIVAL-HOUR buckets
    (``sequence_pack``'s exchange with max instead of sum, keyed by
    the streaming-natural time ranges): one narrow fold sends one
    (arrival-hour, max event-ts) row to the driver, the exclusive
    running max rides in the admission map's closure, and the admission
    test runs vectorized per bucket (``np.maximum.accumulate`` in
    (arrival, event_id) order); the final window census is a bounded
    groupby over the hours present. The oracle replays the identical
    rule as one SQL running-max window over the same arrival order."""
    from ..functions.hashing import md5_hex

    lateness_us = int(lateness_s) * 1_000_000

    ds = scan(sf_dir, "events", columns=["event_id", "ts"])

    def _arrival(b: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = b.column("event_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        delay_s = np.fromiter(
            (int(md5_hex(str(i))[:8], 16) % WATERMARK_DELAY_MOD_S
             for i in ids), dtype=np.int64, count=len(ids))
        return ids, ts, ts + delay_s * 1_000_000

    def narrow(b: pa.Table) -> pa.Table:
        _, ts, arr = _arrival(b)
        return pa.table({
            "bucket": pa.array(arr // _HOUR_US),
            "mx": pa.array(ts),
        })

    sub = (combine(ds, "bucket", {"mx": ("mx", "max")}, narrow)
           .to_pandas().sort_values("bucket").reset_index(drop=True))
    mx = sub["mx"].to_numpy(dtype=np.int64)
    base = np.concatenate(
        ([_WM_NEG], np.maximum.accumulate(mx)[:-1]))
    bucket_bases = dict(zip(sub["bucket"].astype(np.int64).tolist(),
                            base.tolist()))

    def tag(b: pa.Table) -> pa.Table:
        ids, ts, arr = _arrival(b)
        return pa.table({
            "event_id": pa.array(ids),
            "ts_us": pa.array(ts),
            "arrival_us": pa.array(arr),
            "bucket": pa.array(arr // _HOUR_US),
        })

    def admit(g: pa.Table) -> pa.Table:
        bucket_base = bucket_bases[int(g.column("bucket")[0].as_py())]
        order = np.lexsort((
            g.column("event_id").to_numpy(zero_copy_only=False),
            g.column("arrival_us").to_numpy(zero_copy_only=False)))
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)[order]
        run = np.maximum.accumulate(ts)
        wm = np.maximum(
            np.concatenate(([_WM_NEG], run[:-1])), bucket_base)
        ok = (ts >= wm - lateness_us).astype(np.int64)
        win = pc.strftime(
            pc.cast(pc.floor_temporal(
                pa.array(ts, type=pa.timestamp("us")), unit="hour"),
                pa.timestamp("s")),
            format="%Y-%m-%d %H:%M:%S")
        return group_agg(pa.table({
            "window_start": win,
            "n_accepted": pa.array(ok),
            "n_late": pa.array(1 - ok),
        }), "window_start", counts)

    counts = {"n_accepted": ("n_accepted", "sum"),
              "n_late": ("n_late", "sum")}
    return fold(ds.map_batches(tag, batch_format="pyarrow",
                               batch_size=65536)
                .groupby("bucket")
                .map_groups(admit, batch_format="pyarrow"),
                "window_start", counts)


_WATERMARK_SQL = f"""
WITH a AS (
  SELECT event_id, ts,
         ts + to_seconds(
             CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)), 1, 8))
                  AS BIGINT) % {WATERMARK_DELAY_MOD_S}) AS arrival
  FROM events
), o AS (
  SELECT ts, MAX(ts) OVER (ORDER BY arrival, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM a
), f AS (
  SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S')
             AS window_start,
         CASE WHEN wm IS NULL
                   OR ts >= wm - to_seconds({WATERMARK_LATENESS_S})
              THEN 1 ELSE 0 END AS ok
  FROM o
)
SELECT window_start, CAST(SUM(ok) AS BIGINT) AS n_accepted,
       CAST(SUM(1 - ok) AS BIGINT) AS n_late
FROM f GROUP BY window_start
"""


ORACLE_SQL = {
    "events_watermark_windows": _WATERMARK_SQL,
    "acf_daily_orders": _acf_sql(),
    "ewma_daily_orders": _ewma_sql(),
    "markov_stationary": _markov_stationary_sql(),
    "next_event_entropy": _ENTROPY_SQL,
    "churn_labels": _CHURN_SQL,
    "purchase_did": _DID_SQL,
    "session_path_topk": _PATH_SQL,
    "ab_cuped": """
        WITH ud AS (
          SELECT user_id AS u,
                 epoch_us(date_trunc('day', ts)) // 86400000000 AS day,
                 COUNT(*) AS n_ev,
                 SUM(CASE WHEN event_type = 'purchase'
                     THEN 1 ELSE 0 END) AS n_pur
          FROM events GROUP BY u, day
        ), j AS (
          SELECT a.u, a.day, a.n_pur AS y,
                 COALESCE(b.n_ev, 0) AS x,
                 (a.u + a.day) % 2 AS arm
          FROM ud a LEFT JOIN ud b
            ON b.u = a.u AND b.day = a.day - 1
        ), mm AS (
          SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                 CAST(SUM(x) AS HUGEINT) AS sx,
                 CAST(SUM(y) AS HUGEINT) AS sy,
                 CAST(SUM(x * x) AS HUGEINT) AS sxx,
                 CAST(SUM(x * y) AS HUGEINT) AS sxy,
                 CAST(SUM(y * y) AS HUGEINT) AS syy,
                 SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS n0,
                 SUM(CASE WHEN arm = 0 THEN x ELSE 0 END) AS sx0,
                 SUM(CASE WHEN arm = 0 THEN y ELSE 0 END) AS sy0,
                 SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS n1,
                 SUM(CASE WHEN arm = 1 THEN x ELSE 0 END) AS sx1,
                 SUM(CASE WHEN arm = 1 THEN y ELSE 0 END) AS sy1
          FROM j
        ), c AS (
          SELECT n, n0, n1, sx0, sy0, sx1, sy1,
                 CAST(n * sxy - sx * sy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE) AS theta,
                 CAST(n * sxy - sx * sy AS DOUBLE)
                     / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                            * CAST(n * syy - sy * sy AS DOUBLE))
                     AS corr,
                 sy0 * 1.0 / n0 - sy1 * 1.0 / n1 AS raw
          FROM mm
        )
        SELECT CAST(n AS BIGINT) AS n_units,
               ROUND(theta, 6) AS theta,
               ROUND(raw, 6) AS raw_diff,
               ROUND(raw - theta * (sx0 * 1.0 / n0
                                    - sx1 * 1.0 / n1), 6)
                   AS cuped_diff,
               ROUND(corr * corr * 100, 4) AS var_reduction_pct
        FROM c
    """,
    "kaplan_meier_reorder": """
        WITH r AS (
          SELECT o_custkey AS c, o_orderdate AS d,
                 row_number() OVER (PARTITION BY o_custkey
                                    ORDER BY o_orderdate, o_orderkey)
                     AS rn
          FROM orders
        ), f AS (
          SELECT c, MAX(CASE WHEN rn = 1 THEN d END) AS t1,
                 MAX(CASE WHEN rn = 2 THEN d END) AS t2
          FROM r WHERE rn <= 2 GROUP BY c
        ), mx AS (SELECT MAX(o_orderdate) AS m FROM orders),
        dur AS (
          SELECT CASE WHEN t2 IS NOT NULL
                      THEN datediff('day', t1, t2)
                      ELSE datediff('day', t1, m) END AS t,
                 CASE WHEN t2 IS NOT NULL THEN 1 ELSE 0 END AS ev
          FROM f CROSS JOIN mx
        ), n AS (SELECT COUNT(*) AS total FROM dur),
        evt AS (
          SELECT t, SUM(ev) AS d_i, COUNT(*) AS all_at_t
          FROM dur GROUP BY t
        ), cum AS (
          SELECT t, d_i,
                 total - COALESCE(SUM(all_at_t) OVER (
                     ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING
                     AND 1 PRECEDING), 0) AS n_risk
          FROM evt CROSS JOIN n
        ), km AS (
          SELECT t, d_i, n_risk,
                 product(1 - d_i * 1.0 / n_risk)
                     OVER (ORDER BY t) AS s
          FROM cum WHERE d_i > 0
        )
        SELECT CAST(t AS BIGINT) AS t_days,
               CAST(n_risk AS BIGINT) AS n_risk,
               CAST(d_i AS BIGINT) AS n_events,
               ROUND(s, 6) AS survival
        FROM km
    """,
    "ab_conversion_ztest": """
        WITH u AS (
          SELECT user_id,
                 epoch_us(date_trunc('day', ts)) // 86400000000 AS day,
                 MAX(CASE WHEN event_type = 'purchase'
                     THEN 1 ELSE 0 END) AS conv
          FROM events GROUP BY user_id, day
        ), a AS (
          SELECT (user_id + day) % 2 AS arm, COUNT(*) AS n,
                 SUM(conv) AS c
          FROM u GROUP BY arm
        ), w AS (
          SELECT MAX(CASE WHEN arm = 0 THEN n END) AS na,
                 MAX(CASE WHEN arm = 0 THEN c END) AS ca,
                 MAX(CASE WHEN arm = 1 THEN n END) AS nb,
                 MAX(CASE WHEN arm = 1 THEN c END) AS cb
          FROM a
        ), zc AS (
          SELECT na, nb, ca, cb,
                 (ca * 1.0 / na - cb * 1.0 / nb)
                 / sqrt((ca + cb) * 1.0 / (na + nb)
                        * (1 - (ca + cb) * 1.0 / (na + nb))
                        * (1.0 / na + 1.0 / nb)) AS z
          FROM w
        )
        SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
               CAST(ca AS BIGINT) AS conv_a,
               CAST(cb AS BIGINT) AS conv_b,
               ROUND(ca * 1.0 / na, 4) AS rate_a,
               ROUND(cb * 1.0 / nb, 4) AS rate_b,
               ROUND(z, 4) AS z,
               CAST(CASE WHEN ABS(z) > 1.96 THEN 1 ELSE 0 END
                    AS BIGINT) AS significant
        FROM zc
    """,
    "events_changepoint": """
        WITH b AS (
          SELECT epoch_us(date_trunc('hour', ts)) // 3600000000 AS hr,
                 COUNT(*) AS c
          FROM events GROUP BY hr
        ), sp AS (SELECT MIN(hr) AS lo, MAX(hr) AS hi FROM b),
        hours AS (
          SELECT unnest(generate_series(lo, hi)) AS hr FROM sp
        ), series AS (
          SELECT h.hr, COALESCE(b.c, 0) AS c
          FROM hours h LEFT JOIN b USING (hr)
        ), pre AS (
          SELECT hr, SUM(c) OVER (ORDER BY hr) AS s1,
                 ROW_NUMBER() OVER (ORDER BY hr) AS n1
          FROM series
        ), tot AS (SELECT SUM(c) AS s, COUNT(*) AS n FROM series),
        sc AS (
          SELECT hr, n1, s1,
                 ((n1 * 1.0 * (n - n1)) / n)
                 * (s1 * 1.0 / n1 - (s - s1) * 1.0 / (n - n1))
                 * (s1 * 1.0 / n1 - (s - s1) * 1.0 / (n - n1)) AS score,
                 s, n
          FROM pre CROSS JOIN tot WHERE n1 < n
        )
        SELECT CAST(hr AS BIGINT) AS split_hr,
               CAST(n1 AS BIGINT) AS n_before,
               CAST(s1 AS BIGINT) AS events_before,
               ROUND(s1 * 1.0 / n1, 4) AS mean_before,
               ROUND((s - s1) * 1.0 / (n - n1), 4) AS mean_after,
               ROUND(score, 4) AS score
        FROM sc ORDER BY sc.score DESC, hr LIMIT 1
    """,
    "events_burstiness": """
        WITH h AS (
          SELECT event_type,
                 epoch_us(date_trunc('hour', ts)) // 3600000000 AS hr,
                 COUNT(*) AS c
          FROM events GROUP BY event_type, hr
        ), sp AS (
          SELECT CAST(MAX(epoch_us(date_trunc('hour', ts))
                          // 3600000000)
                      - MIN(epoch_us(date_trunc('hour', ts))
                            // 3600000000) + 1 AS HUGEINT) AS H
          FROM events
        )
        SELECT event_type,
               CAST(SUM(c) AS BIGINT) AS n_events,
               CAST(H AS BIGINT) AS n_hours,
               ROUND(CAST(H * SUM(c * c) - SUM(c) * SUM(c) AS DOUBLE)
                     / CAST(H * SUM(c) AS DOUBLE), 4) AS fano
        FROM h CROSS JOIN sp GROUP BY event_type, H
    """,
    "session_duration_stats": """
        WITH lagged AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL
                      OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000
                      THEN 1 ELSE 0 END AS is_new
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), numbered AS (
          SELECT user_id, ts,
                 SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_no
          FROM lagged
        ), sess AS (
          -- epoch_us is BIGINT so // is true integer division (epoch
          -- returns DOUBLE, where // degenerates to /)
          SELECT LEAST((epoch_us(date_trunc('second', MAX(ts)))
                        - epoch_us(date_trunc('second', MIN(ts))))
                       // 60000000, 240) AS duration_min,
                 COUNT(*) AS n_events
          FROM numbered GROUP BY user_id, session_no
        )
        SELECT CAST(duration_min AS BIGINT) AS duration_min,
               CAST(COUNT(*) AS BIGINT) AS n_sessions,
               ROUND(SUM(n_events) * 1.0 / COUNT(*), 4) AS avg_events
        FROM sess GROUP BY duration_min
    """,
    "events_late_arrival_stats": """
        WITH s AS (
          SELECT user_id,
                 epoch_us(ts)
                   - LAG(epoch_us(ts)) OVER (PARTITION BY user_id
                                             ORDER BY event_id) AS d
          FROM events),
        p AS (SELECT d FROM s WHERE d IS NOT NULL)
        SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(SUM(CASE WHEN d < 0 THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_inversions,
               CAST(COALESCE(MAX(CASE WHEN d < 0 THEN (-d) // 1000000
                                      END), 0) AS BIGINT)
                 AS worst_regression_s
        FROM p
    """,
    "interarrival_histogram": """
        WITH s AS (
          SELECT user_id, ts,
                 LAG(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
          FROM events),
        d AS (SELECT (epoch_us(ts) - epoch_us(prev)) // 1000000 AS ds
              FROM s WHERE prev IS NOT NULL)
        SELECT CAST(LENGTH(CAST(ds AS VARCHAR)) AS BIGINT) AS digits,
               CAST(COUNT(*) AS BIGINT) AS n_pairs
        FROM d GROUP BY digits
    """,
    "markov_transitions": """
        WITH seq AS (
          SELECT event_type,
                 LEAD(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                 ) AS next_type
          FROM events
        )
        SELECT event_type, next_type, CAST(COUNT(*) AS BIGINT) AS cnt,
               ROUND(COUNT(*) * 1.0 / SUM(COUNT(*)) OVER (
                     PARTITION BY event_type), 6) AS prob
        FROM seq WHERE next_type IS NOT NULL
        GROUP BY event_type, next_type
    """,
    "rolling_active_users": f"""
        WITH du AS (
          SELECT DISTINCT user_id,
                 CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
          FROM events
        ), fan AS (
          SELECT DISTINCT du.user_id, du.day + r.range AS d
          FROM du, range(0, {_ROLLING_DAYS}) r
        )
        SELECT strftime(to_timestamp(d * 86400), '%Y-%m-%d') AS day,
               CAST(COUNT(*) AS BIGINT) AS n_active_7d
        FROM fan GROUP BY d
    """,
    "active_sessions_hourly": """
        WITH lagged AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL
                      OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w
                         > 1800000000
                      THEN 1 ELSE 0 END AS is_new
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), numbered AS (
          SELECT user_id, ts,
                 SUM(is_new) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_no
          FROM lagged
        ), s AS (
          SELECT user_id, session_no, MIN(ts) AS st, MAX(ts) AS en
          FROM numbered GROUP BY user_id, session_no
        ), h AS (
          SELECT unnest(generate_series(date_trunc('hour', st),
                                        date_trunc('hour', en),
                                        INTERVAL 1 HOUR)) AS hr
          FROM s
        )
        SELECT strftime(hr, '%Y-%m-%d %H:%M:%S') AS window_start,
               CAST(COUNT(*) AS BIGINT) AS n_active
        FROM h GROUP BY hr
    """,
    "cohort_retention": """
        WITH uw AS (
          SELECT DISTINCT user_id,
                 CAST(floor(epoch(ts) / 604800) AS BIGINT) AS week
          FROM events
        ), f AS (
          SELECT user_id, MIN(week) AS cw FROM uw GROUP BY user_id
        ), r AS (
          SELECT f.cw AS cohort_week, uw.week - f.cw AS k,
                 COUNT(*) AS n_users
          FROM uw JOIN f USING (user_id)
          GROUP BY cohort_week, k
        ), c0 AS (
          SELECT cohort_week, n_users AS n0 FROM r WHERE k = 0
        )
        SELECT r.cohort_week, r.k, r.n_users,
               ROUND(CAST(r.n_users AS DOUBLE) / c0.n0, 4) AS retention
        FROM r JOIN c0 USING (cohort_week)
    """,
    "trending_items": f"""
        WITH e AS (
          SELECT strftime(date_trunc('hour', ts),
                          '%Y-%m-%d %H:%M:%S') AS window_start,
                 CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS item
          FROM events
        ), c AS (
          SELECT window_start, item, COUNT(*) AS n
          FROM e GROUP BY window_start, item
        ), r AS (
          SELECT window_start, item, n,
                 CAST(ROW_NUMBER() OVER (
                     PARTITION BY window_start
                     ORDER BY n DESC, item) AS BIGINT) AS rank
          FROM c
        )
        SELECT window_start, item, n, rank FROM r
        WHERE rank <= {TRENDING_K}
    """,
    "events_funnel": """
        WITH u AS (
          SELECT user_id,
                 MIN(CASE WHEN event_type = 'view' THEN ts END) AS t1
          FROM events GROUP BY user_id
        ), u2 AS (
          SELECT u.user_id, u.t1,
                 MIN(CASE WHEN e.event_type = 'click' AND e.ts >= u.t1
                          THEN e.ts END) AS t2
          FROM u LEFT JOIN events e USING (user_id)
          GROUP BY u.user_id, u.t1
        ), u3 AS (
          SELECT u2.user_id, u2.t1, u2.t2,
                 MIN(CASE WHEN e.event_type = 'purchase'
                          AND e.ts >= u2.t2 THEN e.ts END) AS t3
          FROM u2 LEFT JOIN events e USING (user_id)
          GROUP BY u2.user_id, u2.t1, u2.t2
        ), agg AS (
          SELECT COUNT(*) AS nu, COUNT(t1) AS n1, COUNT(t2) AS n2,
                 COUNT(t3) AS n3
          FROM u3
        )
        SELECT 'view' AS stage, n1 AS n_users,
               ROUND(CAST(n1 AS DOUBLE) / nu, 4) AS conversion FROM agg
        UNION ALL
        SELECT 'click', n2, ROUND(CAST(n2 AS DOUBLE) / n1, 4) FROM agg
        UNION ALL
        SELECT 'purchase', n3, ROUND(CAST(n3 AS DOUBLE) / n2, 4) FROM agg
    """,
    "user_rolling_avg": """
        SELECT event_id, user_id,
               ROUND(AVG(value) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4)
                   AS rolling_avg
        FROM events
    """,
    "sessionize": """
        WITH lagged AS (
          SELECT user_id, ts, event_id, value,
                 CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL
                      OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000
                      THEN 1 ELSE 0 END AS is_new
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), numbered AS (
          SELECT user_id, ts, value,
                 SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_no
          FROM lagged
        )
        SELECT user_id, CAST(session_no AS BIGINT) AS session_no,
               strftime(MIN(ts), '%Y-%m-%d %H:%M:%S') AS session_start,
               strftime(MAX(ts), '%Y-%m-%d %H:%M:%S') AS session_end,
               COUNT(*) AS n_events,
               ROUND(SUM(value), 4) AS sum_value
        FROM numbered GROUP BY user_id, session_no
    """,
    "purchase_attribution": """
        SELECT p.event_id, p.user_id,
               COUNT(*) AS n_events_24h,
               ROUND(SUM(e.value), 4) AS sum_value_24h
        FROM events p JOIN events e
          ON e.user_id = p.user_id
         AND e.ts < p.ts
         AND e.ts >= p.ts - INTERVAL 24 HOUR
        WHERE p.event_type = 'purchase'
        GROUP BY p.event_id, p.user_id
    """,
    "user_order_asof": """
        SELECT e.event_id, e.user_id,
               strftime(MAX(o.o_orderdate), '%Y-%m-%d %H:%M:%S')
                   AS last_order_date,
               COUNT(*) AS orders_to_date,
               ROUND(SUM(o.o_totalprice), 4) AS spend_to_date
        FROM events e JOIN orders o
          ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        GROUP BY e.event_id, e.user_id
    """,
}

def cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix — the product-analytics staple:
    users cohort by their FIRST active epoch-week, and cell (cohort, k)
    counts how many are active again k weeks later, as a fraction of
    the cohort.

    Scale shape: distinct (user, week) rows co-locate per user in ONE
    groupby (each group is that user's week set — bounded by the
    calendar), emit (cohort, k) rows per user, then a pre-counted
    (cohort, k) fold. The final matrix is |weeks|² cells — bounded by
    time, not corpus — so the retention ratio assembles driver-side
    from exact integer counts."""
    _WEEK_US = 7 * 24 * 3600 * 1_000_000

    ds = scan(sf_dir, "events", columns=["user_id", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        week = (_ts_us(b.column("ts").to_pandas()) // _WEEK_US)
        df = pd.DataFrame({
            "user_id": b.column("user_id").to_numpy(),
            "week": week.astype(np.int64),
        }).drop_duplicates()
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(), type=pa.int64()),
            "week": pa.array(df["week"].to_numpy(), type=pa.int64()),
        })

    def per_user(g: pa.Table) -> pa.Table:
        weeks = np.unique(g.column("week").to_numpy(
            zero_copy_only=False))
        cw = int(weeks.min())
        return pa.table({
            "cohort_week": pa.array(np.full(len(weeks), cw,
                                            dtype=np.int64)),
            "k": pa.array((weeks - cw).astype(np.int64)),
            "n": pa.array(np.ones(len(weeks), dtype=np.int64)),
        })

    cells = fold(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("user_id")
        .map_groups(per_user, batch_format="pyarrow"),
        ["cohort_week", "k"], {"n_users": ("n", "sum")}).to_pandas()

    base = cells.loc[cells["k"] == 0] \
        .set_index("cohort_week")["n_users"]
    n0 = cells["cohort_week"].map(base).to_numpy(dtype=np.int64)
    return pa.table({
        "cohort_week": pa.array(cells["cohort_week"].to_numpy(),
                                type=pa.int64()),
        "k": pa.array(cells["k"].to_numpy(), type=pa.int64()),
        "n_users": pa.array(cells["n_users"].to_numpy(), type=pa.int64()),
        "retention": pa.array(round_half_away(
            cells["n_users"].to_numpy() / n0, 4), type=pa.float64()),
    })


QUERIES = {
    "events_watermark_windows": events_watermark_windows,
    "acf_daily_orders": acf_daily_orders,
    "ewma_daily_orders": ewma_daily_orders,
    "markov_stationary": markov_stationary,
    "next_event_entropy": next_event_entropy,
    "churn_labels": churn_labels,
    "purchase_did": purchase_did,
    "session_path_topk": session_path_topk,
    "cohort_retention": cohort_retention,
    "sessionize": sessionize,
    "user_order_asof": user_order_asof,
    "purchase_attribution": purchase_attribution,
    "user_rolling_avg": user_rolling_avg,
    "events_funnel": events_funnel,
    "trending_items": trending_items,
    "active_sessions_hourly": active_sessions_hourly,
    "rolling_active_users": rolling_active_users,
    "markov_transitions": markov_transitions,
    "events_burstiness": events_burstiness,
    "events_changepoint": events_changepoint,
    "ab_conversion_ztest": ab_conversion_ztest,
    "kaplan_meier_reorder": kaplan_meier_reorder,
    "ab_cuped": ab_cuped,
    "interarrival_histogram": interarrival_histogram,
    "events_late_arrival_stats": events_late_arrival_stats,
    "session_duration_stats": session_duration_stats,
}
