"""Second relational batch — the TPC-H join/aggregate shapes the first
batch (``relational.py``) didn't cover, each as a scale-shaped Ray Data
pipeline with a value-checked DuckDB oracle:

* Q4  — correlated EXISTS reduced to a per-key MAX (``order_priority_exists``)
* Q7  — two-dimension snowflake trade matrix (``trade_volume``)
* Q11 — HAVING against a broadcast GLOBAL scalar (``important_parts``)
* Q13 — count-of-counts distribution (``order_count_distribution``)
* Q15 — argmax over a grouped aggregate, ties kept (``top_supplier``)
* Q17 — correlated per-key scalar subquery joined back (``small_quantity_revenue``)
* Q18 — HAVING filter then join back to the parent row (``large_orders``)

Shared discipline (see ``relational.py`` header): column-pruned reads,
per-batch Arrow ``group_by`` combiners before any exchange
(:mod:`combine`: ``group_agg`` per batch, ``fold`` across blocks), bounded
key-hash buckets + ``map_groups`` for corpus-scale keyed folds (never a
native Ray Aggregate over an unbounded key space), the shared
:func:`exchange.hash_join` for big ⋈ big, broadcast lookups for true
dimensions, and integer currency/quantity units everywhere a float sum could make
the result depend on summation order.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import round_half_away
from .combine import combine, group_agg
from .exchange import hash_join
from .inputs import _pq, scan, table_bytes


def _buckets(sf_dir: str, table: str, target_bytes: int = 32 << 20,
             floor: int = 8) -> int:
    """Key-hash bucket count scaled to the table's bytes (one bucket per
    ~32 MiB, min ``floor``) — per-group frames stay block-sized at any
    corpus scale while the groupby key space is bounded."""
    return max(floor, int(table_bytes(sf_dir, table) // target_bytes) + 1)


def _with_kb(t: pa.Table, key: str, n_buckets: int) -> pa.Table:
    """``t`` tagged with its key-hash bucket ``kb`` for a keyed fold."""
    return t.append_column("kb", pa.array(
        (t.column(key).to_numpy() % n_buckets).astype(np.int32)))


_REV_SUM = {"rev_e4": ("rev_e4", "sum")}


def _rev_e4(batch: pa.Table) -> np.ndarray:
    """Discounted revenue in exact integer 1e-4 currency units."""
    cents = np.rint(
        batch.column("l_extendedprice").to_numpy() * 100.0
    ).astype(np.int64)
    disc_bp = np.rint(
        batch.column("l_discount").to_numpy() * 100.0
    ).astype(np.int64)
    return cents * (100 - disc_bp)


_REV_E4_SQL = ("CAST(ROUND(l_extendedprice * 100) AS BIGINT) * "
               "(100 - CAST(ROUND(l_discount * 100) AS BIGINT))")


# --------------------------------------------------------------- Q4 shape

def order_priority_exists(sf_dir: str):
    """TPC-H-Q4-shaped priority count under a correlated EXISTS: how
    many orders, per priority, have ANY lineitem shipped more than 30
    days after the order date.

    ``EXISTS(l_shipdate > X)`` ≡ ``MAX(l_shipdate) > X``, so the
    corpus-scale correlated subquery collapses to a per-order MAX: per
    batch an Arrow ``group_by`` keeps one (orderkey, max_ship) row,
    bounded orderkey-hash buckets fold the cross-batch max (one
    exchange), the fold hash-joins orders (co-partitioned big ⋈ big),
    and the 30-day compare runs vectorized in integer microseconds.
    The final fold is the ≤5-row priority key space."""
    n_buckets = _buckets(sf_dir, "lineitem")

    li = scan(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def max_partial(b: pa.Table) -> pa.Table:
        return _with_kb(group_agg(b, "l_orderkey", {
            "max_ship": ("l_shipdate", "max")}), "l_orderkey", n_buckets)

    def max_fold(g: pa.Table) -> pa.Table:
        return group_agg(g, "l_orderkey", {"max_ship": ("max_ship", "max")})

    orders = scan(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderdate",
                           "o_orderpriority"])

    thirty_days_us = np.int64(30 * 86400 * 1_000_000)

    def late_cells(b: pa.Table) -> pa.Table:
        ship = b.column("max_ship").cast(pa.int64()).to_numpy()
        odate = b.column("o_orderdate").cast(pa.int64()).to_numpy()
        late = b.filter(pa.array(ship > odate + thirty_days_us))
        return pa.table({
            "o_orderpriority": late.column("o_orderpriority"),
            "n": pa.array(np.ones(late.num_rows, dtype=np.int64)),
        })

    return combine(
        hash_join(li.map_batches(max_partial, batch_format="pyarrow",
                                 batch_size=65536)
                  .groupby("kb")
                  .map_groups(max_fold, batch_format="pyarrow"),
                  orders, "inner", "l_orderkey", "o_orderkey"),
        "o_orderpriority", {"n_orders": ("n", "sum")}, late_cells)


# --------------------------------------------------------------- Q7 shape

def trade_volume(sf_dir: str):
    """TPC-H-Q7-shaped bilateral trade matrix: discounted revenue by
    (supplier nation, customer nation, ship year). The supplier→nation
    chain is a true dimension → ONE broadcast int lookup; the customer
    side is corpus-scale → lineitem ⋈ orders ⋈ customer run as
    hash-partitioned big ⋈ big joins. Per-batch combiners collapse to
    (orderkey, supp_nation, year) cells before the first exchange and
    to the bounded |nation|²×|years| matrix after the last; revenue
    folds in exact integer 1e-4 units."""
    import pyarrow.parquet as pq

    sup = pq.read_table(_pq(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(_pq(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"])
    nk = nat.column("n_nationkey").to_numpy()
    nn = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    order = np.argsort(nk)
    nation_of = dict(zip(nk[order].tolist(), nn[order].tolist()))
    skey = sup.column("s_suppkey").to_numpy()
    snat = np.asarray([nation_of[int(k)] for k in
                       sup.column("s_nationkey").to_numpy()], dtype=object)
    sorder = np.argsort(skey)
    skey, snat, nk, nn = skey[sorder], snat[sorder], nk[order], nn[order]

    li = scan(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey",
                       "l_extendedprice", "l_discount",
                       "l_shipdate"])

    def li_partial(b: pa.Table) -> pa.Table:
        supp_n = snat[np.searchsorted(skey, b.column("l_suppkey").to_numpy())]
        return group_agg(pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "supp_nation": pa.array(supp_n, type=pa.string()),
            "ship_year": pc.cast(pc.year(b.column("l_shipdate")), pa.int32()),
            "rev_e4": pa.array(_rev_e4(b), type=pa.int64()),
        }), ["l_orderkey", "supp_nation", "ship_year"], _REV_SUM)

    orders = scan(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = scan(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def cell_partial(b: pa.Table) -> pa.Table:
        cust_n = nn[np.searchsorted(nk, b.column("c_nationkey").to_numpy())]
        return group_agg(pa.table({
            "supp_nation": b.column("supp_nation"),
            "cust_nation": pa.array(cust_n, type=pa.string()),
            "ship_year": b.column("ship_year"),
            "rev_e4": b.column("rev_e4"),
        }), ["supp_nation", "cust_nation", "ship_year"], _REV_SUM)

    def finish(g: pa.Table) -> pa.Table:
        f = g.group_by(["supp_nation", "cust_nation", "ship_year"]) \
             .aggregate([("rev_e4", "sum")])
        return pa.table({
            "supp_nation": f.column("supp_nation"),
            "cust_nation": f.column("cust_nation"),
            "ship_year": f.column("ship_year"),
            "revenue": pa.array(np.atleast_1d(round_half_away(
                f.column("rev_e4_sum").to_numpy() / 10000.0, 2)),
                type=pa.float64()),
        })

    return (
        hash_join(
            hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                     batch_size=65536),
                      orders, "inner", "l_orderkey", "o_orderkey"),
            cust, "inner", "o_custkey", "c_custkey")
        .map_batches(cell_partial, batch_format="pyarrow",
                     batch_size=65536)
        .groupby("supp_nation")
        .map_groups(finish, batch_format="pyarrow")
    )


# -------------------------------------------------------------- Q11 shape

def important_parts(sf_dir: str):
    """TPC-H-Q11-shaped HAVING against a GLOBAL scalar: parts whose
    discounted revenue exceeds 1.5× the MEAN part revenue (Q11's
    fraction scales as 1/|parts| — a fixed corpus share would select
    everything at small scale and nothing at large). The global total
    is one integer reduce (per-batch partial sums → Ray Sum —
    order-independent because the units are exact int64) broadcast back
    as a plain Python int; per-part sums fold in bounded partkey-hash
    buckets; the threshold compare ``2·|parts|·rev_e4 > 3·total_e4``
    is all integers so no float boundary row can flip engines."""
    import pyarrow.parquet as pq

    n_parts = pq.ParquetFile(_pq(sf_dir, "part")).metadata.num_rows
    n_buckets = _buckets(sf_dir, "lineitem")

    li = scan(sf_dir, "lineitem",
              columns=["l_partkey", "l_extendedprice",
                       "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        return _with_kb(group_agg(pa.table({
            "l_partkey": b.column("l_partkey"),
            "rev_e4": pa.array(_rev_e4(b), type=pa.int64()),
        }), "l_partkey", _REV_SUM), "l_partkey", n_buckets)

    partials = li.map_batches(partial, batch_format="pyarrow",
                              batch_size=65536)
    total_e4 = int(partials.sum("rev_e4"))

    def fold(g: pa.Table) -> pa.Table:
        f = g.group_by("l_partkey").aggregate([("rev_e4", "sum")])
        s = f.column("rev_e4_sum").to_numpy()
        # 2n·s > 3T  ⟺  s > (3T)//(2n) for integers (exact in both the
        # r==0 and r>0 divmod cases) — the threshold is one driver-side
        # Python int, so the vectorized compare never overflows int64
        thr = (3 * total_e4) // (2 * n_parts)
        keep = f.filter(pa.array(s > thr))
        return pa.table({
            "l_partkey": keep.column("l_partkey"),
            "part_revenue": pa.array(np.atleast_1d(round_half_away(
                keep.column("rev_e4_sum").to_numpy() / 10000.0, 2)),
                type=pa.float64()),
        })

    return partials.groupby("kb").map_groups(fold, batch_format="pyarrow")


# -------------------------------------------------------------- Q13 shape

def order_count_distribution(sf_dir: str):
    """TPC-H-Q13-shaped count-of-counts: the distribution of customers
    by how many orders they placed since the cutoff, ZEROS INCLUDED —
    composed from the ``customer_order_counts`` outer join (union-tag
    buckets) plus one fold over the bounded per-customer-count key
    space (max orders per customer is small at any corpus size)."""
    from .relational import customer_order_counts

    def cells(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_orders": b.column("n_orders"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    return combine(customer_order_counts(sf_dir), "n_orders",
                   {"n_customers": ("c", "sum")}, cells)


# -------------------------------------------------------------- Q15 shape

def top_supplier(sf_dir: str):
    """TPC-H-Q15-shaped argmax over a grouped aggregate, TIES KEPT: the
    supplier(s) with the highest discounted revenue over a ship-date
    window. Per-supplier sums fold in bounded suppkey-hash buckets;
    each bucket emits only ITS max-tied rows, so the driver's global
    argmax sees ≤ties×n_buckets rows — never one per supplier. The tie
    decision compares exact integer units; only the reported revenue is
    rounded. Supplier names resolve via the dimension broadcast."""
    import pyarrow.parquet as pq

    n_buckets = _buckets(sf_dir, "lineitem")
    lo = pa.scalar(_dt.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), type=pa.timestamp("us"))

    li = scan(sf_dir, "lineitem",
              columns=["l_suppkey", "l_extendedprice",
                       "l_discount", "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        win = b.filter(pc.and_(
            pc.greater_equal(b.column("l_shipdate"), lo),
            pc.less(b.column("l_shipdate"), hi)))
        return _with_kb(group_agg(pa.table({
            "l_suppkey": win.column("l_suppkey"),
            "rev_e4": pa.array(_rev_e4(win), type=pa.int64()),
        }), "l_suppkey", _REV_SUM), "l_suppkey", n_buckets)

    def bucket_max(g: pa.Table) -> pa.Table:
        f = g.group_by("l_suppkey").aggregate([("rev_e4", "sum")])
        s = f.column("rev_e4_sum").to_numpy()
        if len(s) == 0:
            return pa.table({"l_suppkey": pa.array([], type=pa.int64()),
                             "rev_e4": pa.array([], type=pa.int64())})
        keep = f.filter(pa.array(s == s.max()))
        return pa.table({"l_suppkey": keep.column("l_suppkey"),
                         "rev_e4": keep.column("rev_e4_sum")})

    cand = (li.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("kb")
            .map_groups(bucket_max, batch_format="pyarrow")
            ).to_pandas()          # ≤ ties × n_buckets rows by construction
    best = int(cand["rev_e4"].max())
    win = cand[cand["rev_e4"] == best].sort_values(
        "l_suppkey", ignore_index=True)

    names = pq.read_table(
        _pq(sf_dir, "supplier"), columns=["s_suppkey", "s_name"])
    sk = names.column("s_suppkey").to_numpy()
    sn = np.asarray(names.column("s_name").to_pylist(), dtype=object)
    order = np.argsort(sk)
    nm = sn[order][np.searchsorted(
        sk[order], win["l_suppkey"].to_numpy())]
    return pa.table({
        "s_suppkey": pa.array(win["l_suppkey"].to_numpy(),
                              type=pa.int64()),
        "s_name": pa.array(nm, type=pa.string()),
        "total_revenue": pa.array(np.atleast_1d(round_half_away(
            win["rev_e4"].to_numpy() / 10000.0, 2)), type=pa.float64()),
    })


# -------------------------------------------------------------- Q17 shape

def small_quantity_revenue(sf_dir: str):
    """TPC-H-Q17-shaped correlated per-key scalar subquery: average
    yearly revenue lost to "small" lineitems — those with quantity
    below half their part's corpus-wide mean quantity. Per-part
    (sum_qty, cnt) folds in bounded partkey-hash buckets, hash-joins
    BACK onto lineitem (big ⋈ big, co-partitioned by partkey), and the
    filter ``2·qty·cnt < sum_qty`` compares exact integer 1e-2 units so
    no float average decides a boundary row. Output is one scalar."""
    n_buckets = _buckets(sf_dir, "lineitem")

    li = scan(sf_dir, "lineitem",
              columns=["l_partkey", "l_quantity",
                       "l_extendedprice"])

    stat_sums = {"sq": ("sq", "sum"), "cnt": ("cnt", "sum")}

    def stat_partial(b: pa.Table) -> pa.Table:
        q_e2 = np.rint(
            b.column("l_quantity").to_numpy() * 100.0).astype(np.int64)
        return _with_kb(group_agg(pa.table({
            "p": b.column("l_partkey"),
            "sq": pa.array(q_e2, type=pa.int64()),
            "cnt": pa.array(np.ones(len(q_e2), dtype=np.int64)),
        }), "p", stat_sums), "p", n_buckets)

    def stat_fold(g: pa.Table) -> pa.Table:
        return group_agg(g, "p", stat_sums)

    stats = (li.map_batches(stat_partial, batch_format="pyarrow",
                            batch_size=65536)
             .groupby("kb")
             .map_groups(stat_fold, batch_format="pyarrow"))

    def small_rev(b: pa.Table) -> pa.Table:
        q_e2 = np.rint(
            b.column("l_quantity").to_numpy() * 100.0).astype(np.int64)
        cnt = b.column("cnt").to_numpy()
        sq = b.column("sq").to_numpy()
        cents = np.rint(
            b.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        small = 2 * q_e2 * cnt < sq
        return pa.table({"rev_c": pa.array(
            [int(cents[small].sum())], type=pa.int64())})

    joined = hash_join(li, stats, "inner", "l_partkey", "p")
    total_c = joined.map_batches(
        small_rev, batch_format="pyarrow", batch_size=65536).sum("rev_c")
    return pa.table({"avg_yearly": pa.array(
        [round_half_away(np.array([total_c / 100.0 / 7.0]), 2)[0]],
        type=pa.float64())})


# -------------------------------------------------------------- Q18 shape

def large_orders(sf_dir: str):
    """TPC-H-Q18-shaped HAVING + join-back: orders whose total quantity
    exceeds 250 (≈1% of orders), reported with order date, price and
    the total. Per-order quantity folds in bounded orderkey-hash
    buckets (integer 1e-2 units), the surviving keys hash-join back to
    orders (the filtered side is small but unbounded → a partitioned
    join, not a broadcast), sorted by total desc / key asc, top 100."""
    n_buckets = _buckets(sf_dir, "lineitem")
    threshold_e2 = 250 * 100

    li = scan(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty_partial(b: pa.Table) -> pa.Table:
        q_e2 = np.rint(
            b.column("l_quantity").to_numpy() * 100.0).astype(np.int64)
        return _with_kb(group_agg(pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "q": pa.array(q_e2, type=pa.int64()),
        }), "l_orderkey", {"q": ("q", "sum")}), "l_orderkey", n_buckets)

    def qty_fold(g: pa.Table) -> pa.Table:
        f = g.group_by("l_orderkey").aggregate([("q", "sum")])
        s = f.column("q_sum").to_numpy()
        keep = f.filter(pa.array(s > threshold_e2))
        return pa.table({
            "l_orderkey": keep.column("l_orderkey"),
            "total_qty": pa.array(np.atleast_1d(round_half_away(
                keep.column("q_sum").to_numpy() / 100.0, 2)),
                type=pa.float64()),
        })

    orders = scan(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderdate",
                           "o_totalprice"])

    return (
        hash_join(li.map_batches(qty_partial, batch_format="pyarrow",
                                 batch_size=65536)
                  .groupby("kb")
                  .map_groups(qty_fold, batch_format="pyarrow"),
                  orders, "inner", "l_orderkey", "o_orderkey")
        .map_batches(lambda b: b.select(
            ["l_orderkey", "o_orderdate", "o_totalprice", "total_qty"]),
            batch_format="pyarrow")
        .sort(["total_qty", "l_orderkey"], descending=[True, False])
        .limit(100)
    )


# --------------------------------------------------------------- Q12 shape

def priority_line_counts(sf_dir: str):
    """TPC-H-Q12-shaped priority split (the schema has no l_shipmode,
    so the return flag plays the mode): per l_returnflag, how many
    1996-shipped lineitems belong to HIGH-priority orders (1-URGENT /
    2-HIGH) vs everything else — Q12's CASE-inside-SUM over a big⋈big
    join, completing the 22/22 TPC-H shape census.

    Scale shape: the shipdate year filter prunes at the READ
    (row-group predicate), lineitems pre-collapse per batch to
    (orderkey, flag, n) cells before the hash-partitioned join onto
    orders, the CASE split runs vectorized on the joined batches, and
    the final fold is the ≤3-row flag key space. Exact integer
    counts."""
    import datetime as dt

    import pyarrow.dataset as pads

    lo = dt.datetime(1996, 1, 1)
    hi = dt.datetime(1997, 1, 1)
    li = scan(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
               & (pads.field("l_shipdate") < hi))

    def li_partial(b: pa.Table) -> pa.Table:
        return group_agg(pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "flag": b.column("l_returnflag"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        }), ["l_orderkey", "flag"], {"n": ("n", "sum")})

    orders = scan(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def split(b: pa.Table) -> pa.Table:
        pr = b.column("o_orderpriority").to_numpy(zero_copy_only=False)
        hi_mask = (pr == "1-URGENT") | (pr == "2-HIGH")
        n = b.column("n").to_numpy(zero_copy_only=False)
        return pa.table({
            "flag": b.column("flag"),
            "high": pa.array(np.where(hi_mask, n, 0)),
            "low": pa.array(np.where(hi_mask, 0, n)),
        })

    return combine(
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  orders, "inner", "l_orderkey", "o_orderkey"),
        "flag", {"high_line_count": ("high", "sum"),
                 "low_line_count": ("low", "sum")}, split)


_Q12_SQL = """
SELECT l_returnflag AS flag,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
            THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
            THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY l_returnflag
"""


ORACLE_SQL = {
    "priority_line_counts": _Q12_SQL,
    "order_priority_exists": """
        SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
        FROM orders
        WHERE EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_shipdate > o_orderdate + INTERVAL 30 DAY)
        GROUP BY o_orderpriority
    """,
    "trade_volume": f"""
        SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
               CAST(EXTRACT(year FROM l_shipdate) AS INT) AS ship_year,
               ROUND(SUM({_REV_E4_SQL}) / 10000.0, 2) AS revenue
        FROM lineitem
        JOIN orders   ON o_orderkey = l_orderkey
        JOIN customer ON c_custkey = o_custkey
        JOIN supplier ON s_suppkey = l_suppkey
        JOIN nation sn ON sn.n_nationkey = s_nationkey
        JOIN nation cn ON cn.n_nationkey = c_nationkey
        GROUP BY sn.n_name, cn.n_name, ship_year
    """,
    "important_parts": f"""
        WITH p AS (SELECT l_partkey, SUM({_REV_E4_SQL}) AS rev_e4
                   FROM lineitem GROUP BY l_partkey),
             t AS (SELECT SUM({_REV_E4_SQL}) AS total_e4 FROM lineitem),
             n AS (SELECT COUNT(*) AS n_parts FROM part)
        SELECT l_partkey, ROUND(rev_e4 / 10000.0, 2) AS part_revenue
        FROM p CROSS JOIN t CROSS JOIN n
        WHERE 2 * n_parts * rev_e4 > 3 * total_e4
    """,
    "order_count_distribution": """
        WITH c AS (
          SELECT c_custkey, COUNT(o_orderkey) AS n_orders
          FROM customer LEFT JOIN orders
            ON o_custkey = c_custkey
           AND o_orderdate >= TIMESTAMP '2000-01-01'
          GROUP BY c_custkey)
        SELECT n_orders, CAST(COUNT(*) AS BIGINT) AS n_customers
        FROM c GROUP BY n_orders
    """,
    "top_supplier": f"""
        WITH r AS (
          SELECT l_suppkey, SUM({_REV_E4_SQL}) AS rev_e4
          FROM lineitem
          WHERE l_shipdate >= TIMESTAMP '1996-01-01'
            AND l_shipdate <  TIMESTAMP '1997-01-01'
          GROUP BY l_suppkey)
        SELECT s_suppkey, s_name,
               ROUND(rev_e4 / 10000.0, 2) AS total_revenue
        FROM r JOIN supplier ON s_suppkey = l_suppkey
        WHERE rev_e4 = (SELECT MAX(rev_e4) FROM r)
    """,
    "small_quantity_revenue": """
        WITH s AS (
          SELECT l_partkey AS p,
                 SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS sq,
                 COUNT(*) AS cnt
          FROM lineitem GROUP BY l_partkey)
        SELECT ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     / 100.0 / 7.0, 2) AS avg_yearly
        FROM lineitem JOIN s ON p = l_partkey
        WHERE 2 * CAST(ROUND(l_quantity * 100) AS BIGINT) * cnt < sq
    """,
    "large_orders": """
        WITH q AS (
          SELECT l_orderkey,
                 SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS q_e2
          FROM lineitem GROUP BY l_orderkey
          HAVING q_e2 > 25000)
        SELECT l_orderkey, o_orderdate, o_totalprice,
               ROUND(q_e2 / 100.0, 2) AS total_qty
        FROM q JOIN orders ON o_orderkey = l_orderkey
        ORDER BY total_qty DESC, l_orderkey LIMIT 100
    """,
}

QUERIES = {
    "priority_line_counts": priority_line_counts,
    "order_priority_exists": order_priority_exists,
    "trade_volume": trade_volume,
    "important_parts": important_parts,
    "order_count_distribution": order_count_distribution,
    "top_supplier": top_supplier,
    "small_quantity_revenue": small_quantity_revenue,
    "large_orders": large_orders,
}
