"""Third relational batch — the remaining TPC-H join/aggregate shapes,
adapted to this corpus' schema (no ``partsupp``, no ``l_shipmode``/
``l_commitdate``), each as a scale-shaped Ray Data pipeline with a
value-checked DuckDB oracle:

* Q5  — same-nation customer/supplier revenue (``local_supplier_revenue``)
* Q8  — national market share of a part type (``market_share``)
* Q9  — product-line profit by nation × year (``product_type_profit``)
* Q10 — returned-item revenue ranking, top 20 (``returned_item_customers``)
* Q19 — disjunctive bracket predicate revenue (``bracket_revenue``)
* Q16 — distinct supplier variety per part group (``supplier_part_variety``)
* Q20 — dominant-share suppliers of a part family (``bulk_suppliers``)
* Q2  — argmax-with-ties supplier per part (``min_balance_supplier``)

Shared discipline (see ``relational.py`` / ``tpch_more.py`` headers):
column-pruned reads, per-batch Arrow ``group_by`` combiners before any
exchange (:mod:`combine`'s ``group_agg``/``fold``), bounded key-hash
buckets + ``map_groups`` for corpus-scale keyed folds, the shared
:func:`exchange.hash_join` for big ⋈ big, broadcast lookups captured in
the map's closure for true dimensions (part/supplier/nation — the tables
that stay catalog-sized as lineitem/orders/customer grow), and
integer currency/quantity units everywhere a float sum could make the
result depend on summation order. Ordering ties are always broken on
the EXACT integer value plus a unique key, and the oracle sorts on the
same exact expression, so LIMIT boundaries can't disagree.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import round_half_away
from .combine import combine, fold, group_agg
from .exchange import hash_join
from .inputs import _pq, scan
from .tpch_more import _REV_E4_SQL, _REV_SUM, _buckets, _rev_e4, _with_kb


def _supp_nation_lookup(sf_dir: str):
    """(sorted suppkeys, nation name per suppkey, nationkey→name dict,
    nationkey→regionkey dict) — supplier/nation are catalog dimensions."""
    import pyarrow.parquet as pq

    sup = pq.read_table(_pq(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(_pq(sf_dir, "nation"))
    nation_of = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))
    region_of = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_regionkey").to_pylist()))
    skey = sup.column("s_suppkey").to_numpy()
    snatk = sup.column("s_nationkey").to_numpy()
    order = np.argsort(skey)
    return skey[order], snatk[order], nation_of, region_of


# --------------------------------------------------------------- Q5 shape

def local_supplier_revenue(sf_dir: str):
    """TPC-H-Q5-shaped local-supplier volume: discounted revenue per
    nation from 1996 orders where the ordering customer and the
    shipping supplier sit in the SAME nation of one region.

    The supplier→nation chain is a broadcast int lookup; customer is
    corpus-scale, so the c_nationkey ride-along goes through two
    hash-partitioned big ⋈ big joins (orders ⋈ customer, then
    lineitem ⋈ that). Lineitem batches pre-collapse to (orderkey,
    supp_nationkey) revenue cells before the join; the same-nation
    compare and the ≤|nation| final fold run after it."""
    import pyarrow.parquet as pq

    skey, snatk, nation_of, region_of = _supp_nation_lookup(sf_dir)
    reg = pq.read_table(_pq(sf_dir, "region"))
    region_key = dict(zip(reg.column("r_name").to_pylist(),
                          reg.column("r_regionkey").to_pylist()))["ASIA"]
    in_region = {k for k, r in region_of.items() if r == region_key}

    lo = pa.scalar(_dt.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), type=pa.timestamp("us"))

    orders = scan(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey",
                           "o_orderdate"])

    def o_window(b: pa.Table) -> pa.Table:
        w = b.filter(pc.and_(pc.greater_equal(b.column("o_orderdate"), lo),
                             pc.less(b.column("o_orderdate"), hi)))
        return w.select(["o_orderkey", "o_custkey"])

    cust = scan(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    oc = hash_join(orders.map_batches(o_window, batch_format="pyarrow",
                                      batch_size=65536),
                   cust, "inner", "o_custkey", "c_custkey")

    li = scan(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey",
                       "l_extendedprice", "l_discount"])
    in_region_arr = np.sort(np.fromiter(in_region, dtype=np.int64))

    def li_partial(b: pa.Table) -> pa.Table:
        s_nat = snatk[np.searchsorted(skey,
                                      b.column("l_suppkey").to_numpy())]
        keep = np.isin(s_nat, in_region_arr)
        sub = b.filter(pa.array(keep))
        return group_agg(pa.table({
            "l_orderkey": sub.column("l_orderkey"),
            "s_nationkey": pa.array(s_nat[keep].astype(np.int32)),
            "rev_e4": pa.array(_rev_e4(sub), type=pa.int64()),
        }), ["l_orderkey", "s_nationkey"], _REV_SUM)

    def same_nation(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("s_nationkey").cast(pa.int32()),
                                 b.column("c_nationkey").cast(pa.int32())))

    folded = combine(
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  oc, "inner", "l_orderkey", "o_orderkey"),
        "s_nationkey", _REV_SUM, same_nation).to_pandas()

    names = [nation_of[int(k)] for k in folded["s_nationkey"]]
    rev = [round_half_away(int(v) / 10000.0, 2) for v in folded["rev_e4"]]
    return pa.table({"n_name": pa.array(names, type=pa.string()),
                     "revenue": pa.array(rev, type=pa.float64())})


# --------------------------------------------------------------- Q8 shape

def market_share(sf_dir: str):
    """TPC-H-Q8-shaped market share: NATION_3's fraction of ECONOMY-part
    discounted revenue per order year (1995–1996). Part and supplier
    sides are broadcast dimension lookups; the order-year ride-along is
    the one big ⋈ big join. Numerator and denominator fold as exact
    integer partial sums per (orderkey) cell, so the final ≤2-row
    division is the only float step."""
    import pyarrow.parquet as pq

    part = pq.read_table(_pq(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy()
    keep_parts = np.sort(pk[np.asarray(
        pc.equal(part.column("p_type"), "ECONOMY"))])
    skey, snatk, nation_of, _ = _supp_nation_lookup(sf_dir)
    target = np.sort(np.asarray(
        [k for k, n in nation_of.items() if n == "NATION_3"],
        dtype=snatk.dtype))

    lo = pa.scalar(_dt.datetime(1995, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), type=pa.timestamp("us"))
    orders = scan(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def o_window(b: pa.Table) -> pa.Table:
        w = b.filter(pc.and_(pc.greater_equal(b.column("o_orderdate"), lo),
                             pc.less(b.column("o_orderdate"), hi)))
        return pa.table({
            "o_orderkey": w.column("o_orderkey"),
            "o_year": pc.cast(pc.year(w.column("o_orderdate")), pa.int32()),
        })

    li = scan(sf_dir, "lineitem",
              columns=["l_orderkey", "l_partkey", "l_suppkey",
                       "l_extendedprice", "l_discount"])

    def li_partial(b: pa.Table) -> pa.Table:
        pkv = b.column("l_partkey").to_numpy()
        keep = np.isin(pkv, keep_parts)
        sub = b.filter(pa.array(keep))
        s_nat = snatk[np.searchsorted(skey,
                                      sub.column("l_suppkey").to_numpy())]
        rev = _rev_e4(sub)
        is_tgt = np.isin(s_nat, target)
        return group_agg(pa.table({
            "l_orderkey": sub.column("l_orderkey"),
            "rev_e4": pa.array(rev, type=pa.int64()),
            "tgt_e4": pa.array(np.where(is_tgt, rev, 0), type=pa.int64()),
        }), "l_orderkey", sums)

    sums = {"rev_e4": ("rev_e4", "sum"), "tgt_e4": ("tgt_e4", "sum")}
    folded = combine(
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  orders.map_batches(o_window, batch_format="pyarrow",
                                     batch_size=65536),
                  "inner", "l_orderkey", "o_orderkey"),
        "o_year", sums).to_pandas().sort_values("o_year")

    share = [round_half_away(float(t) / float(r), 6)
             for t, r in zip(folded["tgt_e4"], folded["rev_e4"])]
    return pa.table({
        "o_year": pa.array(folded["o_year"].to_numpy().astype(np.int32)),
        "mkt_share": pa.array(share, type=pa.float64()),
    })


# --------------------------------------------------------------- Q9 shape

def product_type_profit(sf_dir: str):
    """TPC-H-Q9-shaped product-line profit by (supplier nation, order
    year) for parts named "... widget". With no ``partsupp`` table the
    supply cost is modeled as 10% of ``p_retailprice`` per unit, so
    profit = rev_e4·10 − retail_cents·qty_e2 stays an exact int64 in
    1e-5 dollar units. Part (name-filtered) and supplier→nation are
    broadcast dimensions; order year rides the one big ⋈ big join."""
    import pyarrow.parquet as pq

    part = pq.read_table(_pq(sf_dir, "part"),
                         columns=["p_partkey", "p_name", "p_retailprice"])
    is_widget = np.asarray([
        len(n.split(" ")) > 1 and n.split(" ")[1] == "widget"
        for n in part.column("p_name").to_pylist()])
    pk = part.column("p_partkey").to_numpy()[is_widget]
    retail_cents = np.rint(
        part.column("p_retailprice").to_numpy()[is_widget] * 100.0
    ).astype(np.int64)
    order = np.argsort(pk)
    pks, cents = pk[order], retail_cents[order]
    skey, snatk, nation_of, _ = _supp_nation_lookup(sf_dir)

    orders = scan(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def o_year(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_year": pc.cast(pc.year(b.column("o_orderdate")), pa.int32()),
        })

    li = scan(sf_dir, "lineitem",
              columns=["l_orderkey", "l_partkey", "l_suppkey",
                       "l_quantity", "l_extendedprice",
                       "l_discount"])

    def li_partial(b: pa.Table) -> pa.Table:
        pkv = b.column("l_partkey").to_numpy()
        keep = np.isin(pkv, pks)
        sub = b.filter(pa.array(keep))
        pos = np.searchsorted(pks, sub.column("l_partkey").to_numpy())
        qty_e2 = np.rint(
            sub.column("l_quantity").to_numpy() * 100.0).astype(np.int64)
        profit_e5 = _rev_e4(sub) * 10 - cents[pos] * qty_e2
        s_nat = snatk[np.searchsorted(skey,
                                      sub.column("l_suppkey").to_numpy())]
        return group_agg(pa.table({
            "l_orderkey": sub.column("l_orderkey"),
            "s_nationkey": pa.array(s_nat.astype(np.int32)),
            "profit_e5": pa.array(profit_e5, type=pa.int64()),
        }), ["l_orderkey", "s_nationkey"], profit_sum)

    profit_sum = {"profit_e5": ("profit_e5", "sum")}
    folded = combine(
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  orders.map_batches(o_year, batch_format="pyarrow",
                                     batch_size=65536),
                  "inner", "l_orderkey", "o_orderkey"),
        ["s_nationkey", "o_year"], profit_sum).to_pandas()

    names = [nation_of[int(k)] for k in folded["s_nationkey"]]
    profit = [round_half_away(int(v) / 100000.0, 2)
              for v in folded["profit_e5"]]
    return pa.table({
        "nation": pa.array(names, type=pa.string()),
        "o_year": pa.array(folded["o_year"].to_numpy().astype(np.int32)),
        "profit": pa.array(profit, type=pa.float64()),
    })


# -------------------------------------------------------------- Q10 shape

def returned_item_customers(sf_dir: str):
    """TPC-H-Q10-shaped returned-item ranking: the 20 customers who lost
    the most discounted revenue to returns (``l_returnflag='R'``) on
    1996-Q1 orders. Revenue folds per custkey in bounded key-hash
    buckets; each bucket emits only ITS top 20 (by exact int revenue,
    custkey tiebreak), so the driver merge sees ≤20×buckets rows. The
    20 winners' names resolve via an id-filtered parquet read — never a
    full customer materialization."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    n_buckets = _buckets(sf_dir, "lineitem")
    lo = pa.scalar(_dt.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 4, 1), type=pa.timestamp("us"))

    orders = scan(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey",
                           "o_orderdate"])

    def o_window(b: pa.Table) -> pa.Table:
        w = b.filter(pc.and_(pc.greater_equal(b.column("o_orderdate"), lo),
                             pc.less(b.column("o_orderdate"), hi)))
        return w.select(["o_orderkey", "o_custkey"])

    li = scan(sf_dir, "lineitem",
              columns=["l_orderkey", "l_returnflag",
                       "l_extendedprice", "l_discount"])

    def li_partial(b: pa.Table) -> pa.Table:
        sub = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        return group_agg(pa.table({
            "l_orderkey": sub.column("l_orderkey"),
            "rev_e4": pa.array(_rev_e4(sub), type=pa.int64()),
        }), "l_orderkey", _REV_SUM)

    def cust_partial(b: pa.Table) -> pa.Table:
        return _with_kb(group_agg(b, "o_custkey", _REV_SUM),
                        "o_custkey", n_buckets)

    def bucket_top(g: pa.Table) -> pa.Table:
        f = g.group_by("o_custkey").aggregate([("rev_e4", "sum")])
        ck = f.column("o_custkey").to_numpy()
        rv = f.column("rev_e4_sum").to_numpy()
        order = np.lexsort((ck, -rv))[:20]
        return pa.table({"o_custkey": pa.array(ck[order]),
                         "rev_e4": pa.array(rv[order])})

    cand = (
        hash_join(li.map_batches(li_partial, batch_format="pyarrow",
                                 batch_size=65536),
                  orders.map_batches(o_window, batch_format="pyarrow",
                                     batch_size=65536),
                  "inner", "l_orderkey", "o_orderkey")
        .map_batches(cust_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("kb")
        .map_groups(bucket_top, batch_format="pyarrow")
    ).to_pandas()

    order = np.lexsort((cand["o_custkey"].to_numpy(),
                        -cand["rev_e4"].to_numpy()))[:20]
    top = cand.iloc[order]
    keys = top["o_custkey"].to_numpy()

    cust = pads.dataset(_pq(sf_dir, "customer")).to_table(
        columns=["c_custkey", "c_name", "c_nationkey"],
        filter=pads.field("c_custkey").isin(keys.tolist()))
    name_of = dict(zip(cust.column("c_custkey").to_pylist(),
                       cust.column("c_name").to_pylist()))
    natk_of = dict(zip(cust.column("c_custkey").to_pylist(),
                       cust.column("c_nationkey").to_pylist()))
    nat = pq.read_table(_pq(sf_dir, "nation"))
    nation_of = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))
    return pa.table({
        "c_custkey": pa.array(keys, type=pa.int64()),
        "c_name": pa.array([name_of[int(k)] for k in keys],
                           type=pa.string()),
        "n_name": pa.array([nation_of[natk_of[int(k)]] for k in keys],
                           type=pa.string()),
        "revenue": pa.array(
            [round_half_away(int(v) / 10000.0, 2)
             for v in top["rev_e4"]], type=pa.float64()),
    })


# -------------------------------------------------------------- Q19 shape

def bracket_revenue(sf_dir: str):
    """TPC-H-Q19-shaped disjunctive bracket predicate: one revenue
    scalar over three (brand, size-range, quantity-range) OR-brackets.
    The brand/size side pre-filters the part dimension at read time and
    broadcasts partkey→bracket; the quantity check is a vectorized
    per-batch mask, so the whole query is one streaming pass over
    lineitem plus a ≤1-row fold."""
    import pyarrow.parquet as pq

    brackets = [("Brand#3", 5, 1, 11), ("Brand#13", 10, 10, 20),
                ("Brand#23", 15, 20, 30)]
    part = pq.read_table(_pq(sf_dir, "part"),
                         columns=["p_partkey", "p_brand", "p_size"])
    pk = part.column("p_partkey").to_numpy()
    brand = np.asarray(part.column("p_brand").to_pylist(), dtype=object)
    size = part.column("p_size").to_numpy()
    keys, qlo, qhi = [], [], []
    for b, smax, ql, qh in brackets:
        m = (brand == b) & (size >= 1) & (size <= smax)
        keys.append(pk[m])
        qlo.append(np.full(m.sum(), ql, dtype=np.int64))
        qhi.append(np.full(m.sum(), qh, dtype=np.int64))
    keys = np.concatenate(keys)
    qlo = np.concatenate(qlo)
    qhi = np.concatenate(qhi)
    order = np.argsort(keys)
    pks, lo_q, hi_q = keys[order], qlo[order], qhi[order]

    li = scan(sf_dir, "lineitem",
              columns=["l_partkey", "l_quantity",
                       "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        pkv = b.column("l_partkey").to_numpy()
        hit = np.isin(pkv, pks)
        sub = b.filter(pa.array(hit))
        pos = np.searchsorted(pks, sub.column("l_partkey").to_numpy())
        qty = sub.column("l_quantity").to_numpy()
        m = (qty >= lo_q[pos]) & (qty <= hi_q[pos])
        rev = int(_rev_e4(sub.filter(pa.array(m))).sum())
        return pa.table({"rev_e4": pa.array([rev], type=pa.int64())})

    total = int(li.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536)
                .sum("rev_e4") or 0)
    return pa.table({"revenue": pa.array(
        [round_half_away(total / 10000.0, 2)], type=pa.float64())})


# -------------------------------------------------------------- Q16 shape

def supplier_part_variety(sf_dir: str):
    """TPC-H-Q16-shaped supplier variety: distinct suppliers per
    (brand, type, size) part group, from shipped lineitems (standing in
    for ``partsupp``), excluding Brand#1 and PROMO parts. Two bucketed
    distinct folds — (partkey, suppkey) pairs, then (group, suppkey) —
    keep every exchange bounded; the final count groups a catalog-sized
    key space."""
    import pyarrow.parquet as pq

    n_buckets = _buckets(sf_dir, "lineitem")
    sizes = (1, 5, 10, 15, 20, 25, 30, 35, 40, 45)
    part = pq.read_table(_pq(sf_dir, "part"),
                         columns=["p_partkey", "p_brand", "p_type",
                                  "p_size"])
    brand = np.asarray(part.column("p_brand").to_pylist(), dtype=object)
    ptype = np.asarray(part.column("p_type").to_pylist(), dtype=object)
    size = part.column("p_size").to_numpy()
    m = (brand != "Brand#1") & (ptype != "PROMO") & np.isin(size, sizes)
    pk = part.column("p_partkey").to_numpy()[m]
    order = np.argsort(pk)
    pks, br, ty, sz = (pk[order], brand[m][order], ptype[m][order],
                       size[m][order])

    li = scan(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pair_partial(b: pa.Table) -> pa.Table:
        keep = np.isin(b.column("l_partkey").to_numpy(), pks)
        sub = b.filter(pa.array(keep))
        g = sub.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        key = (g.column("l_partkey").to_numpy() * 1000003
               + g.column("l_suppkey").to_numpy())
        return pa.table({
            "l_partkey": g.column("l_partkey"),
            "l_suppkey": g.column("l_suppkey"),
            "kb": pa.array((key % n_buckets).astype(np.int32)),
        })

    def pair_fold(g: pa.Table) -> pa.Table:
        f = g.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        pos = np.searchsorted(pks, f.column("l_partkey").to_numpy())
        sk = f.column("l_suppkey").to_numpy()
        t = pa.table({
            "p_brand": pa.array(br[pos], type=pa.string()),
            "p_type": pa.array(ty[pos], type=pa.string()),
            "p_size": pa.array(sz[pos].astype(np.int32)),
            "l_suppkey": pa.array(sk),
        }).group_by(["p_brand", "p_type", "p_size", "l_suppkey"]).aggregate(
            [])
        # deterministic bucket key (NEVER Python hash(): it is salted
        # per process, so equal rows would scatter across buckets): all
        # rows of one (group, suppkey) cell share (suppkey, size), which
        # already pins them to one bucket
        h = (t.column("l_suppkey").to_numpy() * np.int64(1000003)
             + t.column("p_size").to_numpy().astype(np.int64))
        return t.append_column(
            "gb", pa.array((h % n_buckets).astype(np.int32)))

    def group_fold(g: pa.Table) -> pa.Table:
        f = g.group_by(["p_brand", "p_type", "p_size",
                        "l_suppkey"]).aggregate([])
        return group_agg(f.append_column(
            "n", pa.array(np.ones(f.num_rows, dtype=np.int64))),
            group, {"supplier_cnt": ("n", "sum")})

    group = ["p_brand", "p_type", "p_size"]
    return fold(
        li.map_batches(pair_partial, batch_format="pyarrow",
                       batch_size=65536)
        .groupby("kb")
        .map_groups(pair_fold, batch_format="pyarrow")
        .groupby("gb")
        .map_groups(group_fold, batch_format="pyarrow"),
        group, {"supplier_cnt": ("supplier_cnt", "sum")})


# -------------------------------------------------------------- Q20 shape

def bulk_suppliers(sf_dir: str):
    """TPC-H-Q20-shaped dominant suppliers: suppliers who shipped more
    than 2× their FAIR share (total/n_suppliers) of any "blue ..."
    part — a relative test that stays non-trivial as supplier counts
    grow with scale. (partkey, suppkey) quantity cells combine per
    batch, fold in partkey-hash buckets (a part's whole group lands in
    one bucket, so the share test is local), and the qualified supplier
    set — already ≤|supplier| — resolves names via the dimension
    read."""
    import pyarrow.parquet as pq

    n_buckets = _buckets(sf_dir, "lineitem")
    part = pq.read_table(_pq(sf_dir, "part"),
                         columns=["p_partkey", "p_name"])
    is_blue = np.asarray([n.startswith("blue ")
                          for n in part.column("p_name").to_pylist()])
    pks = np.sort(part.column("p_partkey").to_numpy()[is_blue])

    li = scan(sf_dir, "lineitem",
              columns=["l_partkey", "l_suppkey", "l_quantity"])

    def partial(b: pa.Table) -> pa.Table:
        keep = np.isin(b.column("l_partkey").to_numpy(), pks)
        sub = b.filter(pa.array(keep))
        qty_e2 = np.rint(
            sub.column("l_quantity").to_numpy() * 100.0).astype(np.int64)
        return _with_kb(group_agg(pa.table({
            "l_partkey": sub.column("l_partkey"),
            "l_suppkey": sub.column("l_suppkey"),
            "qty_e2": pa.array(qty_e2, type=pa.int64()),
        }), ["l_partkey", "l_suppkey"], {"qty_e2": ("qty_e2", "sum")}),
            "l_partkey", n_buckets)

    def bucket_share(g: pa.Table) -> pa.Table:
        f = g.group_by(["l_partkey", "l_suppkey"]).aggregate(
            [("qty_e2", "sum")])
        tot = f.group_by("l_partkey").aggregate(
            [("qty_e2_sum", "sum"), ("qty_e2_sum", "count")])
        tk = tot.column("l_partkey").to_numpy()
        tv = tot.column("qty_e2_sum_sum").to_numpy()
        tn = tot.column("qty_e2_sum_count").to_numpy().astype(np.int64)
        order = np.argsort(tk)
        pos = np.searchsorted(tk[order],
                              f.column("l_partkey").to_numpy())
        total = tv[order][pos]
        nsupp = tn[order][pos]
        q = f.column("qty_e2_sum").to_numpy()
        keep = q * nsupp > 2 * total
        sk = np.unique(f.column("l_suppkey").to_numpy()[keep])
        return pa.table({"l_suppkey": pa.array(sk, type=pa.int64())})

    qualified = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("kb")
        .map_groups(bucket_share, batch_format="pyarrow")
    ).to_pandas()
    sk = np.unique(qualified["l_suppkey"].to_numpy())

    sup = pq.read_table(_pq(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_name"])
    name_of = dict(zip(sup.column("s_suppkey").to_pylist(),
                       sup.column("s_name").to_pylist()))
    return pa.table({
        "s_suppkey": pa.array(sk, type=pa.int64()),
        "s_name": pa.array([name_of[int(k)] for k in sk],
                           type=pa.string()),
    })


# --------------------------------------------------------------- Q2 shape

def min_balance_supplier(sf_dir: str):
    """TPC-H-Q2-shaped best-supplier-per-part, TIES KEPT: for every
    size-15 part that shipped, the supplier(s) with the highest account
    balance among its shippers (``partsupp``'s min-cost pick stood in
    by the supplier dimension's balance). Distinct (part, supplier)
    pairs fold in partkey-hash buckets where the per-part argmax is
    local; the top-100 order is a distributed ``sort``+``limit`` on a
    total order (balance desc, partkey, suppkey), never a driver sort."""
    import pyarrow.parquet as pq

    n_buckets = _buckets(sf_dir, "lineitem")
    part = pq.read_table(_pq(sf_dir, "part"),
                         columns=["p_partkey", "p_name", "p_size"])
    m = np.asarray(pc.equal(part.column("p_size"), 15))
    pk = part.column("p_partkey").to_numpy()[m]
    pname = np.asarray(part.column("p_name").to_pylist(), dtype=object)[m]
    order = np.argsort(pk)
    sup = pq.read_table(_pq(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_name", "s_acctbal"])
    sk = sup.column("s_suppkey").to_numpy()
    sorder = np.argsort(sk)
    pks, pn, sks = pk[order], pname[order], sk[sorder]
    snm = np.asarray(sup.column("s_name").to_pylist(), dtype=object)[sorder]
    bal = sup.column("s_acctbal").to_numpy()[sorder]

    li = scan(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pair_partial(b: pa.Table) -> pa.Table:
        keep = np.isin(b.column("l_partkey").to_numpy(), pks)
        sub = b.filter(pa.array(keep))
        g = sub.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        key = g.column("l_partkey").to_numpy()
        return pa.table({
            "l_partkey": g.column("l_partkey"),
            "l_suppkey": g.column("l_suppkey"),
            "kb": pa.array((key % n_buckets).astype(np.int32)),
        })

    def bucket_argmax(g: pa.Table) -> pa.Table:
        f = g.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        pkv = f.column("l_partkey").to_numpy()
        skv = f.column("l_suppkey").to_numpy()
        b = bal[np.searchsorted(sks, skv)]
        t = pa.table({
            "l_partkey": pa.array(pkv),
            "l_suppkey": pa.array(skv),
            "bal": pa.array(b, type=pa.float64()),
        })
        mx = t.group_by("l_partkey").aggregate([("bal", "max")])
        mk = mx.column("l_partkey").to_numpy()
        mv = mx.column("bal_max").to_numpy()
        morder = np.argsort(mk)
        best = mv[morder][np.searchsorted(mk[morder], pkv)]
        keep = b == best
        pkv, skv, b = pkv[keep], skv[keep], b[keep]
        return pa.table({
            "p_partkey": pa.array(pkv, type=pa.int64()),
            "p_name": pa.array(
                pn[np.searchsorted(pks, pkv)], type=pa.string()),
            "s_suppkey": pa.array(skv, type=pa.int64()),
            "s_name": pa.array(
                snm[np.searchsorted(sks, skv)], type=pa.string()),
            "s_acctbal": pa.array(b, type=pa.float64()),
        })

    def neg_bal(b: pa.Table) -> pa.Table:
        return b.append_column(
            "neg_bal", pc.negate(b.column("s_acctbal")))

    return (
        li.map_batches(pair_partial, batch_format="pyarrow",
                       batch_size=65536)
        .groupby("kb")
        .map_groups(bucket_argmax, batch_format="pyarrow")
        .map_batches(neg_bal, batch_format="pyarrow")
        .sort(["neg_bal", "p_partkey", "s_suppkey"])
        .limit(100)
        .map_batches(lambda b: b.drop_columns(["neg_bal"]),
                     batch_format="pyarrow")
    )


# --------------------------------------------------------------- Q6 shape

def forecast_revenue_change(sf_dir: str):
    """TPC-H-Q6-shaped what-if scan: the revenue that would be
    reclaimed by eliminating small discounts — SUM(price·discount)
    over one ship-year for discounts in a band and small quantities.
    The simplest possible distributed shape done right: a column-pruned
    single streaming pass, the predicate and the product vectorized per
    batch in exact integer 1e-4 units, one scalar fold."""
    lo = pa.scalar(_dt.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), type=pa.timestamp("us"))

    li = scan(sf_dir, "lineitem",
              columns=["l_shipdate", "l_discount",
                       "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        w = b.filter(pc.and_(
            pc.greater_equal(b.column("l_shipdate"), lo),
            pc.less(b.column("l_shipdate"), hi)))
        disc_bp = np.rint(
            w.column("l_discount").to_numpy() * 100.0).astype(np.int64)
        qty = w.column("l_quantity").to_numpy()
        m = (disc_bp >= 5) & (disc_bp <= 7) & (qty < 24)
        cents = np.rint(
            w.column("l_extendedprice").to_numpy()[m] * 100.0
        ).astype(np.int64)
        rev_e4 = int((cents * disc_bp[m]).sum())
        return pa.table({"rev_e4": pa.array([rev_e4], type=pa.int64())})

    total = int(li.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536).sum("rev_e4") or 0)
    return pa.table({"revenue": pa.array(
        [round_half_away(total / 10000.0, 2)], type=pa.float64())})


# ----------------------------------------------------------- skyline shape

def _skyline_mask(price_e2: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D Pareto frontier (minimize both): row i
    survives iff no row has price ≤, size ≤, and one strict. Vectorized
    sweep: sort by (price, size); within a price group only min-size
    rows can survive; across groups a row must beat the running min
    size of all strictly-cheaper groups."""
    if len(price_e2) == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((size, price_e2))
    p, s = price_e2[order], size[order]
    new_grp = np.empty(len(p), dtype=bool)
    new_grp[0] = True
    new_grp[1:] = p[1:] != p[:-1]
    grp = np.cumsum(new_grp) - 1
    n_grp = grp[-1] + 1
    min_in = np.full(n_grp, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_in, grp, s)
    prev_min = np.empty(n_grp, dtype=np.int64)
    prev_min[0] = np.iinfo(np.int64).max
    if n_grp > 1:
        prev_min[1:] = np.minimum.accumulate(min_in)[:-1]
    keep_sorted = (s == min_in[grp]) & (s < prev_min[grp])
    keep = np.zeros(len(p), dtype=bool)
    keep[order] = keep_sorted
    return keep


def pareto_parts(sf_dir: str):
    """Skyline / Pareto frontier of the part catalog on (retail price,
    size), both minimized: the parts no other part beats on both axes.

    The skyline operator is ALGEBRAIC — skyline(A ∪ B) =
    skyline(skyline(A) ∪ skyline(B)) — so each block emits only its
    local frontier (for independent values the expected frontier is
    O(log n) rows) and one single-key fold re-applies the same mask to
    the union of frontiers. Prices compare in exact integer cents, so
    the dominance test cannot float-drift."""
    ds = scan(sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_size"])

    def local(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"p_partkey": pa.array([], type=pa.int64()),
                             "price_e2": pa.array([], type=pa.int64()),
                             "p_size": pa.array([], type=pa.int32()),
                             "g": pa.array([], type=pa.int32())})
        price = np.rint(
            b.column("p_retailprice").to_numpy() * 100.0).astype(np.int64)
        size = b.column("p_size").to_numpy().astype(np.int64)
        keep = _skyline_mask(price, size)
        return pa.table({
            "p_partkey": b.column("p_partkey").filter(pa.array(keep)),
            "price_e2": pa.array(price[keep]),
            "p_size": b.column("p_size").filter(pa.array(keep)),
            "g": pa.array(np.zeros(int(keep.sum()), dtype=np.int32)),
        })

    def fold(g: pa.Table) -> pa.Table:
        price = g.column("price_e2").to_numpy()
        size = g.column("p_size").to_numpy().astype(np.int64)
        keep = _skyline_mask(price, size)
        f = g.filter(pa.array(keep))
        return f.select(["p_partkey", "price_e2", "p_size"])

    return (ds.map_batches(local, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("g")
            .map_groups(fold, batch_format="pyarrow"))


ORACLE_SQL = {
    "forecast_revenue_change": """
        SELECT ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * CAST(ROUND(l_discount * 100) AS BIGINT))
                     / 10000.0, 2) AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate <  TIMESTAMP '1997-01-01'
          AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
          AND l_quantity < 24
    """,
    "pareto_parts": """
        SELECT p.p_partkey,
               CAST(ROUND(p.p_retailprice * 100) AS BIGINT) AS price_e2,
               p.p_size
        FROM part p
        WHERE NOT EXISTS (
          SELECT 1 FROM part q
          WHERE CAST(ROUND(q.p_retailprice * 100) AS BIGINT)
                  <= CAST(ROUND(p.p_retailprice * 100) AS BIGINT)
            AND q.p_size <= p.p_size
            AND (CAST(ROUND(q.p_retailprice * 100) AS BIGINT)
                   < CAST(ROUND(p.p_retailprice * 100) AS BIGINT)
                 OR q.p_size < p.p_size))
    """,
    "local_supplier_revenue": f"""
        SELECT n_name,
               ROUND(SUM({_REV_E4_SQL}) / 10000.0, 2) AS revenue
        FROM lineitem
        JOIN orders   ON o_orderkey = l_orderkey
        JOIN customer ON c_custkey = o_custkey
        JOIN supplier ON s_suppkey = l_suppkey
                     AND s_nationkey = c_nationkey
        JOIN nation ON n_nationkey = s_nationkey
        JOIN region ON r_regionkey = n_regionkey
        WHERE r_name = 'ASIA'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate <  TIMESTAMP '1997-01-01'
        GROUP BY n_name
    """,
    "market_share": f"""
        WITH rev AS (
          SELECT CAST(EXTRACT(year FROM o_orderdate) AS INT) AS o_year,
                 {_REV_E4_SQL} AS r,
                 CASE WHEN n_name = 'NATION_3'
                      THEN {_REV_E4_SQL} ELSE 0 END AS t
          FROM lineitem
          JOIN part     ON p_partkey = l_partkey AND p_type = 'ECONOMY'
          JOIN orders   ON o_orderkey = l_orderkey
          JOIN supplier ON s_suppkey = l_suppkey
          JOIN nation   ON n_nationkey = s_nationkey
          WHERE o_orderdate >= TIMESTAMP '1995-01-01'
            AND o_orderdate <  TIMESTAMP '1997-01-01')
        SELECT o_year,
               ROUND(CAST(SUM(t) AS DOUBLE) / SUM(r), 6) AS mkt_share
        FROM rev GROUP BY o_year
    """,
    "product_type_profit": f"""
        SELECT n_name AS nation,
               CAST(EXTRACT(year FROM o_orderdate) AS INT) AS o_year,
               ROUND(SUM({_REV_E4_SQL} * 10
                         - CAST(ROUND(p_retailprice * 100) AS BIGINT)
                           * CAST(ROUND(l_quantity * 100) AS BIGINT))
                     / 100000.0, 2) AS profit
        FROM lineitem
        JOIN part     ON p_partkey = l_partkey
                     AND split_part(p_name, ' ', 2) = 'widget'
        JOIN orders   ON o_orderkey = l_orderkey
        JOIN supplier ON s_suppkey = l_suppkey
        JOIN nation   ON n_nationkey = s_nationkey
        GROUP BY n_name, o_year
    """,
    "returned_item_customers": f"""
        WITH r AS (
          SELECT c_custkey, c_name, n_name,
                 SUM({_REV_E4_SQL}) AS rev_e4
          FROM lineitem
          JOIN orders   ON o_orderkey = l_orderkey
          JOIN customer ON c_custkey = o_custkey
          JOIN nation   ON n_nationkey = c_nationkey
          WHERE l_returnflag = 'R'
            AND o_orderdate >= TIMESTAMP '1996-01-01'
            AND o_orderdate <  TIMESTAMP '1996-04-01'
          GROUP BY c_custkey, c_name, n_name)
        SELECT c_custkey, c_name, n_name,
               ROUND(rev_e4 / 10000.0, 2) AS revenue
        FROM r ORDER BY rev_e4 DESC, c_custkey LIMIT 20
    """,
    "bracket_revenue": f"""
        SELECT ROUND(SUM({_REV_E4_SQL}) / 10000.0, 2) AS revenue
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE (p_brand = 'Brand#3'  AND p_size BETWEEN 1 AND 5
               AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand = 'Brand#13' AND p_size BETWEEN 1 AND 10
               AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 15
               AND l_quantity BETWEEN 20 AND 30)
    """,
    "supplier_part_variety": """
        SELECT p_brand, p_type, p_size,
               CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
          AND p_size IN (1, 5, 10, 15, 20, 25, 30, 35, 40, 45)
        GROUP BY p_brand, p_type, p_size
    """,
    "bulk_suppliers": """
        WITH sq AS (
          SELECT l_partkey, l_suppkey,
                 SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS q
          FROM lineitem
          JOIN part ON p_partkey = l_partkey AND p_name LIKE 'blue %'
          GROUP BY l_partkey, l_suppkey),
        tot AS (
          SELECT l_partkey, SUM(q) AS tq, COUNT(*) AS n
          FROM sq GROUP BY l_partkey)
        SELECT DISTINCT s_suppkey, s_name
        FROM sq JOIN tot USING (l_partkey)
        JOIN supplier ON s_suppkey = l_suppkey
        WHERE q * n > 2 * tq
    """,
    "min_balance_supplier": """
        WITH ps AS (
          SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
        j AS (
          SELECT p_partkey, p_name, s_suppkey, s_name, s_acctbal
          FROM ps
          JOIN part     ON p_partkey = l_partkey AND p_size = 15
          JOIN supplier ON s_suppkey = l_suppkey),
        mx AS (
          SELECT p_partkey, MAX(s_acctbal) AS mb FROM j GROUP BY p_partkey)
        SELECT j.p_partkey, p_name, s_suppkey, s_name, s_acctbal
        FROM j JOIN mx ON mx.p_partkey = j.p_partkey AND s_acctbal = mb
        ORDER BY s_acctbal DESC, j.p_partkey, s_suppkey LIMIT 100
    """,
}

QUERIES = {
    "forecast_revenue_change": forecast_revenue_change,
    "pareto_parts": pareto_parts,
    "local_supplier_revenue": local_supplier_revenue,
    "market_share": market_share,
    "product_type_profit": product_type_profit,
    "returned_item_customers": returned_item_customers,
    "bracket_revenue": bracket_revenue,
    "supplier_part_variety": supplier_part_variety,
    "bulk_suppliers": bulk_suppliers,
    "min_balance_supplier": min_balance_supplier,
}
