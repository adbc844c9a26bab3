"""Seeded TPC-H-shaped tables for the ``query_mix`` workload.

The benchmark reads only files inside its own checkout, so instead of
the repo's shared fixture tables (TESTDATA.md) it writes tables of the
same schemas, one ``<table>.parquet`` each (the layout every ``sf_dir``
query reads), from ``--seed``. Value ranges follow those fixtures, so
every query in the mix returns rows: orders straddle 1998 for
``shipping_priority``, 1996 holds shipments for ``priority_line_counts``,
and every eighth document is a planted near-duplicate so the
MinHash/dedup queries find clusters.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
PART_TYPES = ("ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD")
PART_WORDS = (("blue", "cold", "large", "new", "old", "red", "small"),
              ("anvil", "bolt", "gizmo", "plate", "ring", "rod", "widget"))
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
LANGS = ("en", "en", "en", "de", "fr", "es", "zh")
WORDS = ("a the key agg row scan slow fast table value part hash merge "
         "batch spark window line sort data column join small big query "
         "customer order stream group filter vector").split()

# rows per table; `tiny` is the self-test size
SIZES = {
    "full": dict(customer=300, supplier=50, part=400, orders=3000,
                 lineitem=12000, events=2000, documents=160),
    "tiny": dict(customer=60, supplier=25, part=80, orders=300,
                 lineitem=1200, events=300, documents=60),
}

_DAY_US = 86_400 * 1_000_000
# every DUP_EVERY-th document copies the first of its group of DUP_EVERY
DUP_EVERY = 8


def _days(rng, start: str, n_days: int, size: int) -> pa.Array:
    base = np.datetime64(start, "us").astype(np.int64)
    us = base + rng.integers(0, n_days, size) * _DAY_US
    return pa.array(us, type=pa.timestamp("us"))


def _money(rng, lo: float, hi: float, size: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, size), 2)


def _documents(rng, n: int) -> pa.Table:
    texts: list[str] = []
    for i in range(n):
        if i % DUP_EVERY == DUP_EVERY - 1:
            # planted near-duplicate of an original (never of another
            # copy) with one token replaced: every seed gets the same
            # cluster shape, so dedup's work does not change with it
            toks = texts[i - DUP_EVERY + 1].split()
            toks[int(rng.integers(0, len(toks)))] = WORDS[
                int(rng.integers(0, len(WORDS)))]
        else:
            toks = [WORDS[k] for k in
                    rng.integers(0, len(WORDS), int(rng.integers(20, 60)))]
        texts.append(" ".join(toks))
    return pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array([LANGS[k] for k in rng.integers(0, len(LANGS), n)]),
        # few sources, so every one holds enough documents for
        # mix_sample's weights (4/2/2/1 units) to keep some
        "source": pa.array([f"src{k}" for k in rng.integers(0, 8, n)]),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def make_tables(seed: int, size: str = "full") -> dict[str, pa.Table]:
    """All tables the query mix reads, as a pure function of ``seed``."""
    n = SIZES[size]
    rng = np.random.default_rng(seed)
    nc, ns, npart, no, nl, ne = (n["customer"], n["supplier"], n["part"],
                                 n["orders"], n["lineitem"], n["events"])
    pick = lambda vals, k: pa.array(  # noqa: E731
        [vals[i] for i in rng.integers(0, len(vals), k)])
    t: dict[str, pa.Table] = {}
    t["region"] = pa.table({
        "r_regionkey": pa.array(range(5), type=pa.int32()),
        "r_name": pa.array(REGIONS)})
    t["nation"] = pa.table({
        "n_nationkey": pa.array(range(25), type=pa.int32()),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
        "n_regionkey": pa.array([i % 5 for i in range(25)], type=pa.int32())})
    t["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(nc), type=pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(nc)]),
        "c_nationkey": pa.array(rng.integers(0, 25, nc), type=pa.int32()),
        "c_acctbal": _money(rng, -999.99, 9999.99, nc),
        "c_mktsegment": pick(SEGMENTS, nc)})
    t["supplier"] = pa.table({
        "s_suppkey": pa.array(np.arange(ns), type=pa.int64()),
        "s_name": pa.array([f"Supplier#{i:09d}" for i in range(ns)]),
        # every nation supplies, so the supplier-nation = customer-nation
        # join of local_supplier_revenue is never empty
        "s_nationkey": pa.array(np.arange(ns) % 25, type=pa.int32()),
        "s_acctbal": _money(rng, -999.99, 9999.99, ns)})
    t["part"] = pa.table({
        "p_partkey": pa.array(np.arange(npart), type=pa.int64()),
        "p_name": pa.array([
            f"{PART_WORDS[0][a]} {PART_WORDS[1][b]}" for a, b in zip(
                rng.integers(0, 7, npart), rng.integers(0, 7, npart))]),
        "p_brand": pa.array([f"Brand#{k}" for k in
                             rng.integers(1, 26, npart)]),
        "p_type": pick(PART_TYPES, npart),
        "p_size": pa.array(rng.integers(1, 51, npart), type=pa.int32()),
        "p_retailprice": np.round(900.0 + (np.arange(npart) % 200) * 0.1, 2)})
    t["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(no), type=pa.int64()),
        "o_custkey": pa.array(rng.integers(0, nc, no), type=pa.int64()),
        "o_orderstatus": pick(("F", "O", "P"), no),
        "o_totalprice": _money(rng, 1000.0, 500000.0, no),
        "o_orderdate": _days(rng, "1995-01-01", 2404, no),
        "o_orderpriority": pick(PRIORITIES, no)})
    qty = rng.integers(1, 51, nl).astype(np.float64)
    t["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, no, nl), type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, npart, nl), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, ns, nl), type=pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, nl), type=pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900.0, 2100.0, nl), 2),
        "l_discount": rng.integers(0, 11, nl) / 100.0,
        "l_tax": rng.integers(0, 9, nl) / 100.0,
        "l_returnflag": pick(("A", "N", "R"), nl),
        "l_linestatus": pick(("F", "O"), nl),
        "l_shipdate": _days(rng, "1995-01-02", 2498, nl)})
    ts0 = np.datetime64("2024-01-01", "us").astype(np.int64)
    ts = np.sort(ts0 + rng.integers(0, 30 * _DAY_US, ne))
    t["events"] = pa.table({
        "event_id": pa.array(np.arange(ne), type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 150, ne), type=pa.int64()),
        "event_type": pick(EVENT_TYPES, ne),
        "value": _money(rng, 0.01, 330.0, ne),
        "props": pa.array([f'{{"k": {k}}}' for k in
                           rng.integers(0, 100, ne)])})
    t["documents"] = _documents(rng, n["documents"])
    return t


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    for name, table in tables.items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
