"""The ``query_mix`` workload: one closed-loop caller runs the mix in turn.

The mix covers every query module the crawls bypass and the three query
shapes ROADMAP direction 3 would fold together, plus the per-row md5
sampling loops, with the cheapest representatives of each:

* combiner aggregates: lineitem_agg, events_hourly, priority_line_counts;
* broadcast joins: nation_revenue, local_supplier_revenue;
* checkpointed exchange: minhash_lsh_pairs;
* per-row doc_id md5 loops: stratified_sample, mix_sample.

A pass takes about 10 s, so a run can time three passes and report their
median. One Ray Data stall of about 20 s then cannot move the result.

Every result is checked against DuckDB running the repo's own
``oracle_sql()`` over the same parquet files, with the dtype-strict
comparison of ``tests/test_queries_vs_duckdb.py``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd

from ragnificent_ray.pipelines import (dedup, relational, sampling,
                                       tpch_more, tpch_rest)

MODULES = (relational, tpch_more, tpch_rest, dedup, sampling)
# run in this order every pass: a per-seed shuffle doubled the spread of
# pass times across seeds (IQR 12% vs 5% of the median at 5 seeds)
MIX = ("lineitem_agg", "events_hourly", "priority_line_counts",
       "nation_revenue", "local_supplier_revenue", "minhash_lsh_pairs",
       "stratified_sample", "mix_sample")


def module_of(query: str) -> str:
    for mod in MODULES:
        if query in mod.QUERIES:
            return mod.__name__.rsplit(".", 1)[1]
    raise KeyError(query)


def run_query(name: str, sf_dir: str) -> pd.DataFrame:
    """Run one query and consume its whole result."""
    import pyarrow as pa
    import ray.data as rd

    mod = next(m for m in MODULES if name in m.QUERIES)
    out = mod.QUERIES[name](sf_dir)
    if isinstance(out, (rd.Dataset, pa.Table)):
        return out.to_pandas()
    return out


class QueryPass:
    """One timed pass over the mix; every result fully consumed."""

    def __init__(self, seconds: float, results: dict):
        self.seconds = seconds
        self.results = {q: frame for q, (_, frame) in results.items()}
        self.seconds_by_query = {q: s for q, (s, _) in results.items()}


def run_pass(names: list[str], sf_dir: str, ctx=None) -> QueryPass:
    """Run ``names`` in order; with a span context, each query in a span
    named ``pipelines.<module>.<query>``."""
    results = {}
    t0 = time.monotonic()
    for name in names:
        q0 = time.monotonic()
        if ctx is None:
            frame = run_query(name, sf_dir)
        else:
            with ctx.span(f"pipelines.{module_of(name)}.{name}") as s:
                frame = run_query(name, sf_dir)
                s["rows"] = len(frame)
        results[name] = (time.monotonic() - q0, frame)
    return QueryPass(time.monotonic() - t0, results)


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Order- and width-independent form of a result: the rule of
    ``tests/test_queries_vs_duckdb.py`` (ints as int64, floats rounded
    to 6 places, rows sorted)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
        elif df[c].dtype == object and len(df) and isinstance(
                df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(lambda v: tuple(np.round(
                np.asarray(v, dtype=np.float64), 6)))
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def expected(sf_dir: str, tables) -> dict[str, pd.DataFrame]:
    """DuckDB's answer for every query in the mix, normalized."""
    import duckdb

    import __ray_entry__ as entry

    sql = entry.oracle_sql()
    con = duckdb.connect()
    try:
        for t in tables:
            path = os.path.join(sf_dir, f"{t}.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{path}')")
        return {q: normalize(con.execute(sql[q]).fetchdf()) for q in MIX}
    finally:
        con.close()


def matches(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    got = normalize(got)
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=True,
                                      check_exact=False, atol=1e-6)
    except AssertionError:
        return False
    return True


def check(p: QueryPass, want: dict[str, pd.DataFrame]) -> tuple[int, int]:
    """→ (ops attempted, ops failed): one op per query result."""
    failed = sum(not matches(frame, want[q]) for q, frame in p.results.items())
    return len(p.results), failed
