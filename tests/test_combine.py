"""The combiner aggregate (pipelines/combine.py) against pandas groupby.

The dataset has several blocks and the per-batch step runs on small
batches, so every key's partials really cross blocks before the fold.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ragnificent_ray.pipelines.combine import combine, fold, group_agg

N = 400
BIG = 2 ** 53


def _table() -> pa.Table:
    i = np.arange(N, dtype=np.int64)
    y = pa.array([None if r % 7 == 0 else int(r % 50) for r in range(N)],
                 type=pa.int64())
    return pa.table({
        "s": pa.array(np.array(["a", "b", "c"])[i % 3]),
        "k": pa.array(i % 4),
        "x": pa.array(BIG + 7 * i),          # every group sum is > 2^53
        "y": y,
        "one": pa.array(np.ones(N, dtype=np.int64)),
    })


def _dataset():
    import ray.data as rd

    t = _table()
    return rd.from_arrow([t.slice(o, N // 4) for o in range(0, N, N // 4)])


AGGS = {
    "x_sum": ("x", "sum"),
    "y_count": ("y", "count"),
    "rows": ("one", "sum"),
    "y_min": ("y", "min"),
    "y_max": ("y", "max"),
}
KEYS = ["s", "k"]


def _expected() -> pd.DataFrame:
    df = _table().to_pandas(types_mapper={pa.int64(): pd.Int64Dtype()}.get)
    g = df.groupby(KEYS)
    out = pd.DataFrame({
        "x_sum": g["x"].sum(), "y_count": g["y"].count(),
        "rows": g["one"].sum(), "y_min": g["y"].min(),
        "y_max": g["y"].max(),
    }).reset_index()
    return out.astype({c: "int64" for c in AGGS})


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(KEYS).reset_index(drop=True)


def test_combine_matches_pandas_across_blocks(ray_session):
    ds = _dataset()
    assert ds.num_blocks() >= 4
    # the per-batch partials repeat keys, so the fold has work to do
    partials = ds.map_batches(lambda b: group_agg(b, KEYS, AGGS),
                              batch_format="pyarrow", batch_size=16)
    assert partials.count() > len(_expected())

    got = combine(ds, KEYS, AGGS, batch_size=16)
    assert got.columns() == KEYS + list(AGGS)
    pd.testing.assert_frame_equal(_sorted(got.to_pandas()),
                                  _sorted(_expected()), check_dtype=False)


def test_int64_sums_stay_exact_and_int64(ray_session):
    got = combine(_dataset(), KEYS, {"x_sum": ("x", "sum")}, batch_size=16)
    assert got.schema().base_schema.field("x_sum").type == pa.int64()
    res = _sorted(got.to_pandas())
    exp = _sorted(_expected())
    assert (res["x_sum"] > BIG).all()
    assert res["x_sum"].tolist() == [int(v) for v in exp["x_sum"]]


def test_count_skips_nulls_but_ones_sum_does_not(ray_session):
    res = _sorted(combine(_dataset(), KEYS, AGGS, batch_size=16).to_pandas())
    assert (res["y_count"] < res["rows"]).any()
    assert res["rows"].sum() == N
    assert res["y_count"].sum() == N - len(range(0, N, 7))


def test_cells_and_fold_rename(ray_session):
    """``cells`` derives the grouped columns; ``fold`` alone merges
    already-partial columns under new names."""
    ds = _dataset()

    def cells(b: pa.Table) -> pa.Table:
        return pa.table({"s": b.column("s"), "v": b.column("one")})

    per_s = combine(ds, "s", {"n": ("v", "sum")}, cells, batch_size=16)
    assert per_s.columns() == ["s", "n"]
    assert dict(zip(*per_s.to_pandas()[["s", "n"]].T.values)) == {
        "a": 134, "b": 133, "c": 133}

    partials = ds.map_batches(
        lambda b: group_agg(b, "s", {"lo": ("y", "min"), "c": ("y", "count")}),
        batch_format="pyarrow", batch_size=16)
    merged = fold(partials, "s", {"y_min": ("lo", "min"),
                                  "y_count": ("c", "count")}).to_pandas()
    exp = _table().to_pandas().groupby("s")["y"]
    assert merged.set_index("s")["y_min"].to_dict() == exp.min().to_dict()
    assert merged.set_index("s")["y_count"].to_dict() == \
        exp.count().to_dict()


def test_group_agg_on_one_table():
    t = _table()
    got = group_agg(t, KEYS, AGGS)
    assert got.column_names == KEYS + list(AGGS)
    pd.testing.assert_frame_equal(_sorted(got.to_pandas()),
                                  _sorted(_expected()), check_dtype=False)


# --- the fold's exchange: split path, empty inputs, keys and types -------

def test_split_path_equals_one_partition(ray_session, monkeypatch):
    """At ``PARTITION_BYTES`` = 1 KiB the fold splits every block into
    one slice per CPU and merges each partition in its own task; the
    rows equal the one-task fold's. The rows are shuffled so that no
    key lines up with a partial row's position."""
    import ray
    import ray.data as rd

    from ragnificent_ray.pipelines import exchange

    t = _table().take(np.random.default_rng(3).permutation(N))

    def folded():
        ds = rd.from_arrow([t.slice(o, N // 4) for o in range(0, N, N // 4)])
        out = combine(ds, KEYS, AGGS, batch_size=16)
        return out.num_blocks(), _sorted(out.to_pandas())

    _, one = folded()
    monkeypatch.setattr(exchange, "PARTITION_BYTES", 1 << 10)
    n, split = folded()
    assert n == int(ray.cluster_resources()["CPU"]) > 1
    pd.testing.assert_frame_equal(split, one)
    pd.testing.assert_frame_equal(split, _sorted(_expected()),
                                  check_dtype=False)


@pytest.mark.parametrize("partition_bytes", [1 << 10, 64 << 20])
def test_empty_inputs_keep_key_and_aggregate_columns(
        ray_session, monkeypatch, partition_bytes):
    """An empty input, and partial blocks that are column-less
    ``pa.table({})``, fold to no rows under the key and aggregate
    columns."""
    import ray.data as rd

    from ragnificent_ray.pipelines import exchange

    monkeypatch.setattr(exchange, "PARTITION_BYTES", partition_bytes)
    empty = combine(rd.from_arrow(_table().slice(0, 0)), KEYS, AGGS)
    columnless = fold(_dataset().map_batches(
        lambda b: pa.table({}), batch_format="pyarrow", batch_size=16),
        KEYS, AGGS)
    for got in (empty, columnless):
        assert got.columns() == KEYS + list(AGGS)
        assert got.count() == 0


@pytest.mark.parametrize("partition_bytes", [1 << 10, 64 << 20])
def test_null_keys_form_one_group(ray_session, monkeypatch,
                                  partition_bytes):
    import ray.data as rd

    from ragnificent_ray.pipelines import exchange

    monkeypatch.setattr(exchange, "PARTITION_BYTES", partition_bytes)
    k = [None if i % 3 == 0 else i % 5 for i in range(300)]
    t = pa.table({"k": pa.array(k, type=pa.int64()),
                  "v": pa.array(np.ones(300, dtype=np.int64))})
    ds = rd.from_arrow([t.slice(o, 60) for o in range(0, 300, 60)])
    got = combine(ds, "k", {"n": ("v", "sum")}, batch_size=16).to_pandas()
    assert got["k"].isna().sum() == 1
    assert int(got.loc[got["k"].isna(), "n"].iloc[0]) == k.count(None)
    assert int(got["n"].sum()) == 300


def test_string_and_timestamp_min_max(ray_session):
    import ray.data as rd

    ts = pa.array(np.datetime64("2024-01-01T00:00:00", "us")
                  + np.arange(N).astype("timedelta64[s]"))
    words = pa.array([f"w{(i * 37) % 101:03d}" for i in range(N)])
    t = _table().append_column("ts", ts).append_column("w", words)
    ds = rd.from_arrow([t.slice(o, N // 4) for o in range(0, N, N // 4)])
    aggs = {"w_min": ("w", "min"), "w_max": ("w", "max"),
            "ts_min": ("ts", "min"), "ts_max": ("ts", "max")}
    got = combine(ds, "s", aggs, batch_size=16)
    assert got.schema().base_schema.field("ts_min").type == ts.type
    g = t.to_pandas().groupby("s")
    want = pd.DataFrame({"w_min": g["w"].min(), "w_max": g["w"].max(),
                         "ts_min": g["ts"].min(), "ts_max": g["ts"].max()})
    pd.testing.assert_frame_equal(got.to_pandas().set_index("s"), want,
                                  check_dtype=False, check_names=False)


def test_count_over_an_all_null_group_is_zero(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.array(np.arange(200) % 2),
                  "y": pa.array([None if i % 2 else i for i in range(200)],
                                type=pa.int64())})
    ds = rd.from_arrow([t.slice(o, 50) for o in range(0, 200, 50)])
    got = combine(ds, "k", {"c": ("y", "count")}, batch_size=16)
    assert got.to_pandas().set_index("k")["c"].to_dict() == {0: 100, 1: 0}


def test_one_partition_output_is_sorted_by_keys(ray_session):
    """At ``P == 1`` the fold's rows come out in key order, the order
    a sort-based groupby gives."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    t = pa.table({"a": pa.array(rng.integers(0, 9, 500)),
                  "b": pa.array(rng.choice(["x", "y", "z"], 500)),
                  "v": pa.array(np.ones(500, dtype=np.int64))})
    ds = rd.from_arrow([t.slice(o, 100) for o in range(0, 500, 100)])
    got = combine(ds, ["a", "b"], {"n": ("v", "sum")},
                  batch_size=16).to_pandas()
    keys = list(zip(got["a"], got["b"]))
    assert keys == sorted(keys) and len(keys) == len(set(keys))


@pytest.mark.parametrize("parts", [1, 4])
def test_empty_input_keeps_key_and_aggregate_types(ray_session, monkeypatch,
                                                   parts):
    """Ray runs no map over an empty block, so an empty input's partials
    are column-less; the fold still types the key and the sum int64, at
    one partition and with the split path forced."""
    import ray.data as rd

    from ragnificent_ray.pipelines import exchange

    monkeypatch.setattr(exchange, "partition_count", lambda nbytes: parts)
    t = pa.table({"k": pa.array([], pa.int64()),
                  "v": pa.array([], pa.int64())})
    got = combine(rd.from_arrow(t), "k", {"s": ("v", "sum")})
    assert got.count() == 0
    schema = got.schema().base_schema
    assert schema.names == ["k", "s"]
    assert schema.field("k").type == pa.int64()
    assert schema.field("s").type == pa.int64()
