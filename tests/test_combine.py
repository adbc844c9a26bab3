"""The combiner aggregate (pipelines/combine.py) against pandas groupby.

The dataset has several blocks and the per-batch step runs on small
batches, so every key's partials really cross blocks before the fold.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

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
