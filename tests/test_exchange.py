"""The shared hash exchange (pipelines/exchange.py): its join against
``pa.Table.join`` on the concatenated inputs, compared as sorted rows
under the same column names, and AST scans that keep every join and
grouped fold of the package on it. The one read of an ``sf_dir`` table
(pipelines/inputs.py ``scan``) against ``pq.read_table``, its block
rule, and an AST scan that keeps every table read on it.

Inputs have several blocks. ``PARTITION_BYTES`` is cut to a few bytes
where a test needs ``P > 1``, so those joins run the split tasks and one
join task per CPU of the test session.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import time
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pytest

from ragnificent_ray.pipelines import exchange
from ragnificent_ray.pipelines.exchange import hash_join, key_hash

HOWS = ["inner", "left_semi", "left_anti", "left_outer"]
ARROW_VERB = {"inner": "inner", "left_semi": "left semi",
              "left_anti": "left anti", "left_outer": "left outer"}


@pytest.fixture
def many_partitions(monkeypatch):
    monkeypatch.setattr(exchange, "PARTITION_BYTES", 64)


def _blocks(table: pa.Table, n: int) -> list:
    size = -(-table.num_rows // n)
    return [table.slice(o, size) for o in range(0, table.num_rows, size)]


def _sorted_rows(t: pa.Table) -> list:
    return sorted((tuple(r.values()) for r in t.to_pylist()), key=repr)


def _check(left: pa.Table, right: pa.Table, how: str, on, right_on=None,
           n_blocks=3):
    import ray
    import ray.data as rd

    keys = [on] if isinstance(on, str) else list(on)
    rkeys = keys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    want = left.join(right, keys=keys, right_keys=rkeys,
                     join_type=ARROW_VERB[how])
    lds = rd.from_arrow(_blocks(left, n_blocks) if left.num_rows
                        else [left])
    rds = rd.from_arrow(_blocks(right, n_blocks) if right.num_rows
                        else [right])
    out = hash_join(lds, rds, how, on, right_on)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.column_names == want.column_names
    assert _sorted_rows(got) == _sorted_rows(want)


def _sides(key_values_left, key_values_right, key_type=None):
    left = pa.table({
        "k": pa.array(key_values_left, type=key_type),
        "lv": pa.array(np.arange(len(key_values_left), dtype=np.int64)),
    })
    right = pa.table({
        "k": pa.array(key_values_right, type=key_type),
        "rv": pa.array(np.arange(len(key_values_right), dtype=np.int64)
                       * 10),
    })
    return left, right


def _int_keys(n, hi, seed):
    return np.random.default_rng(seed).integers(0, hi, n).tolist()


@pytest.mark.parametrize("how", HOWS)
def test_int_keys_single_partition(ray_session, how):
    _check(*_sides(_int_keys(300, 60, 1), _int_keys(120, 90, 2)), how, "k")


@pytest.mark.parametrize("how", HOWS)
def test_int_keys_many_partitions(ray_session, many_partitions, how):
    _check(*_sides(_int_keys(300, 60, 1), _int_keys(120, 90, 2)), how, "k",
           n_blocks=4)


def test_uint64_keys_past_int64(ray_session, many_partitions):
    big = [2 ** 64 - 1 - k for k in _int_keys(120, 30, 13)]
    _check(*_sides(big, big[::3], pa.uint64()), "inner", "k")


@pytest.mark.parametrize("how", HOWS)
def test_string_keys(ray_session, many_partitions, how):
    left = [f"url/{i % 70}" for i in range(250)]
    right = [f"url/{i % 110}" for i in range(0, 220, 2)]
    _check(*_sides(left, right), how, "k")


@pytest.mark.parametrize("how", HOWS)
def test_timestamp_keys(ray_session, many_partitions, how):
    t0 = datetime(1996, 1, 1)
    left = [t0 + timedelta(days=int(d)) for d in _int_keys(200, 40, 3)]
    right = [t0 + timedelta(days=int(d)) for d in _int_keys(80, 60, 4)]
    _check(*_sides(left, right, pa.timestamp("us")), how, "k")


@pytest.mark.parametrize("how", HOWS)
def test_two_column_keys(ray_session, many_partitions, how):
    left = pa.table({"a": pa.array(_int_keys(240, 6, 5)),
                     "b": pa.array([f"s{i % 5}" for i in range(240)]),
                     "lv": pa.array(np.arange(240))})
    right = pa.table({"a": pa.array(_int_keys(60, 8, 6)),
                      "b": pa.array([f"s{i % 7}" for i in range(60)]),
                      "rv": pa.array(np.arange(60))})
    _check(left, right, how, ["a", "b"])


@pytest.mark.parametrize("how", HOWS)
def test_null_keys(ray_session, many_partitions, how):
    left = [None if i % 9 == 0 else i % 30 for i in range(200)]
    right = [None if i % 4 == 0 else i % 45 for i in range(60)]
    _check(*_sides(left, right, pa.int64()), how, "k")
    _check(*_sides([None if v is None else f"s{v}" for v in left],
                   [None if v is None else f"s{v}" for v in right]),
           how, "k")


@pytest.mark.parametrize("how", HOWS)
def test_right_on_rename(ray_session, many_partitions, how):
    left, right = _sides(_int_keys(200, 50, 7), _int_keys(70, 50, 8))
    _check(left, right.rename_columns(["rk", "rv"]), how, "k", "rk")


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("empty", ["left", "right"])
def test_empty_side(ray_session, many_partitions, how, empty):
    left, right = _sides(_int_keys(100, 20, 11), _int_keys(50, 20, 12))
    if empty == "left":
        left = left.slice(0, 0)
    else:
        right = right.slice(0, 0)
    _check(left, right, how, "k")


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("partition_bytes", [64, 64 << 20])
def test_empty_blocks_without_key_columns(ray_session, monkeypatch, how,
                                          partition_bytes):
    """A map that returns ``pa.table({})`` for a batch leaves an empty
    block without the key columns, on either side, at ``P > 1`` and at
    ``P == 1``."""
    import ray
    import ray.data as rd

    monkeypatch.setattr(exchange, "PARTITION_BYTES", partition_bytes)
    left, right = _sides(_int_keys(90, 30, 14), _int_keys(40, 30, 15))

    def drop_first_block(b: pa.Table) -> pa.Table:
        return pa.table({}) if b.column(b.column_names[1])[0].as_py() == 0 \
            else b

    def ds(t: pa.Table, n: int):
        return rd.from_arrow(_blocks(t, n)).map_batches(
            drop_first_block, batch_format="pyarrow", batch_size=None)

    want = left.slice(30).join(right.slice(20), keys="k",
                               join_type=ARROW_VERB[how])
    got = pa.concat_tables(ray.get(
        hash_join(ds(left, 3), ds(right, 2), how, "k").to_arrow_refs()))
    assert got.column_names == want.column_names
    assert _sorted_rows(got) == _sorted_rows(want)


def test_partition_count_rule(ray_session):
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    unit = exchange.PARTITION_BYTES
    assert exchange.partition_count(0) == 1
    assert exchange.partition_count(unit) == 1
    assert exchange.partition_count(unit + 1) == min(2, cpus)
    assert exchange.partition_count(1000 * unit) == cpus


def test_unknown_join_type_fails_loudly(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": [1]}))
    with pytest.raises(ValueError, match="unknown join type"):
        hash_join(ds, ds, "left outer", "k")
    with pytest.raises(ValueError, match="unknown join type"):
        hash_join(ds, ds, "full_outer", "k")
    with pytest.raises(ValueError, match="differ in count"):
        hash_join(ds, ds, "inner", ["k"], ["k", "k"])


_STRINGS = [f"https://site{i % 13}.test/page/{i}" for i in range(64)] \
    + ["", "é", None]


def test_string_hash_is_process_independent():
    """Python's ``hash()`` of a str differs per process; the split
    hash must not, or two split tasks would put one key in different
    partitions."""
    here = key_hash(pa.table({"k": _STRINGS}), ["k"]).tolist()
    code = ("import pyarrow as pa; from ragnificent_ray.pipelines.exchange"
            f" import key_hash; print(key_hash(pa.table({{'k': {_STRINGS!r}"
            "}), ['k']).tolist())")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=root,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": root})
        assert json.loads(out.stdout) == here


def test_split_tasks_in_different_workers_agree(ray_session,
                                                many_partitions):
    """Two tasks held open side by side run in two worker processes;
    both must put every string key in the same partition, and a join
    whose split tasks spread over the workers stays exact."""
    import ray

    @ray.remote
    def partitions(keys, n):
        time.sleep(1.0)
        h = key_hash(pa.table({"k": keys}), ["k"])
        return os.getpid(), (h % np.uint64(n)).tolist()

    (pid_a, part_a), (pid_b, part_b) = ray.get(
        [partitions.remote(_STRINGS, 4), partitions.remote(_STRINGS, 4)])
    assert pid_a != pid_b
    assert part_a == part_b
    left = [s for s in _STRINGS if s is not None] * 3
    _check(*_sides(left, _STRINGS[::2]), "inner", "k", n_blocks=6)


_RAY_JOIN_TYPES = {"inner", "left_outer", "right_outer", "full_outer",
                   "left_semi", "right_semi", "left_anti", "right_anti"}
# keywords of Dataset.join that pa.Table.join does not take
_RAY_JOIN_KEYWORDS = {"num_partitions", "on", "partition_size_hint",
                      "aggregator_ray_remote_args"}


def ray_dataset_joins(root: pathlib.Path) -> list[str]:
    """``file:line`` of every ``x.join(ds, "<Ray join type>", ...)`` or
    ``x.join(..., num_partitions=/on=...)`` call under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                continue
            how = node.args[1] if len(node.args) > 1 else None
            if (isinstance(how, ast.Constant) and how.value in _RAY_JOIN_TYPES
                    or any(k.arg in _RAY_JOIN_KEYWORDS
                           for k in node.keywords)):
                found.append(f"{path}:{node.lineno}")
    return found


def test_no_query_joins_through_ray_dataset_join():
    """Every join goes through ``exchange.hash_join``: a
    ``Dataset.join`` starts its own hash-shuffle aggregator actors."""
    root = pathlib.Path(__file__).resolve().parents[1] / "ragnificent_ray"
    assert ray_dataset_joins(root) == []


# the grouped aggregates of a Ray Dataset's GroupedData
_GROUPED_AGGREGATES = {"aggregate", "sum", "count", "min", "max", "mean",
                       "std"}


def grouped_aggregates(root: pathlib.Path) -> list[str]:
    """``file:line`` of every ``x.groupby(...).<aggregate>(...)`` call
    under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _GROUPED_AGGREGATES
                    and isinstance(node.func.value, ast.Call)
                    and isinstance(node.func.value.func, ast.Attribute)
                    and node.func.value.func.attr == "groupby"):
                found.append(f"{path}:{node.lineno}")
    return found


def test_no_query_folds_through_ray_grouped_aggregate():
    """Every grouped fold goes through ``combine.fold``: a Ray
    ``groupby().aggregate()`` sort-shuffles and walks groups in Python."""
    root = pathlib.Path(__file__).resolve().parents[1] / "ragnificent_ray"
    assert grouped_aggregates(root) == []


# --- the one read of an sf_dir table (pipelines/inputs.py scan) -------

def _scanned(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _lineitem(n: int) -> pa.Table:
    rng = np.random.default_rng(5)
    day = np.datetime64("1995-06-01", "us")
    return pa.table({
        "l_orderkey": pa.array(np.arange(n, dtype=np.int64) // 4),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n)),
        "l_shipdate": pa.array(
            day + rng.integers(0, 900, n).astype("timedelta64[D]")),
        "l_quantity": pa.array(rng.integers(1, 50, n)),
    })


def _write(tmp_path, name: str, table: pa.Table, parts: int = 1,
           row_group_size=None) -> str:
    import pyarrow.parquet as pq

    path = tmp_path / f"{name}.parquet"
    if parts == 1:
        pq.write_table(table, path, row_group_size=row_group_size)
        return str(path)
    path.mkdir()
    size = -(-table.num_rows // parts)
    for i, o in enumerate(range(0, table.num_rows, size)):
        pq.write_table(table.slice(o, size), path / f"part-{i}.parquet")
    return str(path)


def test_scan_equals_read_table(ray_session, tmp_path):
    """A column subset, the ``filter=`` expression of
    ``priority_line_counts`` (also on a column it does not select), a
    directory-of-parts table and an empty table read as
    ``pq.read_table`` reads them."""
    import datetime as dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ragnificent_ray.pipelines.inputs import scan

    li = _lineitem(3000)
    one = _write(tmp_path, "lineitem", li)
    parts = _write(tmp_path, "parts", li, parts=3)
    empty = _write(tmp_path, "empty", li.slice(0, 0))
    window = ((pads.field("l_shipdate") >= dt.datetime(1996, 1, 1))
              & (pads.field("l_shipdate") < dt.datetime(1997, 1, 1)))
    cols = ["l_orderkey", "l_returnflag", "l_shipdate"]
    cases = [("lineitem", one, cols, None),
             ("lineitem", one, cols, window),
             ("lineitem", one, ["l_orderkey"], window),
             ("parts", parts, None, None),
             ("parts", parts, ["l_quantity", "l_orderkey"], window)]
    for name, path, columns, filt in cases:
        want = pq.read_table(path, columns=columns, filters=filt)
        got = _scanned(scan(str(tmp_path), name, columns, filt))
        assert got.schema == want.schema, (name, columns)
        assert 0 < got.num_rows < li.num_rows or filt is None
        assert _sorted_rows(got) == _sorted_rows(want), (name, columns)
    ds = scan(str(tmp_path), "empty", ["l_orderkey", "l_shipdate"])
    want = pq.read_table(empty, columns=["l_orderkey", "l_shipdate"])
    assert ds.count() == 0
    assert ds.schema().base_schema == want.schema


def test_scan_block_rule(ray_session, tmp_path):
    """A table below ``BLOCK_BYTES`` of selected columns is one read
    task and one block; above it, one block per ``BLOCK_BYTES``, at most
    two per CPU, whether the table is one row group that Ray cuts after
    its read task or many row groups read in runs."""
    import pyarrow.parquet as pq
    import ray

    from ragnificent_ray.pipelines import inputs

    cap = 2 * int(ray.cluster_resources()["CPU"])
    per_row = 8  # the int64 column read
    wide = 2 * cap * inputs.BLOCK_BYTES // per_row
    cases = [("small", 1000, None),
             ("three", 3 * inputs.BLOCK_BYTES // per_row, None),
             ("wide", wide, None),
             ("groups", wide, wide // 16)]
    counts = []
    for name, rows, group in cases:
        # "pad" is as wide as "k" but not read, so not counted
        k = np.arange(rows, dtype=np.int64)
        t = pa.table({"k": pa.array(k), "pad": pa.array(3 * k)})
        path = _write(tmp_path, name, t, row_group_size=group)
        meta = pq.read_metadata(path)
        nbytes = sum(meta.row_group(i).column(0).total_uncompressed_size
                     for i in range(meta.num_row_groups))
        ds = inputs.scan(str(tmp_path), name, ["k"]).materialize()
        assert ds.num_blocks() == inputs.block_count(nbytes)
        assert ds.sum("k") == rows * (rows - 1) // 2
        counts.append(ds.num_blocks())
    assert counts[0] == 1
    assert 1 < counts[1] < cap
    assert counts[2] == counts[3] == cap


def test_scan_plans_without_a_task(ray_session, tmp_path, monkeypatch):
    """Planning a scan starts no task: Ray's parquet reader samples its
    files in a remote ``sample_fragments`` task, patched here to raise."""
    import ray.data as rd
    from ray.data._internal.datasource import parquet_datasource

    from ragnificent_ray.pipelines.inputs import scan

    def sampled(*args, **kwargs):
        raise AssertionError("sample_fragments ran")

    monkeypatch.setattr(parquet_datasource, "sample_fragments", sampled)
    path = _write(tmp_path, "lineitem", _lineitem(500))
    with pytest.raises(AssertionError, match="sample_fragments"):
        rd.read_parquet(path)
    ds = scan(str(tmp_path), "lineitem", ["l_orderkey"])
    assert ds.count() == 500


# the readers of paths that are not an sf_dir table: crawl outputs
# (CrawlResult.dataset), shuffle_write's part files, yaml_pipeline's
# declared sources
_NON_TABLE_READERS = {"crawl.py", "shuffle_write.py", "yaml_pipeline.py"}


def table_reads(root: pathlib.Path) -> list[str]:
    """``file:line`` of every ``read_parquet`` call under ``root``
    outside the non-table readers or of a ``_pq(...)`` table path, and
    of every ``override_num_blocks=`` outside ``inputs.py``."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            table_path = any(isinstance(a, ast.Call)
                             and getattr(a.func, "id", None) == "_pq"
                             for a in node.args)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "read_parquet"
                    and (path.name not in _NON_TABLE_READERS or table_path)
                    or path.name != "inputs.py"
                    and any(k.arg == "override_num_blocks"
                            for k in node.keywords)):
                found.append(f"{path}:{node.lineno}")
    return found


def test_every_table_read_goes_through_scan():
    """Every read of an ``sf_dir`` table goes through ``inputs.scan``:
    Ray's ``read_parquet`` samples its files in a task per call and cuts
    a one-row-group table into 2 x CPUs blocks."""
    root = (pathlib.Path(__file__).resolve().parents[1] / "ragnificent_ray"
            / "pipelines")
    assert table_reads(root) == []


# --- a broadcast value rides in the map's closure ----------------------

_ACTOR_POOL_KEYWORDS = {"fn_constructor_kwargs", "concurrency"}


def actor_pool_maps(root: pathlib.Path) -> list[str]:
    """``file:line`` of every ``map_batches`` call under ``root`` that
    passes ``fn_constructor_kwargs=`` or ``concurrency=``, except on
    ``HashEmbedder`` and in ``yaml_pipeline.py`` (its sink's pool size
    is configured)."""
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "yaml_pipeline.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"
                    and not (node.args and getattr(node.args[0], "id", None)
                             == "HashEmbedder")
                    and any(k.arg in _ACTOR_POOL_KEYWORDS
                            for k in node.keywords)):
                found.append(f"{path}:{node.lineno}")
    return found


def test_query_maps_run_as_tasks(tmp_path):
    """A stateless per-batch map is a plain task function that captures
    its broadcast value in its closure (Ray Data puts a map's function in
    the object store once per execution); only the stateful embedder
    and the configured vector sink run as actor pools."""
    (tmp_path / "q.py").write_text(
        "ds.map_batches(Probe, fn_constructor_kwargs={'ref': r})\n"
        "ds.map_batches(probe, batch_size=8, concurrency=2)\n"
        "ds.map_batches(HashEmbedder, fn_constructor_kwargs={}, "
        "concurrency=2)\n")
    assert actor_pool_maps(tmp_path) == [f"{tmp_path}/q.py:1",
                                         f"{tmp_path}/q.py:2"]
    root = (pathlib.Path(__file__).resolve().parents[1] / "ragnificent_ray"
            / "pipelines")
    assert actor_pool_maps(root) == []
