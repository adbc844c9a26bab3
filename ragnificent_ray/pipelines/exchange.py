"""The hash exchange: the all-to-all shape every query module joins and
folds with.

:func:`exchange` runs one function per key partition on plain tasks:

1. each input Dataset executes once, side by side, to Arrow block refs;
2. one split task per block hashes the key columns (:func:`key_hash`)
   and returns the block's ``P`` partition slices;
3. one task per partition concatenates each input's slices, runs the
   function on those tables and reports ``(rows, bytes, schema)`` for
   :func:`from_block_refs`.

:func:`hash_join` runs ``pa.Table.join`` with Ray's join-type verbs on
it and returns ``Dataset.join``'s rows under the same column names;
``combine.fold`` runs Arrow's ``group_by`` on it. Ray 2.49's
``Dataset.join`` starts ``num_partitions`` fresh
``HashShuffleAggregator`` actors per join and hashes each block with a
per-row Python loop; its ``groupby().aggregate()`` sort-shuffles and
walks the groups in Python. ``P`` is one partition per
``PARTITION_BYTES`` of input, at most one per CPU; at ``P == 1`` one
task takes every block.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.block import BlockAccessor

PARTITION_BYTES = 64 << 20

# the join types the pipelines use and the Arrow verbs Ray's join
# aggregators run for them
_VERBS = {t: t.replace("_", " ") for t in (
    "inner", "left_outer", "left_semi", "left_anti")}


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over uint64 (wrapping arithmetic)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _column_hash(col: pa.ChunkedArray) -> np.ndarray:
    t = col.type
    if pa.types.is_temporal(t):
        col = col.combine_chunks().view(
            pa.int64() if t.bit_width == 64 else pa.int32())
    if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
        # safe=False: a uint64 key past 2**63 wraps instead of raising
        return _mix(pc.fill_null(col.cast(pa.int64(), safe=False), 0)
                    .to_numpy().view(np.uint64))
    return pd.util.hash_array(col.to_numpy(zero_copy_only=False),
                              categorize=False)


def key_hash(table: pa.Table, keys) -> np.ndarray:
    """A uint64 hash of each row's ``keys``, the same in every process
    (Python's ``hash()`` of a str is salted per process). Integer,
    boolean and temporal keys hash as int64 through the splitmix64
    finalizer (a null as 0), other types through pandas' SipHash with
    its fixed key. A null key hashes alike on both sides, so one
    partition's ``pa.Table.join`` decides whether null keys match."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for k in keys:
        h = _mix(h * np.uint64(31) + _column_hash(table.column(k)))
    return h


def _arrow(block) -> pa.Table:
    return BlockAccessor.for_block(block).to_arrow()


@ray.remote
def _split(block, keys, n: int):
    """``block``'s rows in ``n`` slices by key hash. An empty block may
    lack the key columns (a map that returned ``pa.table({})``); it is
    its own empty slice of every partition."""
    t = _arrow(block)
    if not t.num_rows:
        return (t,) * n
    part = key_hash(t, keys) % np.uint64(n)
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(n + 1, dtype=np.uint64))
    t = t.take(order)
    return tuple(t.slice(a, b - a) for a, b in zip(bounds, bounds[1:]))


def _concat(blocks) -> pa.Table:
    return pa.concat_tables([_arrow(b) for b in blocks],
                            promote_options="default")


@ray.remote(num_returns=2)
def _partition(fn, args, counts, *blocks):
    """One partition: ``blocks`` are each input's slices in turn,
    ``counts[i]`` of input ``i``. Returns ``((rows, bytes, schema),
    fn(*args, *tables))`` with one concatenated table per input."""
    it = iter(blocks)
    t = fn(*args, *(_concat(islice(it, c)) for c in counts))
    return (t.num_rows, t.nbytes, t.schema), t


def from_block_refs(refs: list, metas: list) -> rd.Dataset:
    """A materialized Dataset over Arrow table ``refs`` whose
    ``(rows, bytes, schema)`` the caller knows, built with no task.

    ``ray.data.from_arrow_refs`` runs one metadata task per ref, and on
    a busy cluster they queue behind long tasks (64 refs: 19.1 s against
    0.94 s here, Ray 2.49.2). The plan constructors used are
    ``ray.data._internal`` (Ray 2.49); if an upgrade moves them, this
    falls back to ``from_arrow_refs``."""
    try:
        from ray.data._internal.logical.interfaces import LogicalPlan
        from ray.data._internal.logical.operators.from_operators import (
            FromArrow,
        )
        from ray.data._internal.plan import ExecutionPlan
        from ray.data._internal.stats import DatasetStats
        from ray.data.block import BlockMetadata, BlockMetadataWithSchema
        from ray.data.context import DataContext
        from ray.data.dataset import MaterializedDataset

        blocks = [
            BlockMetadataWithSchema(
                BlockMetadata(num_rows=n, size_bytes=size,
                              input_files=None, exec_stats=None),
                schema=schema)
            for n, size, schema in metas
        ]
        plan = ExecutionPlan(
            DatasetStats(metadata={"FromArrow": blocks}, parent=None),
            DataContext.get_current().copy())
        return MaterializedDataset(
            plan, LogicalPlan(FromArrow(refs, blocks), plan._context))
    except (ImportError, AttributeError, TypeError):
        return rd.from_arrow_refs(refs)


def _blocks(ds: rd.Dataset) -> tuple[list, int]:
    """``ds`` executed once: its block refs and their bytes. A Dataset
    that yields no block gives one empty table of its schema."""
    refs, nbytes = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            nbytes += meta.size_bytes or 0
    return refs or [ds.schema().base_schema.empty_table()], nbytes


def partition_count(nbytes: int) -> int:
    """One partition per ``PARTITION_BYTES`` of input, at most one per
    CPU of the session."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    return max(1, min(cpus, -(-nbytes // PARTITION_BYTES)))


def exchange(inputs: list, fn, *args) -> rd.Dataset:
    """``fn(*args, *tables)`` once per key partition (module doc), where
    ``inputs`` is ``[(Dataset, keys), ...]`` and ``tables`` holds each
    input's rows of that partition. Every input executes when called;
    the result is a materialized Dataset of the partitions' outputs."""
    # every execution at once: left then right ran the sf0.1 join
    # queries ~7% slower in total and query_mix's joins 0.04-0.06 s
    # slower each (4 CPUs)
    with ThreadPoolExecutor(len(inputs)) as pool:
        executed = list(pool.map(_blocks, [ds for ds, _ in inputs]))
    n = partition_count(sum(nbytes for _, nbytes in executed))
    # each block's n slices; at n == 1 a block is its one slice
    slices = [[r] if n == 1 else
              _split.options(num_returns=n).remote(r, keys, n)
              for (refs, _), (_, keys) in zip(executed, inputs)
              for r in refs]
    counts = [len(refs) for refs, _ in executed]
    parts = [_partition.remote(fn, args, counts, *(s[i] for s in slices))
             for i in range(n)]
    return from_block_refs([t for _, t in parts],
                           ray.get([m for m, _ in parts]))


def _join(how, on, right_on, left: pa.Table, right: pa.Table) -> pa.Table:
    return left.join(right, keys=on, right_keys=right_on,
                     join_type=_VERBS[how])


def hash_join(left: rd.Dataset, right: rd.Dataset, how: str, on,
              right_on=None) -> rd.Dataset:
    """``left.join(right, how, on=on, right_on=right_on)`` as an
    :func:`exchange` of ``pa.Table.join``: the same rows under the same
    columns, in no fixed order."""
    if how not in _VERBS:
        raise ValueError(f"unknown join type {how!r}; one of {list(_VERBS)}")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    if len(on) != len(right_on):
        raise ValueError(f"join keys {on} and {right_on} differ in count")
    return exchange([(left, on), (right, right_on)], _join, how, on,
                    right_on)
