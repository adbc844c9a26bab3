"""The combiner aggregate — the grouped fold of the relational, text,
temporal and TPC-H query modules.

Each batch collapses to one row per key with Arrow's hash ``group_by``
(the combiner of SURVEY §2.6/G1), so the shuffle that follows moves one
row per key per block; a small Ray ``groupby`` then merges the partial
rows. ``aggs`` is an ordered ``{out_name: (column, op)}`` with ``op`` one
of ``sum``, ``count``, ``min``, ``max``; every result is the keys, then
the aggregates in the order given, under their ``out_name``.

The one decision this module owns is how a per-batch op's partials merge
across blocks: ``count`` merges by ``Sum``, while ``sum``, ``min`` and
``max`` merge by themselves. Arrow's ``count`` skips nulls; a ``sum``
over a ones column does not. Integer sums stay int64 and exact.
"""

from __future__ import annotations

import pyarrow as pa
from ray.data.aggregate import Max, Min, Sum

_MERGE = {"sum": Sum, "count": Sum, "min": Min, "max": Max}


def group_agg(table: pa.Table, keys, aggs: dict) -> pa.Table:
    """Batch-local step: ``table`` grouped by ``keys`` (a name or a list),
    Arrow's ``<column>_<op>`` outputs renamed to the ``aggs`` names."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    g = table.group_by(keys).aggregate(list(dict.fromkeys(aggs.values())))
    return pa.table(
        [g.column(k) for k in keys]
        + [g.column(f"{c}_{op}") for c, op in aggs.values()],
        names=keys + list(aggs))


def fold(ds, keys, aggs: dict):
    """Cross-block merge of partials: each ``column`` holds per-block
    partials of ``op`` and merges by that op's Ray aggregation, aliased
    to ``out_name``."""
    return ds.groupby(keys).aggregate(
        *(_MERGE[op](c, alias_name=out) for out, (c, op) in aggs.items()))


def combine(ds, keys, aggs: dict, cells=None, batch_size: int = 65536):
    """``map_batches(cells → group_agg)`` then :func:`fold`. ``cells``
    maps a batch to the table to group (the batch itself when None)."""
    def partial(batch: pa.Table) -> pa.Table:
        return group_agg(batch if cells is None else cells(batch),
                         keys, aggs)

    return fold(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=batch_size),
        keys, {out: (out, op) for out, (_, op) in aggs.items()})
