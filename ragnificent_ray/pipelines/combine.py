"""The combiner aggregate — the grouped fold of every query module.

Each batch collapses to one row per key with Arrow's hash ``group_by``
(the combiner of SURVEY §2.6/G1), so the exchange that follows moves one
row per key per block; one task per key partition of
:func:`exchange.exchange` then merges the partial rows with ``group_by``
again. ``aggs`` is an ordered ``{out_name: (column, op)}`` with ``op``
one of ``sum``, ``count``, ``min``, ``max``; every result is the keys,
then the aggregates in the order given, under their ``out_name``.

The one decision this module owns is how a per-batch op's partials merge
across blocks: ``count`` merges by ``sum``, while ``sum``, ``min`` and
``max`` merge by themselves. Arrow's ``count`` skips nulls; a ``sum``
over a ones column does not. Integer sums stay int64 and exact. Null
keys form one group.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from .exchange import exchange, from_block_refs

_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def group_agg(table: pa.Table, keys, aggs: dict) -> pa.Table:
    """Batch-local step: ``table`` grouped by ``keys`` (a name or a list),
    Arrow's ``<column>_<op>`` outputs renamed to the ``aggs`` names."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    g = table.group_by(keys).aggregate(list(dict.fromkeys(aggs.values())))
    return pa.table(
        [g.column(k) for k in keys]
        + [g.column(f"{c}_{op}") for c, op in aggs.values()],
        names=keys + list(aggs))


def _merge(keys: list, aggs: dict, t: pa.Table) -> pa.Table:
    """One partition's merge, sorted by ``keys``. An empty partition may
    lack columns (every partial block was ``pa.table({})``); those come
    out null-typed."""
    if not t.num_rows:
        t = pa.table({c: t.column(c) if c in t.column_names else pa.nulls(0)
                      for c in dict.fromkeys(
                          keys + [c for c, _ in aggs.values()])})
    return group_agg(t, keys, aggs).sort_by([(k, "ascending") for k in keys])


def fold(ds, keys, aggs: dict):
    """Cross-block merge of partials: each ``column`` holds per-block
    partials of ``op`` and merges by that op's merge verb, under
    ``out_name``. Runs when called; each key partition's rows come out
    sorted by ``keys``, and at one partition the whole result is."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    return exchange([(ds, keys)], _merge, keys,
                    {out: (c, _MERGE[op]) for out, (c, op) in aggs.items()})


def combine(ds, keys, aggs: dict, cells=None, batch_size: int = 65536):
    """``map_batches(cells → group_agg)`` then :func:`fold`. ``cells``
    maps a batch to the table to group (the batch itself when None)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        return group_agg(batch if cells is None else cells(batch),
                         keys, aggs)

    merge = {out: (out, op) for out, (_, op) in aggs.items()}
    out = fold(ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=batch_size), keys, merge)
    if out.count() or not any(
            pa.types.is_null(t) for t in out.schema().base_schema.types):
        return out
    empty = _empty_partial(ds, partial)
    if empty is None:
        return out
    t = _merge(keys, merge, empty)
    return from_block_refs([ray.put(t)], [(0, t.nbytes, t.schema)])


def _empty_partial(ds, partial) -> pa.Table | None:
    """``partial`` of a 0-row table of ``ds``'s schema: the types of an
    empty input's fold. Ray runs no map over an empty block, so when no
    input block holds a row the partials carry no columns and the fold
    comes out null-typed.
    Asking ``ds`` for its schema executes it when its plan cannot tell.
    None when the schema is not Arrow's or a ``cells`` cannot take an
    empty batch (Ray never hands it one)."""
    schema = ds.schema()
    base = None if schema is None else schema.base_schema
    if not isinstance(base, pa.Schema):
        return None
    try:
        return partial(base.empty_table())
    except Exception:
        return None
