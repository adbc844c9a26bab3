"""Lance sink adapter (S13): real Lance fragments when available,
Parquet-directory layout otherwise (SURVEY §7.6 — no ``pylance`` in this
sandbox).

A harvest table is written the way Ray's own ``LanceDatasink`` writes a
Dataset: each write task calls :func:`write_harvest` on its own rows,
and the table's owner calls :func:`commit_harvest` once with every
task's result. With pylance installed a part is the fragments
``lance.fragment.write_fragments`` returns, and the commit is one
``LanceDataset.commit`` of an ``Overwrite`` of them; without, a part is
one content-addressed ``{uri}/part-*.parquet`` file, and the commit
writes ``_lance_adapter.json`` recording the schema, the parts and the
intended Lance layout. ``read_harvest`` reads either form back.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..state.checkpoint import write_part

try:  # pragma: no cover - not present in sandbox
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def write_harvest(table: pa.Table, uri: str) -> list:
    """One part of the harvest table at ``uri``, for
    :func:`commit_harvest`: the Lance fragments written, or the parquet
    file name. An empty table writes nothing (``[]``)."""
    if not table.num_rows:
        return []
    if HAVE_LANCE:
        from lance.fragment import write_fragments

        return write_fragments(table, uri, schema=table.schema)
    # a part's image ids name it, so a retried task rewrites its file
    basis = "\n".join(table.column("image_id").to_pylist())
    return [write_part(table, uri, basis)]


def commit_harvest(uri: str, parts: list, schema: pa.Schema) -> None:
    """Make the :func:`write_harvest` ``parts`` the harvest table at
    ``uri``, in one commit."""
    written = [p for part in parts for p in part]
    if HAVE_LANCE:
        import lance

        lance.LanceDataset.commit(
            uri, lance.LanceOperation.Overwrite(schema, written))
        return
    os.makedirs(uri, exist_ok=True)
    meta = {
        "format": "lance-parquet-adapter",
        "schema": str(schema),
        "parts": sorted(written),
        "note": "pylance unavailable in sandbox; parquet stand-in",
    }
    with open(os.path.join(uri, "_lance_adapter.json"), "w") as f:
        json.dump(meta, f, indent=2)


def read_harvest(uri: str) -> pa.Table:
    if HAVE_LANCE:
        import lance

        return lance.dataset(uri).to_table()
    files = [os.path.join(uri, n) for n in sorted(os.listdir(uri))
             if n.endswith(".parquet")]
    return pa.concat_tables([pq.read_table(f) for f in files])
