"""Where a query's input tables live, how many bytes they hold, and the
one read of them.

:func:`scan` is the read of every ``sf_dir`` table. It plans its read
tasks from the parquet footers, read in the calling process: each task's
rows and the uncompressed bytes of its selected columns come from the
footer, and planning starts no task. Ray 2.49's ``read_parquet`` starts a remote
``sample_fragments`` task per call and waits for it, and it cuts a
one-row-group table into 2 x CPUs blocks after one read task
(``ReadParquet->SplitBlocks(8)`` in ``ds.stats()`` on 4 CPUs).
:func:`block_count` sizes a scan from its selected bytes instead: one
block per ``BLOCK_BYTES``, at most two per CPU, so a small table is one
read task and one block, and a table of fewer row groups than blocks is
cut into blocks after its read tasks.

Timed warm at sf0.1 on 4 CPUs, ``read_parquet`` (the parent commit)
and ``scan`` alternating in one Ray session; all 216 pipeline queries
sum 190.9 -> 176.7 s in single runs (BASELINE.md has the table).
Medians of 7, in seconds:

=====================  ============  ====
query                  read_parquet  scan
=====================  ============  ====
basket_lift            1.73          1.99
basket_triples         1.88          2.13
minhash_lsh_pairs      1.38          1.23
fingerprints           0.50          0.46
copurchase_bfs         2.62          1.93
=====================  ============  ====
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

# selected uncompressed bytes per block, sized warm at sf0.1 on 4 CPUs
# against Ray's read_parquet (medians of 5-7, alternating in one Ray
# session). A sort-based map_groups is as wide as its input, so the
# read's block count sets its parallelism: at 1 MiB the events reads
# (1.2-2.5 MB) were 2-3 blocks and events_funnel ran 0.69 -> 0.85 s,
# ab_cuped 0.42 -> 0.48 s; at 2 MiB sessionize ran 0.69 -> 0.89 s.
# 512 KiB gave 0.63, 0.39 and 0.65 s, with fingerprints 0.42 -> 0.41 s.
BLOCK_BYTES = 512 << 10


def _pq(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def table_bytes(sf_dir: str, *tables: str) -> int:
    """Bytes of parquet behind ``tables``: a table is one file or a
    directory of part files; a missing table counts 0."""
    sz = 0
    for table in tables:
        path = _pq(sf_dir, table)
        try:
            if os.path.isdir(path):
                sz += sum(os.path.getsize(os.path.join(path, f))
                          for f in os.listdir(path))
            else:
                sz += os.path.getsize(path)
        except OSError:
            pass
    return sz


def fold_buckets(sf_dir: str, table: str) -> int:
    """Key-hash buckets for a keyed fold over ``table``: 8 per ~64 MiB
    of its parquet, at least 16 and at most 8 x max(2, CPUs // 2)."""
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return 8 * max(2, min(max(2, cpus // 2),
                          int(table_bytes(sf_dir, table) // (64 << 20)) + 1))


def block_count(nbytes: int) -> int:
    """Read tasks for ``nbytes`` of selected uncompressed bytes: one per
    ``BLOCK_BYTES``, at least one and at most two per CPU."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    return max(1, min(2 * cpus, -(-nbytes // BLOCK_BYTES)))


def _read(pieces, schema: pa.Schema, columns, filter):
    """One read task: the rows of each ``(path, row_group)`` piece that
    ``filter`` keeps. Empty tables are dropped, as Ray's parquet reader
    does."""
    fmt, fs = pads.ParquetFileFormat(), pafs.LocalFileSystem()
    for path, row_group in pieces:
        t = fmt.make_fragment(path, fs, row_groups=[row_group]).to_table(
            schema=schema, columns=columns, filter=filter,
            use_threads=False)
        if t.num_rows:
            yield t.replace_schema_metadata(schema.metadata)


class _ScanDatasource(Datasource):
    """The read tasks of one :func:`scan`, planned from the footers:
    ``min(blocks, row groups)`` runs of whole row groups, where
    ``blocks`` is the :func:`block_count` of the selected bytes."""

    def __init__(self, path: str, columns, filter):
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
                  if f.endswith(".parquet")]
                 if os.path.isdir(path) else [path])
        if not files:
            raise FileNotFoundError(f"no parquet files under {path}")
        metas = [pq.read_metadata(f) for f in files]
        schema = metas[0].schema.to_arrow_schema()
        out = schema if columns is None else pa.schema(
            [schema.field(c) for c in columns], schema.metadata)
        keep = set(out.names)
        units = []  # (path, row group, rows, selected uncompressed bytes)
        for f, m in zip(files, metas):
            for i in range(m.num_row_groups):
                rg = m.row_group(i)
                units.append((f, i, rg.num_rows, sum(
                    rg.column(c).total_uncompressed_size
                    for c in range(rg.num_columns)
                    if rg.column(c).path_in_schema.split(".")[0] in keep)))
        self.nbytes = sum(u[3] for u in units)
        self.blocks = block_count(self.nbytes)

        def task(run) -> ReadTask:
            pieces = [units[x][:2] for x in run]
            meta = BlockMetadata(
                num_rows=None if filter is not None else sum(
                    units[x][2] for x in run),
                size_bytes=sum(units[x][3] for x in run),
                input_files=list(dict.fromkeys(f for f, _ in pieces)),
                exec_stats=None)
            return ReadTask(lambda: _read(pieces, schema, columns, filter),
                            meta, schema=out)

        # a table with no row group still reads as one (empty) task
        self.tasks = [task(run) for run in np.array_split(
            np.arange(len(units)), min(self.blocks, len(units)) or 1)]

    def get_name(self) -> str:
        return "Scan"

    def estimate_inmemory_data_size(self) -> int:
        return self.nbytes

    def get_read_tasks(self, parallelism: int) -> list:
        return self.tasks


def scan(sf_dir: str, table: str, columns=None, filter=None) -> rd.Dataset:
    """``table`` of ``sf_dir`` (one parquet file or a directory of part
    files) as a Dataset of ``columns`` (all when None), keeping the rows
    the ``pyarrow.dataset`` expression ``filter`` selects, in its
    :func:`block_count` blocks. Planning reads the footers in the
    calling process and starts no task."""
    src = _ScanDatasource(_pq(sf_dir, table), columns, filter)
    # asking for the rule's block count: with fewer read tasks (fewer
    # row groups), Ray cuts each task's output into blocks after the
    # task, unfused from the maps that follow, so they run side by side
    # with no row group decoded twice (cutting a one-row-group table
    # into row-slice tasks instead decoded it once per task: lineitem_agg
    # 0.74 s against 0.39 s at 8 blocks, sf0.1)
    return rd.read_datasource(src, override_num_blocks=src.blocks)
