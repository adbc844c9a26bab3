"""Where a query's input tables live, and how many bytes they hold."""

from __future__ import annotations

import os

import ray


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
