"""Resumable shuffled-corpus writer — executing what
:func:`sampling.seeded_shuffle_manifest` plans.

The brief's output discipline ("write partitioned Parquet, one
directory per key range, so a failed run can skip finished
partitions") applied to the training-order shuffle: every doc gets the
same seeded md5-56 key as the manifest, buckets are the key's top
bits, and each bucket lands as ONE atomically-renamed parquet part
with rows ordered by (key, doc_id) inside — a complete, reproducible
shuffle epoch a trainer can stream in file order.

Resume = list the finished part files and prune their buckets BEFORE
the exchange: a re-run after a crash re-reads only the missing
buckets' rows, never rewrites a finished part (verified by mtime in
pytest). Atomicity = write to ``.part-XXXX.tmp`` then ``os.replace``,
the same torn-write discipline as the crawl's block writer
(``pipelines/crawl.py``).

Scale note: one bucket folds in one task here (64 buckets × corpus/64
rows); at 100 TB raise ``n_buckets`` so a bucket is tens of MiB — the
key's top ``log2(n_buckets)`` bits generalize, and the manifest op
stays the planning/audit companion.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..functions.hashing import md5_hex
from .inputs import scan
from .sampling import _SHUFFLE_KEY_BITS, SHUFFLE_BUCKETS


def _part_name(bucket: int) -> str:
    return f"part-{bucket:04d}.parquet"


def shuffle_write(sf_dir: str, out_dir: str, epoch: int = 0,
                  n_buckets: int = SHUFFLE_BUCKETS) -> dict:
    """Write the shuffled ``documents`` table under ``out_dir`` (one
    parquet part per key bucket, shuffle-ordered inside), skipping
    buckets whose part already exists. Returns a summary dict
    ``{"written": [...], "skipped": [...], "rows_written": n}``.

    ``n_buckets`` must be a power of two: buckets are the key's top
    ``log2(n_buckets)`` bits, so any other count would leave buckets
    that are never written and a resume that never converges."""
    if n_buckets < 1 or n_buckets & (n_buckets - 1):
        raise ValueError(
            f"n_buckets must be a power of two, got {n_buckets}")
    shift = _SHUFFLE_KEY_BITS - int(np.log2(n_buckets))
    os.makedirs(out_dir, exist_ok=True)
    done = {
        int(name[5:9]) for name in os.listdir(out_dir)
        if name.startswith("part-") and name.endswith(".parquet")
    }
    todo = [b for b in range(n_buckets) if b not in done]
    if not todo:
        return {"written": [], "skipped": sorted(done), "rows_written": 0}
    todo_arr = np.zeros(n_buckets, dtype=bool)
    todo_arr[todo] = True

    ds = scan(sf_dir, "documents")

    def key_and_prune(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        key = np.fromiter(
            (int(md5_hex(f"{d}:{epoch}")[:14], 16) for d in ids),
            dtype=np.int64, count=len(ids))
        bucket = (key >> shift).astype(np.int64)
        batch = batch.append_column("_key", pa.array(key))
        batch = batch.append_column("_bucket", pa.array(bucket))
        # prune finished buckets BEFORE the exchange: a resume ships
        # only the missing buckets' rows
        return batch.filter(pa.array(todo_arr[bucket]))

    def write_bucket(g: pa.Table) -> pa.Table:
        b = int(g.column("_bucket")[0].as_py())
        order = np.lexsort((
            g.column("doc_id").to_numpy(zero_copy_only=False),
            g.column("_key").to_numpy(zero_copy_only=False)))
        out = g.take(pa.array(order)).drop_columns(["_key", "_bucket"])
        tmp = os.path.join(out_dir, f".part-{b:04d}.tmp")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(out_dir, _part_name(b)))
        return pa.table({
            "bucket": pa.array([b], type=pa.int64()),
            "n_docs": pa.array([out.num_rows], type=pa.int64()),
        })

    manifest = (ds.map_batches(key_and_prune, batch_format="pyarrow",
                               batch_size=8192)
                .groupby("_bucket")
                .map_groups(write_bucket, batch_format="pyarrow")
                .to_pandas())
    return {
        "written": sorted(int(b) for b in manifest["bucket"]),
        "skipped": sorted(done),
        "rows_written": int(manifest["n_docs"].sum()),
    }


def read_shuffled(out_dir: str):
    """The trainer-side read: parts in bucket order, rows already in
    shuffle order inside each part."""
    files = sorted(
        os.path.join(out_dir, n) for n in os.listdir(out_dir)
        if n.startswith("part-") and n.endswith(".parquet"))
    return rd.read_parquet(files)
