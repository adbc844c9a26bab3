"""Per-round checkpoints with lineage + metrics, and resumable manifests.

North-rule requirement: "resumable from per-partition checkpoints
carrying lineage and fetch metrics" (BASELINE.json). Layout under the
crawl's output directory::

    out_dir/
      manifest.json                # atomic (write tmp + rename)
      rounds/round=0000/
        frontier/*.parquet         # the fetched frontier slice (url_hash
                                   #   column doubles as the seen-set spill)
        documents/*.parquet
        rendered/*.parquet
        chunks/*.parquet
        harvest/*.parquet          # Lance-adapter layout (io/lance.py)
        lineage.json               # inputs, counts, config hash
        metrics.json               # fetch metrics (G6)

Resume: completed rounds are skipped; the URL-seen shards are rebuilt by
replaying the ``url_hash`` columns of completed rounds' frontier files
(hashes only — cheap, SURVEY §4.4). Within a round the unit of work is a
frontier partition; a crashed round restarts from its frontier file,
idempotent because chunk/harvest ids are content-addressed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

TABLES = ("frontier", "documents", "rendered", "chunks", "harvest", "embeddings")


class CheckpointManager:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(os.path.join(out_dir, "rounds"), exist_ok=True)
        self.manifest_path = os.path.join(out_dir, "manifest.json")

    # ------------------------------------------------------------ layout

    def round_dir(self, r: int) -> str:
        return os.path.join(self.out_dir, "rounds", f"round={r:04d}")

    def table_dir(self, r: int, table: str) -> str:
        return os.path.join(self.round_dir(r), table)

    # ---------------------------------------------------------- manifest

    def load_manifest(self) -> dict:
        if not os.path.exists(self.manifest_path):
            return {"completed_rounds": [], "config_hash": None}
        with open(self.manifest_path, encoding="utf-8") as f:
            return json.load(f)

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
        os.replace(tmp, self.manifest_path)  # atomic

    def complete_round(self, r: int, lineage: dict, metrics: dict,
                       config_hash: str) -> None:
        rdir = self.round_dir(r)
        with open(os.path.join(rdir, "lineage.json"), "w", encoding="utf-8") as f:
            json.dump(lineage, f, indent=2)
        with open(os.path.join(rdir, "metrics.json"), "w", encoding="utf-8") as f:
            json.dump(metrics, f, indent=2)
        manifest = self.load_manifest()
        manifest["config_hash"] = config_hash
        entry = {"round": r, "completed_at": time.time(),
                 "lineage": lineage, "metrics": metrics}
        manifest["completed_rounds"] = [
            e for e in manifest["completed_rounds"] if e["round"] != r
        ] + [entry]
        manifest["completed_rounds"].sort(key=lambda e: e["round"])
        self._write_manifest(manifest)

    def completed_rounds(self, config_hash: str | None = None) -> list[int]:
        m = self.load_manifest()
        if config_hash is not None and m.get("config_hash") not in (None, config_hash):
            return []  # config changed → previous checkpoints invalid
        return [e["round"] for e in m["completed_rounds"]]

    # ------------------------------------------------------------ resume

    def seen_hashes_for_rounds(
        self, rounds: list[int],
        tables: tuple = ("frontier", "image_frontier"),
    ) -> list[int]:
        """Replay rounds' url_hash columns (frontier = enqueued pages,
        image_frontier = claimed image URLs)."""
        hashes: list[int] = []
        for r in rounds:
            for sub in tables:
                d = self.table_dir(r, sub)
                if not os.path.isdir(d):
                    continue
                for name in sorted(os.listdir(d)):
                    if name.endswith(".parquet"):
                        t = pq.read_table(os.path.join(d, name),
                                          columns=["url_hash"])
                        hashes.extend(t.column("url_hash").to_pylist())
        return hashes

    def frontier_for_round(self, r: int):
        """Next-round frontier saved by the previous round (for resume)."""
        d = self.table_dir(r, "frontier")
        if not os.path.isdir(d):
            return None
        files = [os.path.join(d, n) for n in sorted(os.listdir(d))
                 if n.endswith(".parquet")]
        if not files:
            return None
        return pa.concat_tables([pq.read_table(f) for f in files])


def write_part(table: pa.Table, path: str, basis: str) -> str:
    """Write ``table`` into the directory ``path`` as
    ``part-<digest of basis>.parquet`` (tmp file, then rename) and return
    the file name. The caller names a part by its content, so a retried
    task overwrites its own file instead of duplicating rows."""
    key = hashlib.blake2b(basis.encode(), digest_size=10).hexdigest()
    os.makedirs(path, exist_ok=True)
    tmp = os.path.join(path, f".part-{key}.tmp")
    pq.write_table(table, tmp)
    name = f"part-{key}.parquet"
    os.replace(tmp, os.path.join(path, name))
    return name


def config_hash(cfg) -> str:
    """Stable hash of the crawl config for lineage records."""
    from dataclasses import asdict

    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()
