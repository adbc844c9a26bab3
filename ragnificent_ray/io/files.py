"""Per-page file export (S9 complete) + filename-from-URL (M18).

The reference saves one file per scraped page named from the URL path
(``core/scraper.py:944-968`` ``_get_filename_from_url``; write at
``:970-1003`` ``_process_single_url`` → ``save_content:447-457``) and
chunk files as one ``chunks.jsonl`` or per-chunk ``{id}.json``
(``utils/chunk_utils.py:222-246`` ``save_chunks``).

Ray-Data-first: the export is a streaming sink — each ``map_batches``
task writes its own rows' files (atomic tmp+rename per file) and passes
through a count row, so a 100 TB rendered table exports without any
driver materialization. Name collisions across URLs (the reference
silently overwrites, last write wins) are preserved as-is — files are
keyed by URL-derived name exactly like the reference.

Divergence (documented): ``export_chunks(fmt="jsonl")`` writes one
``chunks-{part}.jsonl`` per block instead of the reference's single
``chunks.jsonl`` — one giant file is the non-resumable anti-pattern at
scale; ``cat`` restores byte-parity modulo row order.
"""

from __future__ import annotations

import json
import os
import re
from urllib.parse import urlparse

import pyarrow as pa

_URL_PATH_PATTERN = re.compile(r'[\\/*?:"<>|]')  # core/scraper.py:37

_EXT = {"markdown": ".md", "json": ".json", "xml": ".xml"}


def filename_from_url(url: str, output_format: str = "markdown") -> str:
    """M18 — ``_get_filename_from_url`` (``core/scraper.py:944-968``):
    path segments joined with ``_``, invalid chars replaced, extension
    forced to the output format (any existing extension replaced)."""
    path_parts = urlparse(url).path.strip("/").split("/")
    if not path_parts or path_parts[0] == "":
        filename = "index"
    else:
        filename = "_".join(path_parts)
    filename = _URL_PATH_PATTERN.sub("_", filename)
    ext = _EXT.get(output_format, f".{output_format}")
    if not filename.endswith(ext):
        if "." in filename:
            filename = filename.rsplit(".", 1)[0] + ext
        else:
            filename += ext
    return filename


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


class FileExportSink:
    """``map_batches`` task sink: rendered rows → one file per page.

    Expects columns ``url``, ``fmt``, ``content`` (the crawl's
    ``rendered`` table layout). Emits a count row per batch."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        contents = batch.column("content").to_pylist()
        n = 0
        for url, fmt, content in zip(urls, fmts, contents):
            if content is None:
                continue
            _write_atomic(
                os.path.join(self.out_dir, filename_from_url(url, fmt)),
                content)
            n += 1
        return pa.table({"files_written": pa.array([n], type=pa.int64())})


def export_rendered_files(data, out_dir: str) -> int:
    """Rendered Dataset/table → one file per (url, fmt); returns the
    file count. Streaming — no driver materialization."""
    import pyarrow.compute as pc
    import ray.data as rd

    sink = FileExportSink(out_dir)
    if isinstance(data, pa.Table):
        return int(sink(data).column("files_written")[0].as_py())
    assert isinstance(data, rd.Dataset)
    counts = data.map_batches(sink, batch_format="pyarrow", batch_size=1024,
                              num_cpus=0.5)
    total = 0
    for b in counts.iter_batches(batch_size=4096, batch_format="pyarrow"):
        total += int(pc.sum(b.column("files_written")).as_py() or 0)
    return total


class ChunkExportSink:
    """``save_chunks`` parity (``chunk_utils.py:222-246``): ``jsonl``
    writes one sharded part per batch; ``json`` one file per chunk id."""

    def __init__(self, out_dir: str, fmt: str = "jsonl"):
        if fmt not in ("jsonl", "json"):
            raise ValueError(f"unknown chunk export format: {fmt!r}")
        self.out_dir = out_dir
        self.fmt = fmt
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        if self.fmt == "json":
            for r in rows:
                _write_atomic(
                    os.path.join(self.out_dir, f"{r['id']}.json"),
                    json.dumps(r, indent=2, default=str))
        else:
            if rows:
                import hashlib

                part = hashlib.blake2b(
                    rows[0]["id"].encode(), digest_size=8).hexdigest()
                _write_atomic(
                    os.path.join(self.out_dir, f"chunks-{part}.jsonl"),
                    "".join(json.dumps(r, default=str) + "\n"
                            for r in rows))
        return pa.table({
            "files_written": pa.array(
                [len(rows) if self.fmt == "json" else (1 if rows else 0)],
                type=pa.int64())})


def export_chunks(data, out_dir: str, fmt: str = "jsonl") -> int:
    """Chunk Dataset/table → jsonl shards or per-chunk json files."""
    import pyarrow.compute as pc
    import ray.data as rd

    sink = ChunkExportSink(out_dir, fmt)
    if isinstance(data, pa.Table):
        return int(sink(data).column("files_written")[0].as_py())
    assert isinstance(data, rd.Dataset)
    counts = data.map_batches(sink, batch_format="pyarrow", batch_size=2048,
                              num_cpus=0.5)
    total = 0
    for b in counts.iter_batches(batch_size=4096, batch_format="pyarrow"):
        total += int(pc.sum(b.column("files_written")).as_py() or 0)
    return total
