"""Extraction stages: pages → documents → rendered / outlinks / harvest.

All stateless ``map_batches`` task stages over Arrow batches
(``batch_format="pyarrow"``). The per-row HTML parse is the CPU work of
the pipeline (the reference pays it in Rust; we pay it in the stdlib
parser) — everything around it stays columnar.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.htmldom import parse_page
from ..functions.imaging import decode_image, phash64, phash64_batch
from ..functions.render import document_to_markdown, render_document
from ..schema import DOCUMENTS, HARVEST, RENDERED

_CARRY = ("url", "domain", "depth", "seed_rank", "from_cache")


def derive_rank(parent_rank: int, idx: int, stride: int = 100_000) -> int:
    """Child rank = parent_rank * stride + idx, saturating: beyond depth
    ~3 the product would overflow int64, so deep children inherit the
    parent rank (intra-page order is folded — documented limit; the
    parity corpus stays within the exact regime)."""
    if parent_rank < (2**62) // stride:
        return parent_rank * stride + idx
    return parent_rank


def _carry_cols(batch: pa.Table, keep: list[int] | None = None) -> dict:
    cols = {}
    for name in _CARRY:
        if name in batch.column_names:
            col = batch.column(name)
            cols[name] = col.take(pa.array(keep, type=pa.int64())) if keep is not None else col
    return cols


def parse_documents_batch(batch: pa.Table, with_outlinks: bool = True) -> pa.Table:
    """pages → documents (M7) + an ``outlinks`` column (M15).

    One DOM build per page serves both extraction semantics
    (:func:`parse_page`); the large ``html`` column is dropped here, so
    everything downstream is narrow. Non-200 / empty rows are dropped.
    """
    urls = batch.column("url").to_pylist()
    statuses = batch.column("status").to_pylist()
    htmls = batch.column("html").to_pylist()
    keep, docs, outlinks = [], [], []
    for i, (url, status, html) in enumerate(zip(urls, statuses, htmls)):
        if status != 200 or not html:
            continue
        keep.append(i)
        doc, links = parse_page(html.decode("utf-8", "replace"), url)
        docs.append(doc)
        outlinks.append(links)
    cols = _carry_cols(batch, keep)
    for field in ("title", "headings", "paragraphs", "links", "images",
                  "lists", "code_blocks", "blockquotes"):
        cols[field] = pa.array(
            [d[field] for d in docs], type=DOCUMENTS.field(field).type
        )
    if with_outlinks:
        cols["outlinks"] = pa.array(outlinks, type=pa.list_(pa.string()))
    return pa.table(cols)


def render_batch(batch: pa.Table, formats: tuple = ("markdown",)) -> pa.Table:
    """documents → rendered (M8-M10). One output row per (doc, fmt);
    ``markdown`` column always carried for chunking
    (``core/scraper.py:488-497`` keeps markdown alongside json/xml)."""
    n = batch.num_rows
    rows = batch.to_pylist()
    out = {name: [] for name in RENDERED.names}
    for row in rows:
        # checkpointed documents carry the page url as `url`; the
        # renderers' Document shape names it `base_url`
        row.setdefault("base_url", row["url"])
        md = document_to_markdown(row)
        for fmt in formats:
            content = md if fmt == "markdown" else render_document(row, fmt)
            out["url"].append(row["url"])
            out["domain"].append(row.get("domain", ""))
            out["depth"].append(row.get("depth", 0))
            out["seed_rank"].append(row.get("seed_rank", 0))
            out["title"].append(row["title"])
            out["fmt"].append(fmt)
            out["content"].append(content)
            out["markdown"].append(md)
    return pa.table(
        {name: pa.array(out[name], type=RENDERED.field(name).type)
         for name in RENDERED.names}
    )


def harvest_decode_batch(batch: pa.Table) -> pa.Table:
    """fetched image bytes → harvest rows (decode, dims, phash).

    ``image_id`` = filename stem; ``fmt`` = extension. Failed fetches
    (non-200) are dropped. Decoded pixels are only used transiently for
    w/h/phash — the stored ``bytes`` stay the encoded payload
    (input_hint schema)."""
    body_name = "html" if "html" in batch.column_names else "body"
    urls = batch.column("url").to_pylist()
    statuses = batch.column("status").to_pylist()
    bodies = batch.column(body_name).to_pylist()
    keep: list[int] = []
    image_ids: list[str] = []
    fmts: list[str] = []
    dims: list[tuple[int, int]] = []
    pixel_rows: list = []
    for i, (url, status, body) in enumerate(zip(urls, statuses, bodies)):
        if status != 200 or not body:
            continue
        name = url.rsplit("/", 1)[-1]
        stem, _, ext = name.rpartition(".")
        try:
            pixels = decode_image(body, ext)
        except Exception:
            continue
        keep.append(i)
        image_ids.append(stem)
        fmts.append(ext)
        dims.append(pixels.shape[:2])
        pixel_rows.append(pixels)
    # phash in one vectorized call per distinct shape (images are small,
    # so per-image numpy-call overhead dominates the scalar path)
    phashes = np.zeros(len(pixel_rows), dtype=np.int64)
    by_shape: dict[tuple, list[int]] = {}
    for i, p in enumerate(pixel_rows):
        by_shape.setdefault(p.shape, []).append(i)
    for idxs in by_shape.values():
        if len(idxs) == 1:
            phashes[idxs[0]] = phash64(pixel_rows[idxs[0]])
        else:
            phashes[idxs] = phash64_batch(
                np.stack([pixel_rows[i] for i in idxs]))
    # bytes / caption come straight from the input table via take — the
    # encoded payloads are the big column; never round-trip them through
    # Python lists
    take = pa.array(keep, type=pa.int64())
    hw = np.asarray(dims, dtype=np.int32).reshape(len(keep), 2)
    return pa.table(
        {
            "image_id": pa.array(image_ids, type=pa.string()),
            "bytes": batch.column(body_name).take(take).cast(pa.binary()),
            "w": pa.array(hw[:, 1]),
            "h": pa.array(hw[:, 0]),
            "fmt": pa.array(fmts, type=pa.string()),
            "caption": batch.column("caption").take(take),
            "phash": pa.array(phashes),
        },
        schema=HARVEST,
    )


def metadata_batch(batch: pa.Table) -> pa.Table:
    """pages → page-metadata columns (M16)."""
    from ..functions.htmldom import extract_metadata

    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    metas = [
        extract_metadata(h.decode("utf-8", "replace")) if h else
        {"title": "", "description": "", "keywords": "", "og_title": "", "og_image": ""}
        for h in htmls
    ]
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "title": pa.array([m["title"] for m in metas], type=pa.string()),
        "description": pa.array([m["description"] for m in metas], type=pa.string()),
        "keywords": pa.array([m["keywords"] for m in metas], type=pa.string()),
        "og_title": pa.array([m["og_title"] for m in metas], type=pa.string()),
        "og_image": pa.array([m["og_image"] for m in metas], type=pa.string()),
    })
