"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship RAG pipeline (chunk → embed) over sf0.001.
``queries()`` — one entry per implemented operator family (SURVEY §2):
relational, text-analysis, dedup, similarity-search, RAG, crawl, and
multimodal stages. ``oracle_sql()`` — DuckDB equivalents where the op is
SQL-expressible; crawl/sketch/embedding ops are rows-only by design.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"

# crawl world size per sf tier (FIXTURES.md scale knobs)
_WORLD_BY_SF = {
    "0.001": dict(n_domains=4, pages_per_domain=8, images_per_page=2),
    "0.01": dict(n_domains=8, pages_per_domain=16, images_per_page=2),
    "0.1": dict(n_domains=16, pages_per_domain=32, images_per_page=3),
}

_CRAWL_CACHE: dict[str, Any] = {}


def _world_for(sf_dir: str) -> dict:
    tail = os.path.basename(os.path.normpath(sf_dir))
    key = tail.replace("sf", "") if tail.startswith("sf") else "0.01"
    return dict(_WORLD_BY_SF.get(key, _WORLD_BY_SF["0.01"]))


def _crawl(sf_dir: str):
    """Run (once per sf_dir) the full crawl on the synthetic world sized
    for this sf tier; memoized because several queries() entries project
    different tables of the same crawl."""
    if sf_dir in _CRAWL_CACHE:
        return _CRAWL_CACHE[sf_dir]
    from ragnificent_ray.config import CrawlConfig, WorldConfig
    from ragnificent_ray.pipelines.crawl import run_crawl

    world = _world_for(sf_dir)
    cfg = CrawlConfig(world=WorldConfig(**world), default_rate=10000.0,
                      adaptive_throttling=False, retry_delay=0.05)
    tag = hashlib.blake2b(
        f"{sf_dir}:{sorted(world.items())}".encode(), digest_size=6
    ).hexdigest()
    out_dir = f"/tmp/ragnificent_ray_runs/crawl_{tag}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    res = run_crawl(cfg, out_dir)
    _CRAWL_CACHE[sf_dir] = res
    return res


# --------------------------------------------------------------- callables

def _crawl_harvest(sf_dir: str):
    return _crawl(sf_dir).table("harvest")


def _crawl_order(sf_dir: str):
    import pyarrow as pa

    ft = _crawl(sf_dir).table("frontier")
    return ft.select(["depth", "seed_rank", "url"]).sort_by(
        [("depth", "ascending"), ("seed_rank", "ascending")]
    )


def _crawl_documents(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    dt = _crawl(sf_dir).table("documents")

    def _len(col: str):
        return pc.cast(pc.list_value_length(
            dt.column(col).combine_chunks()), pa.int64())

    return pa.table({
        "url": dt.column("url"),
        "title": dt.column("title"),
        "depth": pc.cast(dt.column("depth"), pa.int32()),
        "seed_rank": pc.cast(dt.column("seed_rank"), pa.int64()),
        "n_headings": _len("headings"),
        "n_paragraphs": _len("paragraphs"),
        "n_links": _len("links"),
        "n_images": _len("images"),
        "n_code_blocks": _len("code_blocks"),
        "n_outlinks": _len("outlinks"),
    })


def _crawl_chunks(sf_dir: str):
    ct = _crawl(sf_dir).table("chunks")
    return ct.select(["id", "content", "source_url", "chunk_type",
                      "heading_path", "word_count", "char_count",
                      "nested_level", "position", "is_continuation"])


# the run-stable per-round counters ``crawl_round_metrics`` reports
ROUND_METRIC_KEYS = (
    "n_frontier", "pages_parsed", "pages_from_cache", "pages_failed",
    "rendered", "chunks", "image_frontier", "harvest_rows",
    "next_frontier", "seen_shard_bytes", "seen_rpc_calls",
    "seen_rpc_rows", "polite_domains", "polite_rpc_calls",
    "polite_rpc_rows")


def _crawl_round_metrics(sf_dir: str):
    """Per-round crawl lineage/metrics census — the north rule's
    "resumable from checkpoint with per-partition lineage + metrics"
    surface as a first-class query: one row per crawl round with the
    deterministic counters (frontier size, parsed/cached/failed pages,
    rendered, chunks, image frontier, harvest rows, next frontier)
    plus the seen-shard and politeness-shard scale audits (cumulative
    actor-heap bytes / domain-record counts and RPC fan-out watermarks
    per round — flat-bounded heap and O(batches × shards) RPC counts
    are the north rule's cross-process contract; politeness counts
    cover the synchronous reservation RPCs only, since fire-and-forget
    outcome reports land asynchronously). Wall-time fields are
    intentionally excluded so the result is run-stable (rows-only
    determinism gate)."""
    import pyarrow as pa

    res = _crawl(sf_dir)
    rounds = sorted(int(k.split("_", 1)[1]) for k in res.metrics
                    if k.startswith("round_"))
    cols: dict = {"round": pa.array(rounds, type=pa.int64())}
    for key in ROUND_METRIC_KEYS:
        cols[key] = pa.array(
            [int(res.metrics[f"round_{r}"].get(key) or 0)
             for r in rounds], type=pa.int64())
    return pa.table(cols)


def _crawl_domain_stats(sf_dir: str):
    import pyarrow.parquet as pq

    res = _crawl(sf_dir)
    return pq.read_table(os.path.join(res.out_dir, "domain_stats.parquet"))


def _image_decode_stats(sf_dir: str):
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import ImageDecodeStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(harvest).map_batches(
        ImageDecodeStage, batch_format="pyarrow", batch_size=64,
        concurrency=2,
    )


def _image_channel_stats(sf_dir: str):
    """Dataset NORMALIZATION constants over the harvest images: exact
    per-channel (R, G, B) pixel counts and mean/std — the first number
    a vision-pretraining config needs. Actor-pool decode emits one
    int64 moment row per channel per batch; the fold is a 3-key
    groupby-sum; mean/std convert the exact integer moments to float
    ONCE on the 3 driver rows. Rows-only check (binary pixels have no
    SQL view); an independent decode replay pins the values in
    ``tests/test_multimodal.py``."""
    import math

    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ragnificent_ray.functions.numeric import round_half_away
    from ragnificent_ray.stages.multimodal import ImageChannelStatsStage

    harvest = _crawl_harvest(sf_dir)
    rows = (rd.from_arrow(harvest)
            .map_batches(ImageChannelStatsStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2)
            .groupby("channel")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("s", alias_name="s"),
                       Sum("ss", alias_name="ss"))
            .take_all())
    rows.sort(key=lambda r: r["channel"])
    ch, npx, mean, std = [], [], [], []
    for r in rows:
        n, s, ss = int(r["n"]), int(r["s"]), int(r["ss"])
        ch.append(int(r["channel"]))
        npx.append(n)
        mean.append(round_half_away(float(s) / n, 6))
        std.append(round_half_away(
            math.sqrt(float(n * ss - s * s)) / n, 6))
    return pa.table({
        "channel": pa.array(ch, type=pa.int64()),
        "n_pixels": pa.array(npx, type=pa.int64()),
        "mean": pa.array(mean, type=pa.float64()),
        "std": pa.array(std, type=pa.float64()),
    })


def _image_resize(sf_dir: str):
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import ImageResizeStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(harvest).map_batches(
        ImageResizeStage, batch_format="pyarrow", batch_size=64,
        concurrency=2,
    ).select_columns(["image_id", "fmt", "thumb", "thumb_h", "thumb_w"])


def _image_aspect_buckets(sf_dir: str):
    """Aspect-ratio bucket assignment over the harvest images — the
    multi-resolution training-batch grouping (NovelAI/SDXL bucketing).
    Pure metadata math on (w, h); bytes never leave the scan. Rows-only
    check (binary-backed table); ladder/assignment semantics are pinned
    in ``tests/test_multimodal.py``."""
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import AspectBucketStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(harvest.select(["image_id", "w", "h"])) \
        .map_batches(AspectBucketStage, batch_format="pyarrow",
                     batch_size=4096, concurrency=2)


def _image_shard_pack(sf_dir: str):
    """Byte-budget training-shard assignment over the harvest images —
    the webdataset-prep step between dedup/filtering and shard
    writing: every image gets (shard_id, start_byte) so a writer can
    emit ~64 KiB shards (sandbox-sized; production would use ~1 GiB)
    without any sequential scan. Distributed prefix sum via
    ``packing.byte_shard_pack``; the domain prefix of the image id is
    the contiguous-range bucket. Rows-only (binary-backed input);
    budget/monotonicity/determinism pinned in
    ``tests/test_round3c_ops.py``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ragnificent_ray.pipelines.packing import byte_shard_pack

    harvest = _crawl_harvest(sf_dir)

    def narrow(b: pa.Table) -> pa.Table:
        return pa.table({
            "image_id": b.column("image_id"),
            "nbytes": pc.cast(pc.binary_length(b.column("bytes")),
                              pa.int64()),
            # image ids are 'img-DDDD-PPPP-II': the domain prefix
            # partitions the lexicographic id order into contiguous
            # ranges (the byte_shard_pack bucket contract)
            "bucket": pc.utf8_slice_codeunits(b.column("image_id"), 0, 8),
        })

    ds = rd.from_arrow(harvest.select(["image_id", "bytes"])) \
        .map_batches(narrow, batch_format="pyarrow", batch_size=4096)
    return byte_shard_pack(ds, "image_id", "nbytes", "bucket",
                           shard_bytes=64 << 10)


def _caption_template_dedup(sf_dir: str):
    """Boilerplate-caption dedup — the LAION-style alt-text cleanup:
    captions normalize by dropping the per-image id prefix and
    lowercasing; images sharing a normalized caption TEMPLATE collapse
    to (template hash, n_images, keeper). The exact-dedup shape
    (bounded hash-bucket group-first) applied to the caption side of
    the image+caption table. Rows-only; semantics pinned in
    ``tests/test_round3c_ops.py``."""
    import re

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.hashing import md5_hex

    harvest = _crawl_harvest(sf_dir)
    n_buckets = 64
    _prefix = re.compile(r"^caption img-\d{4}-\d{4}-\d{2}:\s*")

    def norm(b: pa.Table) -> pa.Table:
        caps = b.column("caption").to_pylist()
        tmpl = [_prefix.sub("", c or "").strip().lower() for c in caps]
        h = [md5_hex(t) for t in tmpl]
        return pa.table({
            "image_id": b.column("image_id"),
            "template_hash": pa.array(h, type=pa.string()),
            "bucket": pa.array(
                np.array([int(x[:4], 16) % n_buckets for x in h],
                         dtype=np.int32)),
        })

    def first_wins(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["template_hash", "image_id"],
                          kind="mergesort", ignore_index=True)
        agg = g.groupby("template_hash", sort=True).agg(
            n_images=("image_id", "size"),
            keeper=("image_id", "first"),
        ).reset_index()
        agg["n_images"] = agg["n_images"].astype("int64")
        return agg[["template_hash", "n_images", "keeper"]]

    return (rd.from_arrow(harvest.select(["image_id", "caption"]))
            .map_batches(norm, batch_format="pyarrow", batch_size=4096)
            .groupby("bucket")
            .map_groups(first_wins, batch_format="pandas"))


def _aspect_bucket_stats(sf_dir: str):
    """Rollup over the aspect-bucket assignment: images + mean
    megapixels per training bucket — the batch-planner's sizing view.
    Composes ``image_aspect_buckets`` with one bounded fold (the
    ladder is ~40 entries). Rows-only; pinned with the assignment
    tests."""
    import numpy as np
    import pyarrow as pa

    from ragnificent_ray.functions.numeric import round_half_away
    from ray.data.aggregate import Sum

    assigned = _image_aspect_buckets(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        w = b.column("w").to_numpy().astype(np.int64)
        h = b.column("h").to_numpy().astype(np.int64)
        g = pa.table({
            "bucket_id": b.column("bucket_id"),
            "bucket_w": b.column("bucket_w"),
            "bucket_h": b.column("bucket_h"),
            "n_images": pa.array(np.ones(len(w), dtype=np.int64)),
            "pixels": pa.array(w * h, type=pa.int64()),
        }).group_by(["bucket_id", "bucket_w", "bucket_h"]).aggregate([
            ("n_images", "sum"), ("pixels", "sum")])
        return pa.table({
            "bucket_id": g.column("bucket_id"),
            "bucket_w": g.column("bucket_w"),
            "bucket_h": g.column("bucket_h"),
            "n_images": g.column("n_images_sum"),
            "pixels": g.column("pixels_sum"),
        })

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_images").to_numpy()
        px = b.column("pixels").to_numpy()
        return pa.table({
            "bucket_id": b.column("bucket_id"),
            "bucket_w": b.column("bucket_w"),
            "bucket_h": b.column("bucket_h"),
            "n_images": b.column("n_images"),
            "avg_megapixels": pa.array(round_half_away(
                px / n / 1e6, 4), type=pa.float64()),
        })

    return (assigned.map_batches(partial, batch_format="pyarrow",
                                 batch_size=65536)
            .groupby(["bucket_id", "bucket_w", "bucket_h"])
            .aggregate(Sum("n_images", alias_name="n_images"),
                       Sum("pixels", alias_name="pixels"))
            .map_batches(finish, batch_format="pyarrow"))


def _image_topk_partials(qids: list, qm, top_k: int):
    """Per-batch map over image feature rows: each query's local
    top-``top_k`` images by feature dot product in (−sim, image_id)
    order; the query panel rides in the closure."""
    import numpy as np
    import pyarrow as pa

    from ragnificent_ray.functions.numeric import list_column_matrix

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("image_id").to_pylist(), dtype=object)
        m = list_column_matrix(batch.column("features"), dtype=np.float64)
        sims = qm @ m.T
        k = min(top_k, len(ids))
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids):
            sel = np.lexsort((ids, -sims[qi]))[:k]
            out_q.extend([qid] * len(sel))
            out_n.extend(ids[sel].tolist())
            out_s.extend(sims[qi][sel].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.string()),
            "neighbor_id": pa.array(out_n, type=pa.string()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    return partial_topk


def _image_feature_ann(sf_dir: str):
    """Image-to-image similarity search over the crawl harvest: exact
    cosine top-5 of every query image against the whole image corpus.

    The image-axis twin of ``ann_topk``: an actor-pool decode +
    feature-extract stage (``ImageFeatureStage``, 64-d block-mean-gray
    vectors — a CLIP-class model would slot into the same stage), a
    broadcast query matrix (the lexicographically first 3 image_ids,
    decoded driver-side from the same table), per-block partial top-k,
    and a tiny per-query merge. Deterministic; rows-only check
    (binary-payload input — no SQL view)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ragnificent_ray.functions.imaging import decode_image
    from ragnificent_ray.functions.numeric import round_half_away
    from ragnificent_ray.stages.multimodal import ImageFeatureStage

    top_k = 5
    harvest = _crawl_harvest(sf_dir)
    order = pc.array_sort_indices(harvest.column("image_id"))[:3]
    qrows = harvest.take(order)
    qids = qrows.column("image_id").to_pylist()
    qm = np.stack([
        ImageFeatureStage._features(decode_image(b, f))
        for b, f in zip(qrows.column("bytes").to_pylist(),
                        qrows.column("fmt").to_pylist())
    ]).astype(np.float64)

    feats = rd.from_arrow(harvest.select(["image_id", "bytes", "fmt"])) \
        .map_batches(ImageFeatureStage, batch_format="pyarrow",
                     batch_size=64, concurrency=2)

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(top_k)
        g = g.reset_index(drop=True)
        g["rank"] = g.index + 1
        g["cos_sim"] = round_half_away(g["sim"].to_numpy(), 4)
        return g[["query_id", "neighbor_id", "rank", "cos_sim"]]

    return (
        feats.map_batches(_image_topk_partials(qids, qm, top_k),
                          batch_format="pyarrow", batch_size=4096)
        .groupby("query_id")
        .map_groups(merge, batch_format="pandas")
    )


def _crawl_pagerank(sf_dir: str):
    """PageRank over the crawl's own link graph (nodes = crawled pages,
    edges = outlinks to other crawled pages) — integer-mass core shared
    with ``pagerank_clicks``. Rows-only (graph comes from the crawl
    world, not a SQL view); semantics pinned by the string-id
    recurrence unit test."""
    from ragnificent_ray.pipelines.graph import pagerank_links

    docs = _crawl(sf_dir).table("documents").select(["url", "links"])
    return pagerank_links(docs)


def _image_quality_scores(sf_dir: str):
    """LAION/DataComp-style image quality pre-filter over the harvest:
    sharpness (Laplacian variance), RMS contrast, brightness, gray
    entropy, min-dim/aspect gates → per-image signals + keep flag.
    Actor-pool decode stage, no shuffle. Rows-only check (binary
    payloads — no SQL view)."""
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import ImageQualityStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(harvest.select(["image_id", "bytes", "fmt"])) \
        .map_batches(ImageQualityStage, batch_format="pyarrow",
                     batch_size=64, concurrency=(1, 2))


def _image_psnr_audit(sf_dir: str):
    """Corpus-wide lossy-roundtrip PSNR audit per image format — the
    north rule's ≥40 dB decoded-pixel invariant as a queryable census:
    per-format image count, min/mean roundtrip PSNR (exact integer
    1e-4 dB folds, order-independent), and the fraction clearing
    40 dB. Rows-only check (binary payloads — no SQL view)."""
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.numeric import round_half_away
    from ragnificent_ray.stages.multimodal import ImagePsnrAuditStage

    harvest = _crawl_harvest(sf_dir)
    from ray.data.aggregate import Min, Sum

    folded = (
        rd.from_arrow(harvest.select(["image_id", "bytes", "fmt"]))
        .map_batches(ImagePsnrAuditStage, batch_format="pyarrow",
                     batch_size=64, concurrency=2)
        .groupby("fmt")
        .aggregate(Sum("n", alias_name="n"),
                   Min("min_e4", alias_name="min_e4"),
                   Sum("sum_e4", alias_name="sum_e4"),
                   Sum("n_above_40", alias_name="n_above_40"))
    ).to_pandas().sort_values("fmt")
    return pa.table({
        "fmt": pa.array(folded["fmt"].tolist(), type=pa.string()),
        "n_images": pa.array(folded["n"].to_numpy(dtype="int64")),
        "min_psnr": pa.array(
            [round_half_away(int(v) / 10000.0, 4)
             for v in folded["min_e4"]], type=pa.float64()),
        "mean_psnr": pa.array(
            [round_half_away(int(s) / int(n) / 10000.0, 4)
             for s, n in zip(folded["sum_e4"], folded["n"])],
            type=pa.float64()),
        "frac_above_40": pa.array(
            [round_half_away(int(a) / int(n), 6)
             for a, n in zip(folded["n_above_40"], folded["n"])],
            type=pa.float64()),
    })


def _caption_image_align(sf_dir: str):
    """Caption↔image alignment score per harvested image — the
    CLIP-alignment slot of a multimodal curation pipeline (drop pairs
    whose caption doesn't match the image). Both towers are the
    sandbox's deterministic stand-ins: the image tower is the 64-d
    block-mean feature (``ImageFeatureStage``), the text tower a 64-d
    ``HashEmbedder``; a real two-tower model slots into the same two
    actor-pool stages.

    Shape: ONE fused actor-pool pass computes both embeddings per row
    and their cosine — the pair is already co-located in the harvest
    row, so alignment needs no join at any scale. Rows-only check
    (binary payloads — no SQL view)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.imaging import decode_image
    from ragnificent_ray.functions.numeric import round_half_away
    from ragnificent_ray.stages.embed import HashEmbedder
    from ragnificent_ray.stages.multimodal import ImageFeatureStage

    harvest = _crawl_harvest(sf_dir)

    class Align:
        def __init__(self):
            self.text_tower = HashEmbedder(dim=64, text_col="caption")

        def __call__(self, batch: pa.Table) -> pa.Table:
            caps = batch.column("caption").to_pylist()
            tm = self.text_tower._encode(caps).astype(np.float64)
            im = np.stack([
                ImageFeatureStage._features(decode_image(b, f))
                for b, f in zip(batch.column("bytes").to_pylist(),
                                batch.column("fmt").to_pylist())
            ]).astype(np.float64)
            align = round_half_away((tm * im).sum(axis=1), 4)
            return pa.table({
                "image_id": batch["image_id"],
                "align_cos": pa.array(align, type=pa.float64()),
            })

    return rd.from_arrow(harvest.select(["image_id", "bytes", "fmt",
                                         "caption"])) \
        .map_batches(Align, batch_format="pyarrow", batch_size=64,
                     concurrency=2)


def _caption_to_image_recall(sf_dir: str):
    """Cross-modal retrieval eval: for each query caption, does its OWN
    image land in the text→image top-k? The CLIP-retrieval recall@k
    gauge a multimodal curation pipeline tracks (both towers are the
    sandbox's deterministic stand-ins — HashEmbedder text tower, 64-d
    block-mean image tower; a trained two-tower model slots into the
    same stages, at which point this number becomes meaningful rather
    than chance-level).

    Shape mirrors ``ann_topk``: a FIXED query panel (first 16 image_ids
    lexicographically — query count is the broadcast bound, not corpus
    size), per-block partial top-k over the actor-pool image features,
    tiny per-query merge. Rows-only (binary payloads)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ragnificent_ray.stages.embed import HashEmbedder
    from ragnificent_ray.stages.multimodal import ImageFeatureStage

    top_k, n_q = 5, 16
    harvest = _crawl_harvest(sf_dir)
    order = pc.array_sort_indices(harvest.column("image_id"))[:n_q]
    qrows = harvest.select(["image_id", "caption"]).take(order)
    qids = qrows.column("image_id").to_pylist()
    qm = HashEmbedder(dim=64)._encode(
        qrows.column("caption").to_pylist()).astype(np.float64)

    feats = rd.from_arrow(harvest.select(["image_id", "bytes", "fmt"])) \
        .map_batches(ImageFeatureStage, batch_format="pyarrow",
                     batch_size=64, concurrency=2)

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(top_k)
        qid = g["query_id"].iloc[0]
        ranks = g["neighbor_id"].reset_index(drop=True)
        own = ranks[ranks == qid]
        return pd.DataFrame({
            "query_id": [qid],
            "hit_at_k": pd.array([len(own) > 0], dtype="bool"),
            "own_rank": pd.array([own.index[0] + 1 if len(own) else 0],
                                 dtype="int64"),
        })

    return (feats.map_batches(_image_topk_partials(qids, qm, top_k),
                              batch_format="pyarrow", batch_size=4096)
            .groupby("query_id")
            .map_groups(merge, batch_format="pandas"))


def _hard_negative_mining(sf_dir: str):
    """Contrastive-training hard negatives: for each query caption, the
    top-5 images by text→image cosine EXCLUDING its own paired image,
    with the margin over the positive pair — the mining step that
    builds CLIP-style batches where in-batch negatives are too easy
    (Robinson et al. 2021, "Contrastive Learning with Hard Negative
    Samples"). A negative with margin > 0 outranks the true pair —
    exactly the sample a contrastive update learns most from (and the
    curation red flag for a mislabeled pair).

    Shape mirrors ``_caption_to_image_recall``: fixed 16-caption query
    panel (the broadcast bound), per-block partial top-(k+1) over the
    actor-pool image features with the positive's sim riding the same
    rows (marked, never a second pass), tiny per-query merge. Both
    towers are the sandbox's deterministic stand-ins (HashEmbedder
    text, 64-d block-mean image); a trained two-tower model slots in.
    Rows-only (binary payloads — no SQL view); pinned by a full numpy
    replay in pytest."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ragnificent_ray.functions.numeric import (list_column_matrix,
                                                   round_half_away)
    from ragnificent_ray.stages.embed import HashEmbedder
    from ragnificent_ray.stages.multimodal import ImageFeatureStage

    top_k, n_q = 5, 16
    harvest = _crawl_harvest(sf_dir)
    order = pc.array_sort_indices(harvest.column("image_id"))[:n_q]
    qrows = harvest.select(["image_id", "caption"]).take(order)
    qids = qrows.column("image_id").to_pylist()
    qm = HashEmbedder(dim=64)._encode(
        qrows.column("caption").to_pylist()).astype(np.float64)

    feats = rd.from_arrow(harvest.select(["image_id", "bytes", "fmt"])) \
        .map_batches(ImageFeatureStage, batch_format="pyarrow",
                     batch_size=64, concurrency=2)

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("image_id").to_pylist(), dtype=object)
        m = list_column_matrix(batch.column("features"), dtype=np.float64)
        sims = qm @ m.T
        # top-(k+1) covers the worst case where the positive is in
        # this block's top-k; the positive's own row always rides
        # along (marked) so the merge knows the pair sim
        k = min(top_k + 1, len(ids))
        out_q, out_n, out_s, out_own = [], [], [], []
        for qi, qid in enumerate(qids):
            sel = np.lexsort((ids, -sims[qi]))[:k]
            keep = list(sel)
            own_idx = np.nonzero(ids == qid)[0]
            if len(own_idx) and own_idx[0] not in keep:
                keep.append(own_idx[0])
            for i in keep:
                out_q.append(qid)
                out_n.append(ids[i])
                out_s.append(sims[qi][i])
                out_own.append(bool(ids[i] == qid))
        return pa.table({
            "query_id": pa.array(out_q, type=pa.string()),
            "neighbor_id": pa.array(out_n, type=pa.string()),
            "sim": pa.array(out_s, type=pa.float64()),
            "is_own": pa.array(out_own, type=pa.bool_()),
        })

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        qid = g["query_id"].iloc[0]
        own = g.loc[g["is_own"], "sim"]
        own_sim = float(own.iloc[0]) if len(own) else 0.0
        neg = g.loc[~g["is_own"]] \
               .sort_values(["sim", "neighbor_id"],
                            ascending=[False, True]).head(top_k)
        n = len(neg)
        return pd.DataFrame({
            "query_id": [qid] * n,
            "negative_id": neg["neighbor_id"].to_numpy(),
            "rank": np.arange(1, n + 1, dtype=np.int64),
            "sim": round_half_away(neg["sim"].to_numpy(), 4),
            "margin": round_half_away(
                neg["sim"].to_numpy() - own_sim, 4),
        })

    return (feats.map_batches(partial_topk, batch_format="pyarrow",
                              batch_size=4096)
            .groupby("query_id")
            .map_groups(merge, batch_format="pandas"))


def _audio_features(sf_dir: str):
    """Audio feature-extract plumbing over the harvest payload column
    (deterministic fake features — no audio codec in this container)."""
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import AudioFeatureStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(harvest).map_batches(
        AudioFeatureStage, batch_format="pyarrow", batch_size=64,
        concurrency=2,
    )


def _video_frame_sample(sf_dir: str):
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import VideoFrameSampleStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(harvest).map_batches(
        VideoFrameSampleStage, batch_format="pyarrow", batch_size=64,
        concurrency=2,
    )


def _rag_chunks(sf_dir: str):
    from ragnificent_ray.pipelines.rag import chunk_documents

    return chunk_documents(sf_dir).map_batches(
        lambda b: b.select(["id", "content", "source_url", "word_count",
                            "char_count", "position", "is_continuation"]),
        batch_format="pyarrow",
    )


def _rag_embed_norms(sf_dir: str):
    from ragnificent_ray.pipelines.rag import embed_documents

    return embed_documents(sf_dir)


def _crawl_page_metadata(sf_dir: str):
    """M16 metadata extractor over the crawl's round-0 frontier pages."""
    import ray.data as rd

    from ragnificent_ray.stages.extract import metadata_batch
    from ragnificent_ray.stages.fetch import FetchWorker

    res = _crawl(sf_dir)
    frontier_dir = os.path.join(res.out_dir, "rounds", "round=0000",
                                "frontier")
    world = _world_for(sf_dir)
    return (
        rd.read_parquet(frontier_dir)
        .map_batches(
            FetchWorker(world_cfg=dict(world, seed=42), politeness=None),
            batch_format="pyarrow", batch_size=128)
        .map_batches(metadata_batch, batch_format="pyarrow")
    )



def _crawl_markdown_py(sf_dir: str):
    """M11: the reference's Python-fallback converter (core/scraper.py:
    380-446, document-order output) over round-0 pages."""
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.htmldom import convert_to_markdown_py
    from ragnificent_ray.stages.fetch import FetchWorker

    res = _crawl(sf_dir)
    frontier_dir = os.path.join(res.out_dir, "rounds", "round=0000",
                                "frontier")
    world = _world_for(sf_dir)

    def project(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        mds = [convert_to_markdown_py(
            h.decode("utf-8", "replace") if h else "", u)
            for u, h in zip(urls, htmls)]
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "markdown": pa.array(mds, type=pa.large_string()),
            "md_chars": pa.array([len(m) for m in mds], type=pa.int64()),
        })

    return (
        rd.read_parquet(frontier_dir)
        .map_batches(
            FetchWorker(world_cfg=dict(world, seed=42), politeness=None),
            batch_format="pyarrow", batch_size=128)
        .map_batches(project, batch_format="pyarrow")
    )


def _rag_chunks_sliding(sf_dir: str):
    from ragnificent_ray.pipelines.rag import chunk_documents

    return chunk_documents(sf_dir, strategy="sliding_window").map_batches(
        lambda b: b.select(["id", "content", "source_url", "word_count",
                            "char_count", "position", "is_continuation"]),
        batch_format="pyarrow",
    )


def _rag_chunks_recursive(sf_dir: str):
    from ragnificent_ray.pipelines.rag import chunk_documents

    return chunk_documents(sf_dir, strategy="recursive").map_batches(
        lambda b: b.select(["id", "content", "source_url", "word_count",
                            "char_count", "position", "is_continuation"]),
        batch_format="pyarrow",
    )


def _rag_chunks_rust(sf_dir: str):
    """C2 Rust chunker variant (src/chunker.rs:34-258). chunk_size=200
    exercises the boundary-split path on every tier's documents (texts
    run 48-577 chars); semantic_density is recomputed in float64 and
    rounded to 4 so the DuckDB oracle can hash-match it (the stored
    column is float32)."""
    import pyarrow as pa

    from ragnificent_ray.functions.chunking import rust_semantic_density
    from ragnificent_ray.functions.numeric import round_half_away
    from ragnificent_ray.pipelines.rag import chunk_documents

    def project(b: pa.Table) -> pa.Table:
        dens = [round_half_away(rust_semantic_density(c), 4)
                for c in b.column("content").to_pylist()]
        return b.select(["id", "content", "source_url", "word_count",
                         "char_count", "position", "is_continuation"]) \
                .append_column("semantic_density",
                               pa.array(dens, type=pa.float64()))

    return chunk_documents(
        sf_dir, strategy="rust_semantic", chunk_size=200, chunk_overlap=40,
    ).map_batches(project, batch_format="pyarrow")


def _tfidf_embed(sf_dir: str):
    from ragnificent_ray.pipelines.rag import tfidf_embed

    return tfidf_embed(sf_dir)


def _harvest_phash_neardup(sf_dir: str):
    """D4: near-dup image pairs by phash hamming over the crawl harvest."""
    from ragnificent_ray.pipelines.dedup import phash_neardup_pairs

    harvest = _crawl_harvest(sf_dir)
    return phash_neardup_pairs(harvest.select(["image_id", "phash"]))


def _image_phash_threshold_curve(sf_dir: str, max_hamming: int = 15):
    """Image-dedup threshold tuning curve — the picture-side twin of
    ``minhash_threshold_curve``: verified near-dup pair counts per
    exact phash hamming distance 0..15 (exact for 0..3, where the
    4×16-bit banding guarantees a shared band by pigeonhole; lower
    bounds above that), the plot an operator reads before picking
    the image near-dup cut ("how many more pairs does raising the
    radius from 4 to 8 admit?"). Composes the full banded-candidate +
    XOR-popcount-verify scale path and adds one ≤16-key integer fold.
    Rows-only (binary-payload input); planted perturbed-copy pairs
    pinned in pytest."""
    import pyarrow as pa

    from ragnificent_ray.pipelines.dedup import phash_neardup_pairs

    harvest = _crawl_harvest(sf_dir)
    pairs = phash_neardup_pairs(harvest.select(["image_id", "phash"]),
                                max_hamming=max_hamming)

    def bin_partial(b: pa.Table) -> pa.Table:
        g = (pa.table({
            "hamming": b.column("hamming"),
            "n_pairs": pa.array([1] * b.num_rows, type=pa.int64()),
        }).group_by("hamming").aggregate([("n_pairs", "sum")]))
        return g.rename_columns(["hamming", "n_pairs"])

    from ray.data.aggregate import Sum

    return (pairs.map_batches(bin_partial, batch_format="pyarrow")
            .groupby("hamming")
            .aggregate(Sum("n_pairs", alias_name="n_pairs")))


def _image_phash_clusters(sf_dir: str):
    """Near-dup image clusters: connected components over the banded
    phash-hamming pair set (the keep-one-per-cluster step for image
    dedup, mirroring ``dedup_clusters`` on the text side). String image
    ids propagate lexicographic-min labels through the generic
    distributed min-label machinery; the changed-count certificate
    replaces the int label sum. Rows-only (binary-payload input)."""
    from ragnificent_ray.pipelines.dedup import (min_label_components,
                                                 phash_neardup_pairs)

    harvest = _crawl_harvest(sf_dir)
    pairs = phash_neardup_pairs(
        harvest.select(["image_id", "phash"])
    ).select_columns(["image_id_a", "image_id_b"])
    labels = min_label_components(pairs, "image_id_a", "image_id_b",
                                  convergence="changed")

    import pyarrow as pa

    return labels.map_batches(
        lambda t: pa.table({"image_id": t.column("node"),
                            "component": t.column("label")}),
        batch_format="pyarrow")


def _image_keep_from_labels(sf_dir: str, labels):
    """Shared keep-set resolution for the image dedup family: corpus
    ids and cluster labels meet in a bounded hash-bucket groupby
    (narrow string rows only; no broadcast of the removed set). An
    image is dropped iff its component label sorts before its own id;
    kept rows carry ``in_cluster`` (1 = representative of a
    multi-image cluster, 0 = untouched singleton)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.hashing import stable_hash64

    _B = 64

    def _hb(ids) -> pa.Array:
        return pa.array(
            np.fromiter((stable_hash64(s) % _B for s in ids),
                        dtype=np.int32, count=len(ids)))

    harvest = _crawl_harvest(sf_dir)
    ids = harvest.column("image_id").to_pylist()
    corpus = rd.from_arrow(pa.table({
        "image_id": pa.array(ids, type=pa.string()),
        "marker": pa.array(np.zeros(len(ids), dtype=np.int8)),
        "hb": _hb(ids),
    }))

    def label_rows(t: pa.Table) -> pa.Table:
        node = t.column("image_id").to_pylist()
        comp = t.column("component").to_pylist()
        marker = np.where(np.array(comp, dtype=object)
                          < np.array(node, dtype=object), 1, 2) \
            .astype(np.int8)
        return pa.table({
            "image_id": pa.array(node, type=pa.string()),
            "marker": pa.array(marker),
            "hb": _hb(node),
        })

    label_marks = labels.map_batches(label_rows, batch_format="pyarrow")

    def keep(g: pa.Table) -> pa.Table:
        f = (g.select(["image_id", "marker"]).group_by("image_id")
             .aggregate([("marker", "max")]))
        mx = f.column("marker_max").to_numpy(zero_copy_only=False)
        kept = f.filter(pa.array(mx != 1))
        in_cluster = (kept.column("marker_max")
                      .to_numpy(zero_copy_only=False) == 2)
        return pa.table({
            "image_id": kept.column("image_id"),
            "in_cluster": pa.array(in_cluster.astype(np.int8)),
        })

    return corpus.union(label_marks).groupby("hb").map_groups(
        keep, batch_format="pyarrow")


def _image_dedup_keep(sf_dir: str):
    """The kept image set after phash near-dedup: every harvested image
    except non-representative cluster members — the image-side twin of
    the text ``dedup_keep`` (write-the-deduped-dataset step downstream
    of ``image_phash_clusters``). Keep resolution in
    ``_image_keep_from_labels`` mirrors ``pipelines/dedup.py:
    dedup_keep``. Rows-only (binary-payload input)."""
    return _image_keep_from_labels(sf_dir, _image_phash_clusters(sf_dir))


def _image_curate_keep(sf_dir: str):
    """END-TO-END image curation over the harvest — the image-side
    twin of ``curate_corpus``'s signal composition: the phash pair set
    (global-structure near-dups) UNIONs with the dhash pair set
    (gradient sketches catch brightness-shifted near-dups phash
    misses), each candidate set verified by its own exact XOR-popcount
    pass inside ``phash_neardup_pairs``; connected components over the
    union graph pick one representative per cluster
    (lexicographic-min image_id), and the kept corpus falls out of the
    shared bounded-bucket keep resolution.

    Scale shape: both sketches are narrow (image_id, hash64) rows —
    pixels never leave the decode actors; the union is a pair-level
    concat (min-label propagation is idempotent under duplicate
    edges), and components/keep reuse the bounded machinery of
    ``image_phash_clusters`` / ``image_dedup_keep``. Rows-only
    (binary-payload input); containment vs the phash-only keep set
    and planted-dup behavior pinned in ``tests/test_phash_neardup.py``."""
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.pipelines.dedup import (min_label_components,
                                                 phash_neardup_pairs)
    from ragnificent_ray.stages.multimodal import ImageDHashStage

    harvest = _crawl_harvest(sf_dir)
    ph_pairs = phash_neardup_pairs(
        harvest.select(["image_id", "phash"])
    ).select_columns(["image_id_a", "image_id_b"])
    dh_sketches = rd.from_arrow(
        harvest.select(["image_id", "bytes", "fmt"])
    ).map_batches(ImageDHashStage, batch_format="pyarrow", batch_size=64,
                  concurrency=2)
    dh_pairs = phash_neardup_pairs(
        dh_sketches, hash_col="dhash"
    ).select_columns(["image_id_a", "image_id_b"])

    pairs = ph_pairs.union(dh_pairs)
    labels = min_label_components(pairs, "image_id_a", "image_id_b",
                                  convergence="changed")
    labels = labels.map_batches(
        lambda t: pa.table({"image_id": t.column("node"),
                            "component": t.column("label")}),
        batch_format="pyarrow")
    return _image_keep_from_labels(sf_dir, labels)


def _image_keep_best_from(corpus_ids, labels, quality):
    """Quality-keeper resolution for the image dedup family: per
    cluster keep the member with MAX quality score (exact e-4 integer
    compare, ties → lexicographic-min image_id). ``labels`` is a
    Dataset of (image_id, component); ``quality`` a pa.Table of
    (image_id, q_e4). Narrow string/int rows meet in bounded
    id-hash buckets, winners fold per component bucket — pixels never
    ship, nothing corpus-sized on the driver. Bucket folds are numpy
    lexsort/searchsorted over the string keys (no per-row dict walks);
    a label row with no quality row fails loudly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.hashing import stable_hash64

    _B = 64

    def _hb(ids) -> pa.Array:
        return pa.array(
            np.fromiter((stable_hash64(s) % _B for s in ids),
                        dtype=np.int32, count=len(ids)))

    lab_rows = labels.map_batches(
        lambda t: pa.table({
            "image_id": t.column("image_id"),
            "component": t.column("component"),
            "q": pa.array([-1] * t.num_rows, type=pa.int64()),
            "hb": _hb(t.column("image_id").to_pylist()),
        }), batch_format="pyarrow")
    if isinstance(quality, pa.Table):
        quality = rd.from_arrow(quality)
    q_rows = quality.map_batches(
        lambda t: pa.table({
            "image_id": t.column("image_id"),
            "component": pa.array([""] * t.num_rows, type=pa.string()),
            "q": t.column("q_e4"),
            "hb": _hb(t.column("image_id").to_pylist()),
        }), batch_format="pyarrow")

    def attach(g: pa.Table) -> pa.Table:
        ids = np.asarray(g.column("image_id").to_pylist(), dtype=object)
        comp = np.asarray(g.column("component").to_pylist(), dtype=object)
        q = g.column("q").to_numpy(zero_copy_only=False)
        is_q = comp == ""
        qid, qv = ids[is_q], q[is_q]
        order = np.argsort(qid)
        qid, qv = qid[order], qv[order]
        lid, lcomp = ids[~is_q], comp[~is_q]
        idx = np.searchsorted(qid, lid)
        bad = ((idx >= len(qid)) if len(qid) else
               np.ones(len(lid), dtype=bool))
        if len(qid):
            bad = bad | (qid[np.minimum(idx, len(qid) - 1)] != lid)
        if bad.any():
            raise ValueError(
                "image keeper: no quality row for image_id %s"
                % lid[bad][:1])
        return pa.table({
            "component": pa.array(lcomp, type=pa.string()),
            "image_id": pa.array(lid, type=pa.string()),
            "q": pa.array(qv[idx], type=pa.int64()),
            "cb": _hb(lcomp.tolist()),
        })

    labeled = lab_rows.union(q_rows).groupby("hb").map_groups(
        attach, batch_format="pyarrow")

    def winners(g: pa.Table) -> pa.Table:
        # max q, ties → lexicographic-min image_id: the first sorted
        # row per component is the winner, scattered back through the
        # sort permutation (string keys sort fine under np.lexsort)
        comp = np.asarray(g.column("component").to_pylist())
        ids = np.asarray(g.column("image_id").to_pylist())
        q = g.column("q").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -q, comp))
        comp_s = comp[order]
        first = np.zeros(len(comp_s), dtype=bool)
        if len(comp_s):
            first[0] = True
            first[1:] = comp_s[1:] != comp_s[:-1]
        marker = np.empty(len(comp), dtype=np.int8)
        marker[order] = np.where(first, np.int8(2), np.int8(1))
        return pa.table({
            "image_id": pa.array(ids, type=pa.string()),
            "marker": pa.array(marker, type=pa.int8()),
            "hb": _hb(ids.tolist()),
        })

    marks = labeled.groupby("cb").map_groups(
        winners, batch_format="pyarrow")

    corpus = rd.from_arrow(pa.table({
        "image_id": pa.array(corpus_ids, type=pa.string()),
        "marker": pa.array(np.zeros(len(corpus_ids), dtype=np.int8)),
        "hb": _hb(corpus_ids),
    }))

    def keep(g: pa.Table) -> pa.Table:
        f = (g.select(["image_id", "marker"]).group_by("image_id")
             .aggregate([("marker", "max")]))
        mx = f.column("marker_max").to_numpy(zero_copy_only=False)
        kept = f.filter(pa.array(mx != 1))
        return pa.table({
            "image_id": kept.column("image_id"),
            "in_cluster": pa.array(
                (kept.column("marker_max")
                 .to_numpy(zero_copy_only=False) == 2).astype(np.int8)),
        })

    return corpus.union(marks).groupby("hb").map_groups(
        keep, batch_format="pyarrow")


def _image_keep_sharpest(sf_dir: str):
    """The image twin of the text-side ``dedup_keep_best``: per phash
    near-dup cluster keep the SHARPEST member (max Laplacian-variance
    sharpness from the real-decode quality stage, e-4 integer compare,
    ties → lexicographic-min image_id) instead of the min-id
    representative — of N near-identical crawled images, keep the one
    with the most detail. Labels from ``image_phash_clusters``,
    scores from the ``ImageQualityStage`` actor pool, resolution via
    :func:`_image_keep_best_from`'s bounded-bucket folds. Rows-only
    (binary-payload input); planted sharper-duplicate case pinned in
    ``tests/test_round4_ops.py``."""
    import numpy as np
    import pyarrow as pa

    harvest = _crawl_harvest(sf_dir)
    labels = _image_phash_clusters(sf_dir)
    quality = _image_quality_scores(sf_dir).map_batches(
        lambda t: pa.table({
            "image_id": t.column("image_id"),
            "q_e4": pa.array(np.rint(
                t.column("sharpness").to_numpy(zero_copy_only=False)
                * 1e4).astype(np.int64)),
        }), batch_format="pyarrow")
    ids = harvest.column("image_id").to_pylist()
    return _image_keep_best_from(ids, labels, quality)


def _image_text_dup_pairs(sf_dir: str):
    """Image+TEXT joint near-dup pairs over the crawl harvest — the
    high-precision LAION-style dedup signal: both the banded-phash
    exact-hamming verify AND caption-template equality must fire. See
    ``pipelines/dedup.py: joint_caption_phash_pairs`` for the scale
    shape. Rows-only (binary-payload world); planted agree /
    visual-only / text-only cases pinned in
    ``tests/test_round4_ops.py``."""
    from ragnificent_ray.pipelines.dedup import joint_caption_phash_pairs

    harvest = _crawl_harvest(sf_dir)
    return joint_caption_phash_pairs(
        harvest.select(["image_id", "phash", "caption"]))


def _image_dhash_neardup(sf_dir: str):
    """Near-dup image pairs by DIFFERENCE-hash hamming — the dHash
    companion to ``harvest_phash_neardup``. An actor-pool decode stage
    (``ImageDHashStage``) emits narrow (image_id, dhash) rows, then the
    SAME banded-hamming pair machinery runs over the new sketch
    (``hash_col="dhash"``): 4×16-bit bands, bounded band-bucket
    self-merge, exact XOR-popcount verify. Gradient-threshold hashes
    catch brightness-shifted near-dups the global-mean phash misses.
    Rows-only (binary-payload input); planted-dup recall pinned in
    ``tests/test_phash_neardup.py``."""
    import ray.data as rd

    from ragnificent_ray.pipelines.dedup import phash_neardup_pairs
    from ragnificent_ray.stages.multimodal import ImageDHashStage

    harvest = _crawl_harvest(sf_dir)
    sketches = rd.from_arrow(
        harvest.select(["image_id", "bytes", "fmt"])
    ).map_batches(ImageDHashStage, batch_format="pyarrow", batch_size=64,
                  concurrency=2)
    return phash_neardup_pairs(sketches, hash_col="dhash")


def _image_patchify(sf_dir: str):
    """ViT-style patch extraction over the crawl harvest: each image
    edge-pads to a multiple of 16 and flat-maps to one row per 16×16
    RGB patch with grid position and integer mean-luma — the
    training-data prep step for patch-token vision models. Actor-pool
    decode; bytes column dropped on output (patch payloads replace it).
    Rows-only (binary-payload input); roundtrip reassembly pinned in
    ``tests/test_multimodal.py``."""
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import ImagePatchifyStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(
        harvest.select(["image_id", "bytes", "fmt"])
    ).map_batches(ImagePatchifyStage, batch_format="pyarrow",
                  batch_size=32, concurrency=2)


def _image_augment(sf_dir: str):
    """Deterministic augmentation variants (hflip / hash-placed crop /
    brightness shift) per harvested image — pre-materialized
    vision-training augmentation as an actor-pool decode+transform
    stage; one row per (image, variant), payload re-encoded PNG.
    Rows-only (binary input); pixel-level variant semantics pinned in
    ``tests/test_multimodal.py``."""
    import ray.data as rd

    from ragnificent_ray.stages.multimodal import ImageAugmentStage

    harvest = _crawl_harvest(sf_dir)
    return rd.from_arrow(
        harvest.select(["image_id", "bytes", "fmt"])
    ).map_batches(ImageAugmentStage, batch_format="pyarrow",
                  batch_size=32, concurrency=2)


def _image_patch_dedup(sf_dir: str):
    """Patch-level exact dedup across the image corpus: which 16×16
    tiles repeat, and across how many images — the sub-image twin of
    ``harvest_dedup_exact`` (catches shared banners/logos/borders that
    whole-image hashing misses). Composes ``image_patchify`` → blake2b
    tile hash → bounded hash-bucket groupby: each batch pre-collapses
    to one row per (tile, image), so the exchange moves tile-count
    rows, never pixel payloads. Rows-only (binary input); planted
    duplicate images guarantee n_images ≥ 2 tiles (pinned in pytest)."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    _B = 64

    def hash_partial(batch: pa.Table) -> pa.Table:
        hs = [hashlib.blake2b(b, digest_size=8).hexdigest()
              for b in batch.column("patch").to_pylist()]
        df = pd.DataFrame({
            "patch_hash": hs,
            "image_id": batch.column("image_id").to_pylist(),
        })
        g = df.groupby(["patch_hash", "image_id"], as_index=False) \
              .size().rename(columns={"size": "n"})
        hb = np.fromiter(
            ((int(h[:8], 16)) % _B for h in g["patch_hash"]),
            dtype=np.int32, count=len(g))
        return pa.table({
            "patch_hash": pa.array(g["patch_hash"], type=pa.string()),
            "image_id": pa.array(g["image_id"], type=pa.string()),
            "n": pa.array(g["n"].to_numpy(), type=pa.int64()),
            "hb": pa.array(hb),
        })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("patch_hash").agg(
            n_occurrences=("n", "sum"),
            n_images=("image_id", "nunique")).reset_index()
        return agg[agg["n_occurrences"] >= 2]

    return (
        _image_patchify(sf_dir)
        .map_batches(hash_partial, batch_format="pyarrow", batch_size=8192)
        .groupby("hb")
        .map_groups(fold, batch_format="pandas")
    )


def _harvest_dedup_exact(sf_dir: str):
    """Exact image dedup (payload blake2b) over the crawl harvest —
    the planted cross-page duplicate images give n_copies > 1 rows."""
    from ragnificent_ray.pipelines.dedup import image_dedup_exact

    harvest = _crawl_harvest(sf_dir)
    return image_dedup_exact(harvest.select(["image_id", "bytes"]))


def _crawl_main_content(sf_dir: str):
    """M13+M14: main-content selection + HTML cleaning over round-0 pages."""
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.functions.htmldom import (
        clean_html_text,
        extract_main_content,
    )
    from ragnificent_ray.stages.fetch import FetchWorker

    res = _crawl(sf_dir)
    frontier_dir = os.path.join(res.out_dir, "rounds", "round=0000",
                                "frontier")
    world = _world_for(sf_dir)

    def project(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        mains, cleans = [], []
        for h in htmls:
            text = h.decode("utf-8", "replace") if h else ""
            mains.append(extract_main_content(text))
            cleans.append(clean_html_text(text))
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "main_content_chars": pa.array(
                [len(m) for m in mains], type=pa.int64()),
            "cleaned_chars": pa.array(
                [len(c) for c in cleans], type=pa.int64()),
        })

    return (
        rd.read_parquet(frontier_dir)
        .map_batches(
            FetchWorker(world_cfg=dict(world, seed=42), politeness=None),
            batch_format="pyarrow", batch_size=128)
        .map_batches(project, batch_format="pyarrow")
    )


def entry() -> Any:
    """Flagship pipeline on sf0.001: documents → chunks → embeddings."""
    from ragnificent_ray.pipelines.rag import rag_flagship

    return rag_flagship(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    from ragnificent_ray.pipelines import (ann, bpe, clustering, curation,
                                           decontam, dedup, graph, packing,
                                           relational, retrieval, sampling,
                                           temporal, textstats, tpch_more,
                                           tpch_rest)

    out: dict[str, Callable[[str], Any]] = {}
    for mod in (relational, textstats, dedup, ann, temporal, sampling,
                decontam, clustering, retrieval, curation, packing, graph,
                bpe, tpch_more, tpch_rest):
        out.update(mod.QUERIES)
    out.update({
        "rag_chunks": _rag_chunks,
        "rag_chunks_sliding": _rag_chunks_sliding,
        "rag_chunks_recursive": _rag_chunks_recursive,
        "rag_chunks_rust": _rag_chunks_rust,
        "rag_embed_norms": _rag_embed_norms,
        "tfidf_embed": _tfidf_embed,
        "crawl_page_metadata": _crawl_page_metadata,
        "crawl_main_content": _crawl_main_content,
        "crawl_markdown_py": _crawl_markdown_py,
        "harvest_phash_neardup": _harvest_phash_neardup,
        "harvest_dedup_exact": _harvest_dedup_exact,
        "image_phash_clusters": _image_phash_clusters,
        "image_phash_threshold_curve": _image_phash_threshold_curve,
        "image_dedup_keep": _image_dedup_keep,
        "image_curate_keep": _image_curate_keep,
        "image_dhash_neardup": _image_dhash_neardup,
        "image_text_dup_pairs": _image_text_dup_pairs,
        "image_keep_sharpest": _image_keep_sharpest,
        "image_patchify": _image_patchify,
        "image_patch_dedup": _image_patch_dedup,
        "image_augment": _image_augment,
        "crawl_harvest": _crawl_harvest,
        "crawl_order": _crawl_order,
        "crawl_documents": _crawl_documents,
        "crawl_chunks": _crawl_chunks,
        "crawl_domain_stats": _crawl_domain_stats,
        "crawl_round_metrics": _crawl_round_metrics,
        "crawl_pagerank": _crawl_pagerank,
        "image_decode_stats": _image_decode_stats,
        "image_channel_stats": _image_channel_stats,
        "image_psnr_audit": _image_psnr_audit,
        "image_aspect_buckets": _image_aspect_buckets,
        "image_shard_pack": _image_shard_pack,
        "caption_template_dedup": _caption_template_dedup,
        "aspect_bucket_stats": _aspect_bucket_stats,
        "image_resize": _image_resize,
        "image_feature_ann": _image_feature_ann,
        "image_quality_scores": _image_quality_scores,
        "caption_image_align": _caption_image_align,
        "caption_to_image_recall": _caption_to_image_recall,
        "hard_negative_mining": _hard_negative_mining,
        "video_frame_sample": _video_frame_sample,
        "audio_features": _audio_features,
    })
    return out


# chunker window arithmetic (chunk_size=1000, overlap=200 → take 200
# words, step 160) mirrored in SQL for the plain-text chunk path
_RAG_CHUNKS_SQL = """
    WITH d AS (
        SELECT doc_id,
               'https://docs.test/' || doc_id AS url,
               regexp_split_to_array(trim(text), '\\s+') AS toks
        FROM documents
    ), w AS (
        SELECT url, toks,
               unnest(range(0, greatest(len(toks), 1), 160)) AS i
        FROM d
    )
    SELECT md5(url || ':text:' || i) AS id,
           array_to_string(toks[i + 1 : i + 200], ' ') AS content,
           url AS source_url,
           CAST(len(toks[i + 1 : i + 200]) AS INT) AS word_count,
           CAST(length(array_to_string(toks[i + 1 : i + 200], ' ')) AS INT)
               AS char_count,
           CAST(i // 160 AS INT) AS position,
           i > 0 AS is_continuation
    FROM w
    WHERE len(toks[i + 1 : i + 200]) > 0
"""


# sliding-window chunker arithmetic (chunk_utils.py:302-334): window
# length derived from the document's average word length. avg = L/n as
# IEEE doubles in both engines, take = max(trunc(1000/avg), 1),
# overlap = min(trunc(200/avg), take-1), step = take-overlap — the SQL
# mirrors the Python op-for-op so truncation boundaries agree.
_SLIDING_CORE = """
    d AS (
        SELECT doc_id,
               'https://docs.test/' || doc_id AS url,
               text,
               regexp_split_to_array(trim(text), '\\s+') AS toks,
               length(text) AS L
        FROM documents
    ), p AS (
        SELECT doc_id, url, text, toks, L,
               greatest(CAST(trunc(
                   1000 / (CAST(L AS DOUBLE) / greatest(len(toks), 1))
               ) AS BIGINT), 1) AS take_,
               CAST(trunc(
                   200 / (CAST(L AS DOUBLE) / greatest(len(toks), 1))
               ) AS BIGINT) AS ov_raw
        FROM d
    ), q AS (
        SELECT doc_id, url, text, toks, L, take_,
               take_ - least(ov_raw, take_ - 1) AS step
        FROM p
    )
"""

_SLIDING_WINDOW_SELECT = """
    SELECT url || '_' || CAST(i // step AS VARCHAR) AS id,
           array_to_string(toks[i + 1 : i + take_], ' ') AS content,
           url AS source_url,
           CAST(len(toks[i + 1 : i + take_]) AS INT) AS word_count,
           CAST(length(array_to_string(toks[i + 1 : i + take_], ' '))
                AS INT) AS char_count,
           CAST(i // step AS INT) AS position,
           i > 0 AS is_continuation
    FROM w
    WHERE len(toks[i + 1 : i + take_]) > 0
"""

_RAG_CHUNKS_SLIDING_SQL = f"""
    WITH {_SLIDING_CORE}, w AS (
        SELECT url, toks, take_, step,
               unnest(range(0, greatest(len(toks), 1), step)) AS i
        FROM q
    )
    {_SLIDING_WINDOW_SELECT}
"""

# recursive chunker (chunk_utils.py:337-382): <=1000 chars → the whole
# doc as one chunk; else paragraph grouping, falling back to the
# sliding window for single-paragraph docs. The synthetic documents
# contain no blank-line paragraphs (verified: zero newlines at every
# sf tier), so the paragraph-grouping branch is unreachable here and
# pinned by unit tests instead.
_RAG_CHUNKS_RECURSIVE_SQL = f"""
    WITH {_SLIDING_CORE}, w AS (
        SELECT url, toks, take_, step,
               unnest(range(0, greatest(len(toks), 1), step)) AS i
        FROM q WHERE L > 1000
    )
    SELECT url || '_0' AS id,
           text AS content,
           url AS source_url,
           CAST(len(toks) AS INT) AS word_count,
           CAST(length(text) AS INT) AS char_count,
           CAST(0 AS INT) AS position,
           FALSE AS is_continuation
    FROM q WHERE L <= 1000
    UNION ALL
    {_SLIDING_WINDOW_SELECT}
"""

# rag_embed_norms proof columns: the chunk ids follow the plain-text
# chunk recipe (no markdown headings in the synthetic corpus) and the
# hash embedder L2-normalizes, so l2_norm == 1.0 at 4 decimals and
# dim == 384 by construction.
_RAG_EMBED_NORMS_SQL = """
    WITH d AS (
        SELECT doc_id,
               'https://docs.test/' || doc_id AS url,
               regexp_split_to_array(trim(text), '\\s+') AS toks
        FROM documents
    ), w AS (
        SELECT url, toks,
               unnest(range(0, greatest(len(toks), 1), 160)) AS i
        FROM d
    )
    SELECT md5(url || ':text:' || i) AS id,
           url AS source_url,
           CAST(384 AS BIGINT) AS dim,
           1.0 AS l2_norm
    FROM w
    WHERE len(toks[i + 1 : i + 200]) > 0
"""

# TF-IDF two-pass fit: vocabulary = top-256 tokens by document
# frequency (ties broken by token asc), idf = ln((1+N)/(1+df))+1,
# then per-doc tf×idf with nnz + l2 norm proof columns.
_TFIDF_EMBED_SQL = """
    WITH d AS (
        SELECT doc_id,
               regexp_split_to_array(trim(lower(text)), '\\s+') AS toks
        FROM documents
    ), tokrows AS (
        SELECT doc_id, unnest(toks) AS tok FROM d
    ), df AS (
        SELECT tok, COUNT(DISTINCT doc_id) AS df FROM tokrows GROUP BY tok
    ), vocab AS (
        SELECT tok,
               ln((1.0 + (SELECT COUNT(*) FROM documents)) / (1.0 + df))
                   + 1.0 AS idf
        FROM df ORDER BY df DESC, tok ASC LIMIT 256
    ), tf AS (
        SELECT doc_id, tok, COUNT(*) AS tf FROM tokrows
        GROUP BY doc_id, tok
    ), w AS (
        SELECT tf.doc_id, tf.tf * v.idf AS wt
        FROM tf JOIN vocab v USING (tok)
    ), agg AS (
        SELECT doc_id, COUNT(*) AS cnt, sqrt(SUM(wt * wt)) AS nrm
        FROM w GROUP BY doc_id
    )
    SELECT d.doc_id,
           COALESCE(agg.cnt, 0) AS nnz,
           ROUND(COALESCE(agg.nrm, 0.0), 4) AS tfidf_norm
    FROM d LEFT JOIN agg USING (doc_id)
"""



# C2 rust_semantic at chunk_size=200/overlap=40 over the single-line,
# punctuation-free documents corpus: exactly one boundary split per doc
# longer than 200 chars (src/chunker.rs:103-121 checks size once per
# appended line; the corpus is one line), split point = first space at
# 0-based index >= 160 (no \n\n / \n / sentence marks exist), else
# the approximate position itself. semantic_density mirrors
# src/chunker.rs:211-258 in float64.
_RS_KW_SQL = " OR ".join(
    f"lower(t) LIKE '%{k}%'"
    for k in ("function", "class", "method", "algorithm", "process",
              "system", "data", "model", "analysis", "implementation"))

_RAG_CHUNKS_RUST_SQL = f"""
    WITH d AS (
        SELECT 'https://docs.test/' || doc_id AS url, text,
               length(text) AS L,
               instr(substr(text, 161), ' ') AS q
        FROM documents
    ), c AS (
        SELECT url, 0 AS pos, text AS content FROM d WHERE L <= 200
        UNION ALL
        SELECT url, 0,
               substr(text, 1, CASE WHEN q > 0 THEN 160 + q ELSE 160 END)
        FROM d WHERE L > 200
        UNION ALL
        SELECT url, 1,
               trim(substr(text,
                           CASE WHEN q > 0 THEN 161 + q ELSE 161 END))
        FROM d
        WHERE L > 200 AND trim(substr(
            text, CASE WHEN q > 0 THEN 161 + q ELSE 161 END)) <> ''
    ), w AS (
        SELECT url, pos, content,
               regexp_split_to_array(trim(content), '\\s+') AS toks
        FROM c
    ), s AS (
        SELECT url, pos, content, toks,
               CAST(len(toks) AS DOUBLE) AS wc,
               list_sum(list_transform(toks, t ->
                   (CASE WHEN regexp_matches(t, '^[A-Z]')
                         THEN 0.5 ELSE 0.0 END)
                 + (CASE WHEN regexp_matches(t, '[0-9]')
                         THEN 0.3 ELSE 0.0 END)
                 + (CASE WHEN {_RS_KW_SQL} THEN 0.7 ELSE 0.0 END)
               )) AS ind_sum
        FROM w
    )
    SELECT url || '_' || CAST(pos AS VARCHAR) AS id,
           content,
           url AS source_url,
           CAST(len(toks) AS INT) AS word_count,
           CAST(length(content) AS INT) AS char_count,
           CAST(pos AS INT) AS position,
           pos > 0 AS is_continuation,
           ROUND(LEAST(ind_sum / wc, 1.0) + LEAST(wc / 100.0, 0.2), 4)
               AS semantic_density
    FROM s
"""



def _minhash_lsh_sql() -> str:
    """Full-pipeline DuckDB oracle for minhash_lsh_pairs: 60-bit
    token-md5 Horner-mix 3-gram shingles (the exact HUGEINT replay of
    ``dedup._gram_hashes``), the SAME 64 (a,b) permutation constants
    embedded as literals, uint64-wraparound arithmetic mirrored via
    HUGEINT mod 2^64, band candidacy as 4-minhash slice equality
    (equivalent to the engine's band-hash buckets), exact-Jaccard
    verify at 0.4."""
    from ragnificent_ray.pipelines.dedup import (
        LSH_BANDS,
        MINHASH_A,
        MINHASH_B,
        MINHASH_PERMS,
        _MERSENNE,
        _gram_mix_sql,
    )

    rows_per_band = MINHASH_PERMS // LSH_BANDS
    perm_rows = ",".join(
        f"({p},{int(MINHASH_A[p])},{int(MINHASH_B[p])})"
        for p in range(MINHASH_PERMS))
    w = 1 << 64
    return f"""
    WITH d AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
        FROM documents
    ), sh AS (
        SELECT doc_id, h
        FROM (SELECT doc_id, unnest({_gram_mix_sql(3, 4)}) AS h FROM d)
        GROUP BY 1, 2
    ), sets AS (
        SELECT doc_id, list(h ORDER BY h) AS shingles, COUNT(*) AS n_sh
        FROM sh GROUP BY doc_id
    ), perms(p, a, b) AS (VALUES {perm_rows}),
    sig AS (
        SELECT s.doc_id, p.p,
            MIN(CAST((((CAST(p.a AS HUGEINT) * s.h) % {w} + p.b) % {w})
                     % {_MERSENNE} AS BIGINT)) AS mh
        FROM sh s CROSS JOIN perms p
        GROUP BY s.doc_id, p.p
    ), bands AS (
        SELECT doc_id, p // {rows_per_band} AS band_id,
               list(mh ORDER BY p) AS bsig
        FROM sig GROUP BY doc_id, p // {rows_per_band}
    ), cand AS (
        SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
        FROM bands x JOIN bands y
          ON x.band_id = y.band_id AND x.bsig = y.bsig
         AND x.doc_id < y.doc_id
    ), jac AS (
        SELECT c.doc_a, c.doc_b,
               CAST(len(list_intersect(sa.shingles, sb.shingles)) AS DOUBLE)
               / (sa.n_sh + sb.n_sh
                  - len(list_intersect(sa.shingles, sb.shingles))) AS j
        FROM cand c
        JOIN sets sa ON sa.doc_id = c.doc_a
        JOIN sets sb ON sb.doc_id = c.doc_b
    )
    SELECT doc_a, doc_b, ROUND(j, 4) AS jaccard FROM jac WHERE j >= 0.4
"""



def _dedup_clusters_sql() -> str:
    """DuckDB oracle for dedup_clusters: the generated minhash pair SQL
    as the edge set, then transitive closure via WITH RECURSIVE and
    component = MIN(reachable doc_id). ``pairs`` and ``und`` are
    MATERIALIZED: DuckDB 1.0 otherwise inlines them and re-runs the
    whole MinHash pair SQL on every step of the closure."""
    return f"""
    WITH RECURSIVE pairs AS MATERIALIZED (
        SELECT doc_a, doc_b FROM ({_minhash_lsh_sql()})
    ), und AS MATERIALIZED (
        SELECT doc_a AS a, doc_b AS b FROM pairs
        UNION
        SELECT doc_b, doc_a FROM pairs
    ), reach(node, m) AS (
        SELECT a, a FROM und GROUP BY a
        UNION
        SELECT u.b, r.m FROM reach r JOIN und u ON u.a = r.node
    )
    SELECT node AS doc_id, MIN(m) AS component
    FROM reach GROUP BY node
    """


def _dedup_keep_sql() -> str:
    """Oracle for dedup_keep: documents minus non-representative
    cluster members, representatives flagged."""
    return f"""
    WITH lab AS ({_dedup_clusters_sql()})
    SELECT d.doc_id,
           CAST(CASE WHEN lab.doc_id IS NOT NULL THEN 1 ELSE 0 END
                AS BIGINT) AS in_cluster
    FROM documents d LEFT JOIN lab ON lab.doc_id = d.doc_id
    WHERE lab.doc_id IS NULL OR lab.component = d.doc_id
    """


def _dedup_keep_best_sql() -> str:
    """Oracle for dedup_keep_best: per cluster keep the max-n_chars
    member (ties → min doc_id) plus untouched singletons."""
    return f"""
    WITH lab AS ({_dedup_clusters_sql()}),
    q AS (
        SELECT lab.doc_id, lab.component, d.n_chars
        FROM lab JOIN documents d ON d.doc_id = lab.doc_id
    ), win AS (
        SELECT component, doc_id AS winner FROM (
            SELECT component, doc_id,
                   ROW_NUMBER() OVER (PARTITION BY component
                                      ORDER BY n_chars DESC, doc_id) AS rn
            FROM q) WHERE rn = 1
    )
    SELECT d.doc_id,
           CAST(CASE WHEN w.winner IS NOT NULL THEN 1 ELSE 0 END
                AS BIGINT) AS in_cluster
    FROM documents d
    LEFT JOIN q ON q.doc_id = d.doc_id
    LEFT JOIN win w ON w.winner = d.doc_id
    WHERE q.doc_id IS NULL OR w.winner IS NOT NULL
    """


def _ann_lsh_sql() -> str:
    """DuckDB oracle for ann_lsh_topk: the 8 seeded hyperplanes embedded
    as float64 literals (repr round-trips exactly), bucket = packed sign
    bits of emb . plane (normalization preserves sign), candidates =
    same-bucket vectors, exact cosine rank within the bucket."""
    import numpy as np

    from ragnificent_ray.pipelines.ann import LSH_PLANES, N_QUERIES, TOP_K

    rng = np.random.Generator(np.random.PCG64(7))
    planes = rng.standard_normal((LSH_PLANES, 64))  # dim fixed across tiers
    plane_rows = ",".join(
        "(%d, [%s])" % (p, ",".join(repr(float(x)) for x in planes[p]))
        for p in range(LSH_PLANES))
    return f"""
    WITH e AS (
        SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
        FROM embeddings
    ), planes(p, v) AS (VALUES {plane_rows}),
    bk AS (
        SELECT e.vec_id,
               CAST(SUM(CASE WHEN list_inner_product(e.emb, pl.v) > 0
                             THEN (1 << pl.p) ELSE 0 END) AS BIGINT) AS bucket
        FROM e CROSS JOIN planes pl
        GROUP BY e.vec_id
    ), q AS (
        SELECT e.vec_id AS query_id, e.emb AS qemb, bk.bucket AS qb
        FROM e JOIN bk USING (vec_id) WHERE e.vec_id < {N_QUERIES}
    ), scored AS (
        SELECT q.query_id, e.vec_id AS neighbor_id,
               list_cosine_similarity(q.qemb, e.emb) AS sim
        FROM q JOIN bk ON bk.bucket = q.qb JOIN e ON e.vec_id = bk.vec_id
    )
    SELECT query_id, neighbor_id,
           CAST(ROW_NUMBER() OVER (
               PARTITION BY query_id ORDER BY sim DESC, neighbor_id
           ) AS BIGINT) AS rank,
           ROUND(sim, 4) AS cos_sim
    FROM scored
    QUALIFY rank <= {TOP_K}
"""



def _ann_lsh_recall_sql() -> str:
    """Recall@k oracle: compose the exact-top-k SQL and the
    literal-hyperplane LSH SQL as CTEs, overlap per query."""
    from ragnificent_ray.pipelines import ann

    return f"""
    WITH ex AS ({ann.ORACLE_SQL["ann_topk"]}),
    ap AS ({_ann_lsh_sql()}),
    hits AS (
        SELECT ex.query_id, COUNT(ap.neighbor_id) AS n_hit
        FROM ex LEFT JOIN ap
          ON ap.query_id = ex.query_id
         AND ap.neighbor_id = ex.neighbor_id
        GROUP BY ex.query_id
    ),
    ne AS (SELECT query_id, COUNT(*) AS n_exact FROM ex GROUP BY query_id),
    nl AS (SELECT query_id, COUNT(*) AS n_lsh FROM ap GROUP BY query_id)
    SELECT ne.query_id, ne.n_exact, COALESCE(nl.n_lsh, 0) AS n_lsh,
           ROUND(CAST(hits.n_hit AS DOUBLE) / ne.n_exact, 4) AS recall
    FROM ne JOIN hits USING (query_id) LEFT JOIN nl USING (query_id)
"""


def _emb_lsh_sql() -> str:
    """DuckDB oracle for embedding_neardup_lsh: the 120 seeded band
    hyperplanes embedded as float64 literals, candidacy = identical
    10-bit sign pattern in any of 12 bands, exact-cosine verify at the
    COSINE_THRESHOLD."""
    import numpy as np

    from ragnificent_ray.pipelines.dedup import (
        COSINE_THRESHOLD,
        EMB_LSH_BANDS,
        EMB_LSH_BITS,
    )

    rng = np.random.Generator(np.random.PCG64(11))
    planes = rng.standard_normal((EMB_LSH_BANDS * EMB_LSH_BITS, 64))
    plane_rows = ",".join(
        "(%d, [%s])" % (p, ",".join(repr(float(x)) for x in planes[p]))
        for p in range(EMB_LSH_BANDS * EMB_LSH_BITS))
    bits = EMB_LSH_BITS
    return f"""
    WITH e AS (
        SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
        FROM embeddings
    ), planes(p, v) AS (VALUES {plane_rows}),
    bands AS (
        SELECT e.vec_id, pl.p // {bits} AS band_id,
               CAST(SUM(CASE WHEN list_inner_product(e.emb, pl.v) > 0
                             THEN (1 << (pl.p % {bits})) ELSE 0 END)
                    AS BIGINT) AS pattern
        FROM e CROSS JOIN planes pl
        GROUP BY e.vec_id, pl.p // {bits}
    ), cand AS (
        SELECT DISTINCT x.vec_id AS vec_a, y.vec_id AS vec_b
        FROM bands x JOIN bands y
          ON x.band_id = y.band_id AND x.pattern = y.pattern
         AND x.vec_id < y.vec_id
    ), scored AS (
        SELECT c.vec_a, c.vec_b,
               list_cosine_similarity(ea.emb, eb.emb) AS sim
        FROM cand c JOIN e ea ON ea.vec_id = c.vec_a
        JOIN e eb ON eb.vec_id = c.vec_b
    )
    SELECT vec_a, vec_b, ROUND(sim, 4) AS cos_sim
    FROM scored WHERE sim >= {COSINE_THRESHOLD}
"""


def oracle_sql() -> dict[str, str]:
    from ragnificent_ray.pipelines import (ann, bpe, clustering, curation,
                                           decontam, dedup, graph, packing,
                                           relational, retrieval, sampling,
                                           temporal, textstats, tpch_more,
                                           tpch_rest)

    out: dict[str, str] = {}
    for mod in (relational, textstats, dedup, ann, temporal, sampling,
                decontam, clustering, retrieval, curation, packing, graph,
                bpe, tpch_more, tpch_rest):
        out.update(mod.ORACLE_SQL)
    out["rag_chunks"] = _RAG_CHUNKS_SQL
    out["rag_chunks_sliding"] = _RAG_CHUNKS_SLIDING_SQL
    out["rag_chunks_recursive"] = _RAG_CHUNKS_RECURSIVE_SQL
    out["rag_chunks_rust"] = _RAG_CHUNKS_RUST_SQL
    out["minhash_lsh_pairs"] = _minhash_lsh_sql()
    out["minhash_threshold_curve"] = f"""
    WITH pairs AS ({_minhash_lsh_sql()})
    SELECT CAST(FLOOR(jaccard * 10) AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n_pairs
    FROM pairs GROUP BY bin
    """
    out["dedup_clusters"] = _dedup_clusters_sql()
    out["dedup_keep"] = _dedup_keep_sql()
    out["dedup_keep_best"] = _dedup_keep_best_sql()
    out["dedup_cluster_sizes"] = f"""
    WITH lab AS ({_dedup_clusters_sql()}),
         c AS (SELECT component, COUNT(*) AS size FROM lab
               GROUP BY component)
    SELECT CAST(size AS BIGINT) AS size,
           CAST(COUNT(*) AS BIGINT) AS n_clusters
    FROM c GROUP BY size
    """
    out["ann_lsh_topk"] = _ann_lsh_sql()
    out["ann_lsh_recall"] = _ann_lsh_recall_sql()
    out["embedding_neardup_lsh"] = _emb_lsh_sql()
    out["rag_embed_norms"] = _RAG_EMBED_NORMS_SQL
    out["tfidf_embed"] = _TFIDF_EMBED_SQL
    return out
