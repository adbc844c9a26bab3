"""Claim-attach stages: fold candidate extraction + seen-set claims into
the fetch+parse execution.

A Ray Data execution has a fixed dispatch cost (~1 s for ~128 tasks in
this sandbox, measured) and concurrent executions serialize their
dispatch, so a crawl round built from many small executions pays a
serial floor that caps scaling. These stages collapse the round to
ONE execution plus one RPC round trip and plain Ray tasks:

1. fetch → parse → **AttachClaims** → block-write(documents) —
   critical path. AttachClaims canonicalizes each page's image and
   outlink candidates, *claims* image URLs on the sharded seen set
   (``check_and_add``), and *proposes* each outlink's full frontier
   payload (url, domain, depth, min rank) to the owning seen shard
   (``propose_full``). The execution running to its last documents
   block ref is the phase-1 barrier of the min-rank claim.
2. **seen.take_winners_to_parquet** — critical path, NOT an execution:
   each shard claims its pending winners and writes its own frontier
   parquet part. The next round's fetch execution reads those parts
   lazily, so resolve costs one actor RPC fan-out instead of a whole
   dataset execution (explode → resolve → write) per round.
3. render → rendered part → chunk (→ embed) → chunks part —
   background, one plain task per documents block.
4. **ExplodeClaimedImages** → image_frontier part — background, one
   plain task per documents block, which streams the block's image
   rows back in slices of at most one fetch batch; then fetch →
   decode → harvest part, one plain task per slice.

Determinism: image claims and outlink proposals happen inside the
round's critical-path execution, so the seen set evolves in exact
round order even though heavy sinks overlap later rounds.

Known limit: WITHIN a round, duplicate image URLs referenced by two
different pages resolve by shard arrival order (first claim wins), so
the winning row's ``seed_rank`` attribution is timing-dependent — the
claimed SET and every harvested payload are still deterministic.
Outlinks don't have this limit (they use the two-phase min-rank
claim); extending it to images would require resolving image claims on
the critical path before the next round's proposals. The synthetic
world plants cross-page duplicate image URLs (synth_web.py page_html)
precisely to exercise this: the claimed set, captions and payloads are
identical whichever page wins, only the internal seed_rank attribution
is timing-dependent — and nothing downstream orders by it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.urls import canonicalize
from .extract import derive_rank

CLAIMED_IMAGE_T = pa.struct([
    ("url", pa.string()),
    ("domain", pa.string()),
    ("caption", pa.string()),
    ("seed_rank", pa.int64()),
    ("url_hash", pa.uint64()),
])

CLAIM_COLUMNS = ("claimed_images",)


class AttachClaims:
    """Stage 1 add-on: candidate extraction + seen-set claims, attached
    as nested columns so the documents stream stays one execution."""

    def __init__(self, seen, rank_stride: int = 100_000,
                 allowed_domains: set | None = None,
                 harvest_images: bool = True, follow_links: bool = True):
        self.seen = seen
        self.rank_stride = rank_stride
        self.allowed_domains = allowed_domains
        self.harvest_images = harvest_images
        self.follow_links = follow_links

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [c for c in ("depth", "seed_rank", "images", "outlinks")
                if c in batch.column_names]
        rows = batch.select(cols).to_pylist() if n else []

        img_flat: list[tuple[int, dict]] = []
        link_per_doc: list[list[dict]] = []
        for di, row in enumerate(rows):
            if self.harvest_images:
                for idx, im in enumerate(row.get("images") or []):
                    got = canonicalize(im["src"]) if im.get("src") else None
                    if got is None:
                        continue
                    u, dom, h = got
                    img_flat.append((di, {
                        "url": u, "domain": dom, "caption": im.get("alt", ""),
                        "seed_rank": derive_rank(
                            row.get("seed_rank", 0), idx, self.rank_stride),
                        "url_hash": h,
                    }))
            ll: list[dict] = []
            if self.follow_links:
                for idx, link in enumerate(row.get("outlinks") or []):
                    got = canonicalize(link) if link else None
                    if got is None:
                        continue
                    u, dom, h = got
                    if (self.allowed_domains is not None
                            and dom not in self.allowed_domains):
                        continue
                    ll.append({
                        "url": u, "domain": dom,
                        "depth": int(row.get("depth", 0)) + 1,
                        "seed_rank": derive_rank(
                            row.get("seed_rank", 0), idx, self.rank_stride),
                        "url_hash": h,
                    })
            link_per_doc.append(ll)

        claimed: list[list[dict]] = [[] for _ in range(n)]
        if img_flat:
            hashes = np.array([s["url_hash"] for _, s in img_flat],
                              dtype=np.uint64)
            mask = self.seen.check_and_add(hashes)
            for keep, (di, st) in zip(mask, img_flat):
                if keep:
                    claimed[di].append(st)

        if self.follow_links:
            # in-batch partial min per hash (combiner), then one
            # payload-carrying propose fan-out per batch — phase 1 of
            # the min-rank claim. Phase 2 is shard-side
            # (take_winners_to_parquet), so the candidates don't need
            # to travel with the documents stream at all.
            best: dict[int, dict] = {}
            for ll in link_per_doc:
                for st in ll:
                    h, r = st["url_hash"], st["seed_rank"]
                    cur = best.get(h)
                    if cur is None or r < cur["seed_rank"]:
                        best[h] = st
            if best:
                cands = list(best.values())
                self.seen.propose_full(
                    np.array([c["url_hash"] for c in cands],
                             dtype=np.uint64),
                    np.array([c["seed_rank"] for c in cands],
                             dtype=np.int64),
                    [c["url"] for c in cands],
                    [c["domain"] for c in cands],
                    [c["depth"] for c in cands],
                )

        return batch.append_column(
            "claimed_images", pa.array(claimed, type=pa.list_(CLAIMED_IMAGE_T))
        )


class ExplodeClaimedImages:
    """Stage 4 head: claimed image lists → one row per image to fetch."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat: list[dict] = []
        if "claimed_images" in batch.column_names:
            for ll in batch.column("claimed_images").to_pylist():
                flat.extend(ll or [])
        return pa.table({
            "url": pa.array([s["url"] for s in flat], type=pa.string()),
            "domain": pa.array([s["domain"] for s in flat], type=pa.string()),
            "caption": pa.array([s["caption"] for s in flat], type=pa.string()),
            "seed_rank": pa.array([s["seed_rank"] for s in flat], type=pa.int64()),
            "url_hash": pa.array(
                np.array([s["url_hash"] for s in flat], dtype=np.uint64)),
        })
