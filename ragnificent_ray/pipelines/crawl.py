"""The Ray-Data-native crawl: BFS frontier rounds, one execution each.

Per round (SURVEY §3.1-new; stages/claims.py)::

    exec   (critical)  frontier ──▶ fetch ──▶ parse ──▶ AttachClaims
                         (image seen-claims + payload-carrying outlink
                          min-rank proposals on the sharded seen set) ──▶
                         block-write documents ──▶ block refs
                                                [= proposal barrier]
    RPC    (critical)  seen.take_winners_to_parquet — each shard claims
                         its pending winners and writes its own next-
                         frontier parquet part (phase-2 resolve without
                         a dataset execution; read lazily next round)
    lane 3 (background) one task per documents block: render ──▶
                         rendered part ──▶ chunk (──▶ embed) ──▶ chunks
                         part
    lane 4 (background) one task per documents block:
                         ExplodeClaimedImages ──▶ image_frontier part,
                         streamed back cut into fetch batches; then one
                         task per batch: fetch ──▶ decode+phash ──▶
                         harvest part (Lance adapter)

The critical execution is the only Ray Data execution in a round, and a
pure streaming map chain: no repartition or other all-to-all operator
runs anywhere in a crawl. The frontier is cut where it is made — round 0
by one discovery task per seed (``_cut_stream``), every later round by
the seen shards' resolve — into about ``BLOCKS_PER_CPU`` blocks per CPU,
none under one fetch batch, so Ray Data bundles those blocks straight
into fetch tasks of at least ``fetch_batch_size`` rows.
The crawl's Datasets carry their own ``target_max_block_size``
(``_bounded``), so Ray Data starts an execution's tasks side by side
instead of one at a time, and no other Dataset of the session sees it.

The background lanes are plain Ray tasks over the critical execution's
documents block refs, at most one under the session's CPUs at once
until the last round's critical path ends (``_Lanes``). They overlap the next round's critical path; a round is marked complete
only after all its writes land, so the crawl is resumable from per-round
checkpoints with lineage+metrics (state/checkpoint.py). Every part is
written by the task that made its rows, under a content-addressed name
(a retried task overwrites, never duplicates).

Control crosses process boundaries only at the seen/politeness shard
RPCs; per-domain politeness state never moves (SURVEY §3.1). Seen
shard *i* and politeness shard *i* share shard-host process ``i % H``,
with at most one host per CPU, and hosts are leased per Ray session
(state/hosts.py), so every crawl after a session's first starts on warm
processes. There is no all-to-all shuffle anywhere in the round: the
outlink min-rank dedup is a two-phase claim on the hash-sharded seen
shards.

Ordering contract (SURVEY §7.4): Ray gives no execution order; the
``(depth, seed_rank)`` columns define the reference order, and parity
with the sequential oracle is checked on the rank-sorted sequence.
Every seen-set mutation happens inside a critical-path execution, so
the URL-seen set evolves in exact round order despite the overlap.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray import ObjectRefGenerator

from ..config import CrawlConfig
from ..io.lance import commit_harvest, write_harvest
from ..schema import FRONTIER, HARVEST
from ..sources.sitemap import discover_domain_urls, filter_urls
from ..stages.canonicalize import canonicalize_batch
from ..stages.chunk import chunk_batch
from ..stages.embed import embed_batch
from ..stages.claims import (
    CLAIM_COLUMNS,
    AttachClaims,
    ExplodeClaimedImages,
)
from ..stages.extract import (
    harvest_decode_batch,
    parse_documents_batch,
    render_batch,
)
from ..stages.fetch import FetchWorker, cached_backend
from ..state import hosts as shard_hosts
from ..state.checkpoint import CheckpointManager, config_hash, write_part
from ..state.politeness import PolitenessService
from ..state.seen import SeenSet, cut_blocks, streamed_blocks
from .exchange import from_block_refs

SEED_STRIDE = 1_000_000
RANK_STRIDE = 100_000


# --------------------------------------------------------------- discovery

class DiscoverWorker:
    """Sitemap discovery per seed (S2-S4): robots → sitemap recursion →
    reference-order filter → ranked frontier rows. Runs in one
    :func:`_cut_stream` task per seed (one batch = one seed); each
    seed's discovery is inherently sequential (first-hit-wins), so
    parallelism is across seeds."""

    def __init__(self, world_cfg: dict, politeness=None, crawl_cfg: dict | None = None):
        self.world_cfg = world_cfg
        self._backend = None
        self.politeness = politeness
        self.cfg = crawl_cfg or {}

    @property
    def backend(self):
        if self._backend is None:
            self._backend = cached_backend(self.world_cfg)
        return self._backend

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_backend"] = None
        return state

    def _fetch(self, url: str):
        if self.politeness is not None:
            from ..functions.urls import extract_domain

            delay = self.politeness.reserve(extract_domain(url), 1)[0]
            if delay > 0:
                time.sleep(delay)
        return self.backend.fetch(url)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in FRONTIER.names}
        for seed_url, seed_idx in zip(
            batch.column("seed_url").to_pylist(),
            batch.column("seed_idx").to_pylist(),
        ):
            entries = discover_domain_urls(
                seed_url, self._fetch,
                respect_robots_txt=self.cfg.get("respect_robots_txt", True),
            )
            entries = filter_urls(
                entries,
                min_priority=self.cfg.get("min_priority"),
                include_patterns=self.cfg.get("include_patterns"),
                exclude_patterns=self.cfg.get("exclude_patterns"),
                limit=self.cfg.get("limit_per_domain"),
            )
            for pos, e in enumerate(entries):
                out["url"].append(e["loc"])
                out["domain"].append("")  # filled by canonicalize
                out["depth"].append(0)
                out["priority"].append(e["priority"])
                out["lastmod"].append(e["lastmod"])
                out["changefreq"].append(e["changefreq"])
                out["url_hash"].append(0)
                out["seed_rank"].append(seed_idx * SEED_STRIDE + pos)
        return pa.table({
            name: pa.array(out[name], type=FRONTIER.field(name).type)
            for name in FRONTIER.names
        })


class SeenFilter:
    """Seen-filter stage: keep only rows whose url_hash is new (D1).

    Used as a plain FUNCTION stage (task-based, no pool startup): the
    mutable state lives in the SeenSet's shard actors, the filter itself
    only routes — actor handles serialize into the task closure."""

    def __init__(self, seen: SeenSet):
        self.seen = seen

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        hashes = batch.column("url_hash").to_numpy(zero_copy_only=False)
        mask = self.seen.check_and_add(hashes.astype(np.uint64))
        return batch.filter(pa.array(mask))


# ------------------------------------------------------------------ result

@dataclass
class CrawlResult:
    out_dir: str
    rounds: list[int] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def _round_dirs(self, table: str) -> list[str]:
        out = []
        for r in self.rounds:
            d = os.path.join(self.out_dir, "rounds", f"round={r:04d}", table)
            if os.path.isdir(d) and any(
                n.endswith(".parquet") for n in os.listdir(d)
            ):
                out.append(d)
        return out

    def dataset(self, table: str) -> rd.Dataset:
        dirs = self._round_dirs(table)
        if not dirs:
            return rd.from_arrow(pa.table({}))
        # explicit file list: Ray's read_parquet accepts one directory
        # but not a LIST of directories (pyarrow treats multi-path input
        # as files), and the dirs also hold non-parquet sidecars
        # (_lance_adapter.json) that a raw multi-dir read trips on
        files = [
            os.path.join(d, n)
            for d in dirs
            for n in sorted(os.listdir(d)) if n.endswith(".parquet")
        ]
        return rd.read_parquet(files)

    # table() materializes every round's parquet into ONE driver-side
    # Arrow table — test/small-scale accessor ONLY. Any consumer that
    # could see 100×-scale crawls must use dataset() (lazy, streamed).
    # The guard below makes the misuse loud instead of an OOM.
    TABLE_MAX_BYTES = 4 << 30

    def table(self, table: str) -> pa.Table:
        dirs = self._round_dirs(table)
        on_disk = sum(
            os.path.getsize(os.path.join(d, n))
            for d in dirs for n in os.listdir(d) if n.endswith(".parquet")
        )
        if on_disk > self.TABLE_MAX_BYTES:
            raise ValueError(
                f"CrawlResult.table({table!r}): {on_disk} parquet bytes "
                f"exceed the driver-materialization guard "
                f"({self.TABLE_MAX_BYTES}); use CrawlResult.dataset() "
                "for at-scale consumers"
            )
        tabs = []
        for d in dirs:
            for n in sorted(os.listdir(d)):
                if n.endswith(".parquet"):
                    tabs.append(pq.read_table(os.path.join(d, n)))
        return pa.concat_tables(tabs) if tabs else pa.table({})


def _dir_rows(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    total = 0
    for name in os.listdir(path):
        if name.endswith(".parquet"):
            total += pq.ParquetFile(os.path.join(path, name)).metadata.num_rows
    return total


def _dir_cache_hits(path: str) -> int:
    """G2: count from_cache=True rows in a documents checkpoint dir
    (column-pruned read, runs on the background finalizer thread)."""
    if not os.path.isdir(path):
        return 0
    total = 0
    for name in os.listdir(path):
        if name.endswith(".parquet"):
            t = pq.read_table(os.path.join(path, name),
                              columns=["from_cache"])
            total += int(pc.sum(t.column("from_cache")).as_py() or 0)
    return total


def _failure_sampler(path: str, per_block: int = 5):
    """O4 — failure-log sampling (``core/scraper.py:884-891``: log the
    first 5 failed URLs + a count). Fused pass-through stage between
    fetch and parse: writes ≤``per_block`` (url, status) failure rows
    per block to ``path``; the finalize thread surfaces the first 5 and
    the total rides ``pages_failed``. Bounded everywhere — no failure
    list ever accumulates unbounded, unlike the reference's in-memory
    ``failed_urls``."""
    def sample(batch: pa.Table) -> pa.Table:
        failed = batch.filter(pc.or_kleene(
            pc.not_equal(batch.column("status"), 200),
            pc.equal(pc.fill_null(
                pc.binary_length(batch.column("html")), 0), 0),
        ))
        if failed.num_rows:
            out = failed.select(["url", "status"]).slice(0, per_block)
            write_part(out, path, "\n".join(out.column("url").to_pylist()))
        return batch

    return sample


def _failure_samples(path: str, limit: int = 5) -> list[dict]:
    if not os.path.isdir(path):
        return []
    rows: list[dict] = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".parquet") and len(rows) < limit:
            rows.extend(
                pq.read_table(os.path.join(path, name)).to_pylist())
    return rows[:limit]


# An upper bound on the bytes of one crawl row: a frontier URL, a fetched
# page with its parsed document, or an image with its bytes (synthetic
# pages carry ~3 KB of HTML, images 4-12 KB). ``fetch_batch_size ×
# ROW_BYTES_BOUND`` (8 MiB at the default 256) bounds one fetch batch; a
# task with more rows, or with larger rows, only makes Ray Data cut its
# output into more blocks.
ROW_BYTES_BOUND = 32 << 10


def _bounded(ds: rd.Dataset, rows: int) -> rd.Dataset:
    """``ds`` with a ``target_max_block_size`` of ``rows ×
    ROW_BYTES_BOUND``, which every Dataset derived from it inherits.

    Until an operator has produced output, Ray Data sizes each of its
    tasks at ``target_max_block_size`` × 2 buffered blocks: 256 MiB at
    Ray's default, the whole Data budget of a 512 MiB object store, so
    each execution ran one task until its first output. A Dataset owns
    the copy of the DataContext made at its creation, so the bound stays
    inside the crawl: ``DataContext.get_current()`` is never changed."""
    ds.context.target_max_block_size = rows * ROW_BYTES_BOUND
    return ds


# A round's frontier is cut into about BLOCKS_PER_CPU × CPUs blocks,
# shared out over the producers that make it and none under one fetch
# batch; Ray Data then bundles them into fetch tasks of at least
# ``fetch_batch_size`` rows. Cutting every frontier into single fetch
# batches instead ran 8 × 1600-page crawls ~12% slower on 4 CPUs (50
# fetch tasks of 256 rows in round 0, not 16 of 800).
BLOCKS_PER_CPU = 4


@ray.remote
def _cut_stream(cut: tuple, make, *args):
    """The table ``make(*args)``, made in this task and streamed as
    :func:`~..state.seen.cut_blocks` ``(table, *cut)`` slices owned by
    the caller: round 0 discovers one seed per task, a resume reads one
    checkpointed frontier part per task, and a harvest lane explodes one
    documents block's claimed images per task. A Ray Data map cannot cut
    them: its per-task output buffer merges a UDF's tables back into
    blocks of up to ``target_max_block_size`` bytes."""
    head, blocks = cut_blocks(make(*args), *cut)
    yield head
    yield from blocks


def _frontier_from_refs(blocks: list) -> rd.Dataset:
    """A round's frontier Dataset from ``(rows, bytes, ref)`` blocks
    streamed by the seen shards' resolve or by round 0's discovery tasks;
    the schema is statically FRONTIER, so no task reads any metadata."""
    return from_block_refs([t for _, _, t in blocks],
                           [(n, sz, FRONTIER) for n, sz, _ in blocks])


# ------------------------------------------------------------------- crawl

def _content_key(block: pa.Table) -> str:
    """What names a part made from ``block``: its url sequence, or a
    digest of the serialized block when it has no url column (so two
    distinct same-sized blocks can't collide on one file)."""
    if "url" in block.column_names:
        return "\n".join(block.column("url").to_pylist())
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, block.schema) as w:
        w.write_table(block)
    return hashlib.blake2b(
        sink.getvalue().to_pybytes(), digest_size=10).hexdigest()


def _block_writer(path: str, drop_columns: tuple = (), tag: str = ""):
    """Per-block parquet writer fused into a map stage (write + pass
    through) so a checkpoint costs zero extra executions. Filenames are
    content-addressed (:func:`_content_key`) so a retried task
    overwrites its own file instead of duplicating rows."""
    os.makedirs(path, exist_ok=True)

    def write(batch: pa.Table) -> pa.Table:
        out = batch
        drop = [c for c in drop_columns if c in out.column_names]
        if drop:
            out = out.drop_columns(drop)
        if out.num_rows:
            write_part(out, path, tag + _content_key(out))
        return batch

    return write


# The background lanes are plain tasks: they take their stage callables as
# arguments, looked up in this module's namespace when they are submitted,
# so a caller that swaps a stage here (a traced stand-in) reaches the
# workers too. A global resolved inside a worker would not.

@ray.remote
def _render_lane(docs: pa.Table, render, chunk, embed, markdown_only: bool,
                 dirs: tuple, tag: str) -> tuple[int, int]:
    """The render lane of one documents block: ``render`` → rendered
    part → ``chunk`` (→ ``embed``) → chunks part, both parts named by
    the block's urls. Returns the (rendered, chunk) row counts."""
    rendered_dir, chunks_dir = dirs
    key = tag + _content_key(docs)
    rendered = render(docs)
    if rendered.num_rows:
        write_part(rendered, rendered_dir, "rendered" + key)
    src = rendered
    if markdown_only:
        src = src.filter(pc.equal(src.column("fmt"), "markdown"))
    chunks = chunk(src)
    if embed is not None:
        chunks = embed(chunks)
    if chunks.num_rows:
        write_part(chunks, chunks_dir, "chunks" + key)
    return rendered.num_rows, chunks.num_rows


@ray.remote
def _harvest_lane(images: pa.Table, fetch, decode, write,
                  uri: str) -> tuple[int, list]:
    """The harvest lane of one fetch batch of claimed image rows:
    ``fetch`` → ``decode`` → one harvest part ``write``-n at ``uri``.
    Returns the part's rows and what ``commit_harvest`` takes of it."""
    harvest = decode(fetch(images))
    return harvest.num_rows, write(harvest, uri)


class _Lanes:
    """Submits a crawl's background lane tasks, at most ``n`` in flight
    over all its rounds: a submission waits for a free slot, and a task
    frees its slot when it finishes. With ``n`` one under the session's
    CPUs, the next round's critical tasks always find a CPU; with every
    CPU held by lane tasks they waited for one, and Ray started a new
    worker process for them. Once no critical work is left, :meth:`widen`
    gives the lanes that CPU too."""

    def __init__(self, n: int):
        self._free = threading.Semaphore(n)

    def submit(self, task, *args):
        self._free.acquire()
        try:
            out = task.remote(*args)
        except BaseException:  # e.g. an argument that does not pickle
            self._free.release()
            raise
        done = out.completed() if isinstance(out, ObjectRefGenerator) \
            else out
        done.future().add_done_callback(lambda _: self._free.release())
        return out

    def widen(self) -> None:
        """One more slot: the crawl's last critical path has finished."""
        self._free.release()


def _claimed_images(write, docs: pa.Table) -> pa.Table:
    """One documents block's claimed images, one row each, after
    ``write`` checkpointed them as an image_frontier part."""
    return write(ExplodeClaimedImages()(docs))


def run_crawl(cfg: CrawlConfig, out_dir: str, resume: bool = False) -> CrawlResult:
    """Run the full crawl. Ray must already be initialized by the caller
    (driver contract); this function holds only its shard hosts, and
    only for the call. It leases ``H = min(max(n_seen_shards,
    n_politeness_shards), CPUs)`` hosts from the session's idle pool
    (seen shard *i* and politeness shard *i* live on host ``i % H``;
    ``state.hosts.host_count``), builds fresh shard state on them, and
    hands them back when it returns normally; on any exception they are
    killed. An idle set is killed after ``state.hosts.IDLE_GRACE_S``.
    ``metrics["shard_hosts"]`` says how many hosts ran, whether they
    were reused, and the seconds from the lease to every shard built
    (``ready_s``).

    Execution shape: a Ray Data execution has a fixed dispatch cost and
    concurrent executions serialize their dispatch, so each round runs
    ONE execution, its critical path, plus one RPC fan-out and plain
    Ray tasks (stages/claims.py):

    0. round 0 only — one ``_cut_stream`` Ray task per seed:
       discover → canonicalize → seen-filter → frontier checkpoint,
       streamed back as ``cut_blocks`` slices.
    1. critical — fetch → parse → AttachClaims (image seen-claims +
       payload-carrying outlink min-rank proposals on the sharded seen
       set) → block-write(documents) → the documents block refs
       (= phase-1 barrier).
    2. critical RPC — seen.take_winners_to_parquet: each shard claims
       its pending winners, writes its own next-frontier parquet part
       and streams them back as ``cut_blocks`` slices (phase-2 resolve
       without a dataset execution).
    3. background — one ``_render_lane`` task per documents block:
       render → rendered part → chunk (→ embed) → chunks part.
    4. background — one ``_cut_stream`` task per documents block:
       ExplodeClaimedImages → image_frontier part, streamed back in
       slices of at most ``fetch_batch_size`` image rows; then one
       ``_harvest_lane`` task per slice: fetch → decode → harvest part.
       The round's finalizer commits the parts once
       (``io.lance.commit_harvest``).

    Each execution is a chain of maps over frontier blocks cut where
    they are made: each of a round's producers (seeds, seen shards,
    checkpointed parts) cuts its rows into its share of ``BLOCKS_PER_CPU
    × CPUs`` blocks, none under ``fetch_batch_size`` rows. Ray Data
    bundles them into fetch tasks of at least ``fetch_batch_size`` rows
    with no repartition barrier in front of the fetch. Every Dataset of
    the crawl runs with a ``target_max_block_size`` of
    ``fetch_batch_size × ROW_BYTES_BOUND`` (``_bounded``), so Ray Data
    does not size the first task of each operator at the whole
    object-store budget and run it alone.
    ``DataContext.get_current()`` is never changed.

    The lanes take their stages (``render_batch``, ``chunk_batch``,
    ``FetchWorker``, ``harvest_decode_batch``, ``write_harvest``) from
    this module's namespace when the crawl starts, as arguments. They
    overlap the next round's critical path, which always finds a CPU
    free of them (``_Lanes``); a round is marked complete
    in the manifest only after ALL its writes land, so resume semantics
    are unchanged, and a failed lane task fails the crawl. The seen set
    evolves in exact round order because every claim happens inside the
    critical path.
    """
    from concurrent.futures import ThreadPoolExecutor

    ckpt = CheckpointManager(out_dir)
    chash = config_hash(cfg)
    world_cfg = asdict(cfg.world)

    result = CrawlResult(out_dir=out_dir)
    t_start = time.monotonic()
    pool = ThreadPoolExecutor(max_workers=16)
    manifest_lock = threading.Lock()
    finalizers = []
    lease = shard_hosts.lease(
        max(cfg.n_seen_shards, cfg.n_politeness_shards), cfg.seen_spread)
    clean = False
    try:
        politeness = PolitenessService(
            n_shards=cfg.n_politeness_shards,
            default_rate=cfg.default_rate,
            domain_limits=cfg.domain_limits,
            adaptive=cfg.adaptive_throttling,
            retry_delay=cfg.retry_delay,
            adaptive_max_rate=cfg.adaptive_max_rate,
            spread=cfg.seen_spread,
            lease=lease,
        )
        cpus = int(ray.cluster_resources().get("CPU", 8))

        def cut(producers: int) -> tuple[int, int]:
            """(rows, pieces) for each of a round's ``producers``."""
            return (cfg.fetch_batch_size,
                    -(-BLOCKS_PER_CPU * cpus // max(1, producers)))

        seen = SeenSet(
            n_shards=cfg.n_seen_shards,
            capacity_per_shard=cfg.seen_capacity_per_shard,
            spread=cfg.seen_spread,
            lease=lease,
            block_rows=cfg.fetch_batch_size,
            pieces=cut(cfg.n_seen_shards)[1],
        )
        # kept out of the per-round metrics: wall time, and it differs
        # between a session's first crawl and the later ones
        result.metrics["shard_hosts"] = {
            "hosts": len(lease.hosts),
            "reused": lease.reused,
            "ready_s": round(time.monotonic() - t_start, 3),
        }

        def _fetcher(politeness):
            return FetchWorker(
                world_cfg=world_cfg,
                politeness=politeness,
                max_retries=cfg.max_retries,
                retry_delay=cfg.retry_delay,
                cache_dir=cfg.request_cache_dir,
                cache_ttl=cfg.request_cache_ttl,
                fetch_concurrency=cfg.fetch_threads,
            )

        fetcher = _fetcher(politeness)
        # the lanes' stages, taken from this namespace once (see
        # _render_lane); the harvest lane overlaps later rounds' critical
        # paths, so its reservations are counted apart from the per-round
        # watermarks
        formats = tuple(cfg.formats)
        render_stages = (
            partial(render_batch, formats=formats),
            partial(chunk_batch, strategy=cfg.chunk_strategy,
                    chunk_size=cfg.chunk_size,
                    chunk_overlap=cfg.chunk_overlap),
            (partial(embed_batch, dim=cfg.embedding_dim)
             if cfg.embed_chunks else None),
            len(formats) > 1,
        )
        harvest_stages = (_fetcher(politeness.background()),
                          harvest_decode_batch, write_harvest)
        lanes = _Lanes(max(1, cpus - 1))

        done = ckpt.completed_rounds(chash) if resume else []
        if done:
            # Replay completed rounds' hashes (pages + images) PLUS the
            # pending round's frontier — those URLs were claimed before the
            # interruption; without them a deeper round could re-enqueue.
            # The pending round's *image* hashes are NOT restored and its
            # partial outputs are cleared: the round re-runs idempotently.
            pending = max(done) + 1
            seen.restore(ckpt.seen_hashes_for_rounds(done))
            seen.restore(ckpt.seen_hashes_for_rounds(
                [pending], tables=("frontier",)))
            import shutil

            for sub in ("documents", "rendered", "chunks", "harvest",
                        "image_frontier", "failures"):
                shutil.rmtree(ckpt.table_dir(pending, sub), ignore_errors=True)
            shutil.rmtree(ckpt.table_dir(pending + 1, "frontier"),
                          ignore_errors=True)
            result.rounds.extend(done)

        rows = cfg.fetch_batch_size
        crawl_opts = {
            "respect_robots_txt": cfg.respect_robots_txt,
            "min_priority": cfg.min_priority,
            "include_patterns": cfg.include_patterns,
            "exclude_patterns": cfg.exclude_patterns,
            "limit_per_domain": cfg.limit_per_domain,
        }

        if cfg.allow_cross_domain:
            allowed_domains = None
        else:
            if cfg.links_file:
                from ..sources.links_file import links_table

                seed_pool = links_table(cfg.links_file) \
                    .column("url").to_pylist()
            else:
                seed_pool = cfg.seed_urls()
            allowed_domains = {
                u.split("://", 1)[-1].split("/", 1)[0] for u in seed_pool
            }

        def _start_lanes(depth: int, docs_refs: list) -> tuple:
            """Submit a round's background lane tasks (module doc) over
            its documents blocks, in a pool thread since a submission
            waits for a lane slot: ``(render refs, image slices, harvest
            refs)``."""
            image_streams = []
            if cfg.harvest_images:
                # each block's image rows, cut by the frontier's share
                # rule capped at one fetch batch: as that rule cuts no
                # slice under a batch, all but a block's last are one
                claimed = partial(_claimed_images, _block_writer(
                    ckpt.table_dir(depth, "image_frontier"),
                    tag=f"imgf{depth}:"))
                image_cut = (*cut(len(docs_refs)), cfg.fetch_batch_size)
                image_streams = [
                    lanes.submit(_cut_stream, image_cut, claimed, ref)
                    for ref in docs_refs]
            lane_dirs = (ckpt.table_dir(depth, "rendered"),
                         ckpt.table_dir(depth, "chunks"))
            render_refs = [
                lanes.submit(_render_lane, ref, *render_stages, lane_dirs,
                             f"{depth}:")
                for ref in docs_refs]
            images = streamed_blocks(image_streams)
            hdir = ckpt.table_dir(depth, "harvest")
            return render_refs, images, [
                lanes.submit(_harvest_lane, ref, *harvest_stages, hdir)
                for _, _, ref in images]

        # (materialized next-round frontier, row count) handed from the
        # resolve execution of round d to round d+1 — the only
        # inter-round dependency on the critical path
        next_frontier = None

        for depth in range(cfg.max_depth + 1):
            if depth in done:
                continue
            frontier_dir = ckpt.table_dir(depth, "frontier")

            # ---- this round's frontier --------------------------------------
            if next_frontier is not None:
                frontier_mat, n_frontier = next_frontier
                next_frontier = None
            elif _dir_rows(frontier_dir) > 0:  # resume path
                parts = [os.path.join(frontier_dir, name)
                         for name in sorted(os.listdir(frontier_dir))
                         if name.endswith(".parquet")]
                blocks = streamed_blocks(
                    _cut_stream.remote(cut(len(parts)), pq.read_table, p)
                    for p in parts)
                n_frontier = sum(n for n, _, _ in blocks)
                frontier_mat = _bounded(_frontier_from_refs(blocks), rows)
            elif depth == 0 and cfg.links_file:
                # S1: links file is the round-0 frontier (no discovery);
                # each map keeps its input blocks' cut
                from ..sources.links_file import links_table

                links = links_table(cfg.links_file, SEED_STRIDE)
                frontier_mat = (
                    _bounded(rd.from_arrow(
                        cut_blocks(links, *cut(1))[1] or [links]), rows)
                    .map_batches(canonicalize_batch, batch_format="pyarrow")
                    .map_batches(SeenFilter(seen), batch_format="pyarrow")
                    .map_batches(
                        _block_writer(frontier_dir, tag="frontier0:"),
                        batch_format="pyarrow")
                    .materialize()
                )
                n_frontier = frontier_mat.count()
            elif depth == 0:
                seeds = cfg.seed_urls()
                seed_table = pa.table({
                    "seed_url": pa.array(seeds, type=pa.string()),
                    "seed_idx": pa.array(range(len(seeds)), type=pa.int64()),
                })
                discover = DiscoverWorker(
                    world_cfg=world_cfg,
                    politeness=politeness,
                    crawl_cfg=crawl_opts,
                )
                keep_new = SeenFilter(seen)
                write = _block_writer(frontier_dir, tag="frontier0:")

                def discover_seed(seed: pa.Table) -> pa.Table:
                    return write(keep_new(canonicalize_batch(discover(seed))))

                blocks = streamed_blocks(
                    _cut_stream.remote(
                        cut(len(seeds)), discover_seed, seed_table.slice(i, 1))
                    for i in range(len(seeds)))
                n_frontier = sum(n for n, _, _ in blocks)
                if n_frontier:
                    frontier_mat = _bounded(_frontier_from_refs(blocks), rows)
            else:
                n_frontier = 0

            if n_frontier == 0:
                for f in finalizers:  # keep manifest completion in order
                    f.result()
                with manifest_lock:
                    ckpt.complete_round(
                        depth, {"depth": depth, "inputs": [], "n_frontier": 0},
                        {"pages_fetched": 0}, chash,
                    )
                    result.rounds.append(depth)
                break

            round_t0 = time.monotonic()
            branch_times: dict[str, float] = {}
            follow = cfg.follow_links and depth < cfg.max_depth

            # ---- execution 1: fetch+parse+claims+doc-ckpt (critical) --------
            docs_dir = ckpt.table_dir(depth, "documents")
            docs = frontier_mat.map_batches(
                fetcher,
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
            ).map_batches(
                _failure_sampler(ckpt.table_dir(depth, "failures")),
                batch_format="pyarrow",
            ).map_batches(
                parse_documents_batch,
                batch_format="pyarrow",
                batch_size=cfg.parse_batch_size,
            ).map_batches(
                AttachClaims(
                    seen,
                    rank_stride=RANK_STRIDE,
                    allowed_domains=allowed_domains,
                    harvest_images=cfg.harvest_images,
                    follow_links=follow,
                ),
                batch_format="pyarrow",
            ).map_batches(
                _block_writer(docs_dir, drop_columns=CLAIM_COLUMNS,
                              tag=f"docs{depth}:"),
                batch_format="pyarrow",
            )
            branch_times["plan"] = round(time.monotonic() - round_t0, 3)
            t_fetch0 = time.monotonic()
            # the execution's block refs: phase-1 barrier for proposals
            docs_blocks = [(ref, meta.num_rows)
                           for bundle in docs.iter_internal_ref_bundles()
                           for ref, meta in bundle.blocks]
            branch_times["docs_mat"] = round(time.monotonic() - t_fetch0, 3)
            n_docs = sum(n for _, n in docs_blocks)
            docs_refs = [ref for ref, n in docs_blocks if n]
            fetch_parse_sec = time.monotonic() - t_fetch0
            # the lanes start now, overlapping the resolve below
            lanes_run = pool.submit(_start_lanes, depth, docs_refs)

            n_next = 0
            if n_docs:
                # ---- phase-2 resolve: shard-side, no execution --------------
                if follow:
                    branch_times["pre_outlinks"] = round(
                        time.monotonic() - round_t0, 3)
                    t0 = time.monotonic()
                    nxt_dir = ckpt.table_dir(depth + 1, "frontier")
                    n_next, winner_refs = seen.take_winners_to_parquet(
                        nxt_dir)
                    branch_times["outlinks"] = round(
                        time.monotonic() - t0, 3)
                    if n_next:
                        # shard-returned tables straight from the object
                        # store — no parquet metadata fetch on the
                        # critical path (the parquet parts exist only
                        # for checkpoint/resume)
                        next_frontier = (_bounded(
                            _frontier_from_refs(winner_refs), rows), n_next)

            critical_sec = time.monotonic() - round_t0

            # seen-shard telemetry snapshot — taken on the critical
            # path right after phase-2, so the cumulative counters are
            # exact per-round watermarks (every seen mutation happens
            # inside a critical-path execution). Audits the north
            # rule's cross-process boundaries: RPC fan-out must stay
            # O(batches × shards) and actor heap flat-numpy-bounded.
            _sst = seen.rpc_stats()
            _pst = politeness.rpc_stats()
            seen_telemetry = {
                "seen_shard_bytes": sum(
                    st["memory_bytes"] for st in _sst),
                "seen_rpc_calls": sum(st["rpc_calls"] for st in _sst),
                "seen_rpc_rows": sum(st["rpc_rows_in"] for st in _sst),
                # the other cross-process chatter on the critical path:
                # per-domain slot reservations. Only the critical path's
                # reservation counters go into round metrics — outcome
                # reports are fire-and-forget and the harvest lane's
                # reservations overlap this snapshot, so their arrival
                # is racy and would break the rows-only determinism
                # gate on crawl_round_metrics.
                "polite_domains": sum(st["domains"] for st in _pst),
                "polite_rpc_calls": sum(
                    st["reserve_rpc_calls"] for st in _pst),
                "polite_rpc_rows": sum(
                    st["reserve_rpc_rows"] for st in _pst),
            }

            # ---- deferred round finalization --------------------------------
            # each finalizer waits on the previous round's finalizer so
            # manifest completion is IN ORDER: completed_rounds is always
            # a contiguous prefix, and resume's `pending = max(done)+1`
            # can never skip a round whose sinks were still in flight
            prev_finalizer = finalizers[-1] if finalizers else None

            def _finalize(depth=depth, lanes_run=lanes_run,
                          n_frontier=n_frontier,
                          n_docs=n_docs, n_next=n_next,
                          branch_times=branch_times, round_t0=round_t0,
                          critical_sec=critical_sec,
                          fetch_parse_sec=fetch_parse_sec,
                          frontier_dir=frontier_dir,
                          seen_telemetry=seen_telemetry,
                          prev_finalizer=prev_finalizer):
                # every lane task's result: a failed task raises here
                render_refs, images, harvested = lanes_run.result()
                rendered = ray.get(render_refs)
                harvested = ray.get(harvested)
                if cfg.harvest_images and n_docs:
                    commit_harvest(ckpt.table_dir(depth, "harvest"),
                                   [part for _, part in harvested], HARVEST)
                if prev_finalizer is not None:
                    prev_finalizer.result()
                lineage = {
                    "depth": depth,
                    "inputs": [frontier_dir],
                    "n_frontier": n_frontier,
                    "config_hash": chash,
                }
                metrics = {
                    "n_frontier": n_frontier,
                    "pages_parsed": n_docs,
                    "pages_from_cache": _dir_cache_hits(
                        ckpt.table_dir(depth, "documents")),
                    "pages_failed": n_frontier - n_docs,
                    "failed_samples": _failure_samples(
                        ckpt.table_dir(depth, "failures")),
                    "rendered": sum(n for n, _ in rendered),
                    "chunks": sum(n for _, n in rendered),
                    "image_frontier": sum(n for n, _, _ in images),
                    "harvest_rows": sum(n for n, _ in harvested),
                    "next_frontier": n_next,
                    "round_sec": round(time.monotonic() - round_t0, 3),
                    "critical_sec": round(critical_sec, 3),
                    "fetch_parse_sec": round(fetch_parse_sec, 3),
                    "branch_times": dict(branch_times),
                    **seen_telemetry,
                }
                with manifest_lock:
                    ckpt.complete_round(depth, lineage, metrics, chash)
                    result.rounds.append(depth)
                    result.metrics[f"round_{depth}"] = metrics

            finalizers.append(pool.submit(_finalize))

            if next_frontier is None:
                break  # frontier exhausted (or link-following off)

            # bound the pipeline window to 2 rounds so the documents
            # blocks of unfinished rounds don't pile up in the object
            # store on deep crawls
            if len(finalizers) >= 2:
                finalizers[-2].result()

        # ---- wait for all background sinks ---------------------------------
        lanes.widen()  # no critical path is left to keep a CPU for
        for f in finalizers:
            f.result()
        result.rounds.sort()

        # ---- domain stats (G1) --------------------------------------------
        stats_rows = politeness.stats_rows()
        if stats_rows:
            stats = pa.table({
                "domain": pa.array([r["domain"] for r in stats_rows]),
                "success_count": pa.array(
                    [r["success_count"] for r in stats_rows], type=pa.int64()),
                "error_count": pa.array(
                    [r["error_count"] for r in stats_rows], type=pa.int64()),
                "avg_response_time": pa.array(
                    [r["avg_response_time"] for r in stats_rows]),
                "rate_limit": pa.array([r["rate_limit"] for r in stats_rows]),
            })
            pq.write_table(stats, os.path.join(out_dir, "domain_stats.parquet"))

        result.metrics["seen_urls"] = seen.size()
        result.metrics["total_sec"] = time.monotonic() - t_start
        total_pages = sum(
            result.metrics.get(f"round_{r}", {}).get("pages_parsed", 0)
            for r in result.rounds
        )
        result.metrics["pages_parsed_total"] = total_pages
        hits = sum(
            result.metrics.get(f"round_{r}", {}).get("pages_from_cache", 0)
            for r in result.rounds
        )
        result.metrics["pages_from_cache_total"] = hits
        result.metrics["cache_hit_rate"] = (
            round(hits / total_pages, 4) if total_pages else 0.0)
        if result.metrics["total_sec"] > 0:
            result.metrics["pages_per_sec"] = (
                total_pages / result.metrics["total_sec"]
            )
        result.metrics["seen_hashes"] = None  # fetched via seen_snapshot()
        result.metrics["_seen_snapshot"] = seen.snapshot()
        clean = True
        return result
    finally:
        pool.shutdown(wait=True)
        # only hosts of a crawl that returned normally are reused
        lease.release(reuse=clean)
