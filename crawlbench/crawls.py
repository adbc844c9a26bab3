"""The two crawl workloads: configs, one timed pass, and the oracle check.

``crawl_harvest`` is CPU-bound: an effectively unlimited politeness
budget, so every lane (fetch, parse, claims, seen resolve, render→chunk,
image fetch→decode→harvest write) does real work and none waits.
``crawl_polite`` waits instead: 8 rps per domain and a simulated 50 ms
RTT, with the harvest lane off, so the politeness scheduler and the
pipelined fetch set the pace.

Correctness is checked outside the timed window against the repo's
sequential oracle (``oracle.reference.run_oracle``) on the same config:
crawl order, seen set, documents, chunks and harvest rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time

from ragnificent_ray.config import CrawlConfig, WorldConfig
from ragnificent_ray.oracle.reference import run_oracle
from ragnificent_ray.pipelines import crawl

# (n_domains, pages_per_domain, images_per_page) per workload and size
WORLDS = {
    "crawl_harvest": {"full": (8, 50, 3), "tiny": (4, 6, 2)},
    "crawl_polite": {"full": (8, 12, 1), "tiny": (4, 4, 1)},
}
POLITE_RPS = 8.0

_DOC_FIELDS = ("url", "depth", "seed_rank", "title", "headings",
               "paragraphs", "links", "images", "lists", "code_blocks",
               "blockquotes")
_HARVEST_FIELDS = ("image_id", "w", "h", "fmt", "caption", "phash")


def config(workload: str, seed: int, size: str) -> CrawlConfig:
    d, p, i = WORLDS[workload][size]
    if workload == "crawl_harvest":
        return CrawlConfig(
            world=WorldConfig(d, p, i, seed=seed),
            default_rate=1e5, adaptive_throttling=False, retry_delay=0.05,
            fetch_batch_size=256, n_seen_shards=8, n_politeness_shards=4)
    # harvest_images=False, not images_per_page=0: with zero images a page
    # still embeds its predecessor's k=0 image, which then 404s (README)
    return CrawlConfig(
        world=WorldConfig(d, p, i, fetch_latency=0.05, seed=seed),
        default_rate=POLITE_RPS, adaptive_throttling=False, fetch_threads=4,
        fetch_batch_size=64, harvest_images=False)


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.blake2b(blob, digest_size=12).hexdigest()


def _harvest_row(row: dict) -> str:
    fields = {k: row[k] for k in _HARVEST_FIELDS}
    fields["bytes"] = hashlib.blake2b(row["bytes"], digest_size=12).hexdigest()
    return _digest(fields)


def expected(cfg: CrawlConfig) -> dict:
    """The oracle's answer as digests, keyed so rows can be matched.

    Simulated fetch latency only adds sleeps to the world; the oracle
    runs on the same world without it."""
    ocfg = dataclasses.replace(
        cfg, world=dataclasses.replace(cfg.world, fetch_latency=0.0))
    t0 = time.monotonic()
    o = run_oracle(ocfg)
    seconds = time.monotonic() - t0
    return {
        "order": sorted(_digest(list(t)) for t in o.order),
        "seen": sorted(str(h) for h in o.seen_hashes),
        "documents": {d["url"]: _digest({k: d[k] for k in _DOC_FIELDS})
                      for d in o.documents},
        "chunks": {c["id"]: _digest(c["content"]) for c in o.chunks},
        "harvest": {h["image_id"]: _harvest_row(h) for h in o.harvest},
        "oracle_s": seconds,
    }


def _table_rows(res: crawl.CrawlResult, table: str, columns) -> list[dict]:
    t = res.table(table)
    return t.select(list(columns)).to_pylist() if t.num_rows else []


def _mismatches(got: dict, want: dict) -> int:
    """Rows missing, extra or different between two keyed digest maps."""
    return sum(got.get(k) != v for k, v in want.items()) + sum(
        k not in want for k in got)


def check(res: crawl.CrawlResult, want: dict) -> tuple[int, int]:
    """→ (ops attempted, ops failed) for one pass.

    An operation is one expected page or harvest row. Failures are
    documents and harvest rows missing, extra or different, plus every
    seen-set hash, crawl-order entry and chunk that differs."""
    order = sorted(_digest([r["depth"], r["seed_rank"], r["url"]])
                   for r in _table_rows(res, "frontier",
                                        ("depth", "seed_rank", "url")))
    seen = sorted(str(h) for h in res.metrics["_seen_snapshot"])
    docs = {r["url"]: _digest({k: r[k] for k in _DOC_FIELDS})
            for r in _table_rows(res, "documents", _DOC_FIELDS)}
    chunks = {r["id"]: _digest(r["content"])
              for r in _table_rows(res, "chunks", ("id", "content"))}
    harvest = {r["image_id"]: _harvest_row(r) for r in _table_rows(
        res, "harvest", (*_HARVEST_FIELDS, "bytes"))}
    failed = (_mismatches(docs, want["documents"])
              + _mismatches(harvest, want["harvest"])
              + _mismatches(chunks, want["chunks"])
              + len(set(seen) ^ set(want["seen"]))
              + len(set(order) ^ set(want["order"])))
    return len(want["documents"]) + len(want["harvest"]), failed


class CrawlPass:
    """Result of one timed crawl, with the counters the metrics need."""

    def __init__(self, cfg: CrawlConfig, res: crawl.CrawlResult,
                 seconds: float):
        self.cfg = cfg
        self.res = res
        self.seconds = seconds
        rounds = [res.metrics[f"round_{r}"] for r in res.rounds
                  if f"round_{r}" in res.metrics]
        self.pages = res.metrics["pages_parsed_total"]
        self.frontier_rows = sum(m["n_frontier"] for m in rounds)
        self.harvest_rows = sum(m["harvest_rows"] for m in rounds)
        self.image_frontier = sum(m["image_frontier"] for m in rounds)
        self.seen_rpc_calls = max((m["seen_rpc_calls"] for m in rounds),
                                  default=0)
        self.seen_rpc_rows = max((m["seen_rpc_rows"] for m in rounds),
                                 default=0)


def run_pass(cfg: CrawlConfig, out_dir: str) -> CrawlPass:
    """One full crawl, seeds to the last background sink, timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.monotonic()
    res = crawl.run_crawl(cfg, out_dir)
    return CrawlPass(cfg, res, time.monotonic() - t0)


def budget_util(cfg: CrawlConfig, p: CrawlPass) -> float:
    """Frontier rows fetched per second over the politeness ceiling."""
    return p.frontier_rows / p.seconds / (cfg.world.n_domains
                                         * cfg.default_rate)
