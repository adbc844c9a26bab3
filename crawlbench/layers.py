"""Per-layer metrics of a traced pass, computed from its spans.

``busy`` follows DS2's true processing rate: a stage's self time (its
span minus the part its child spans cover, i.e. the seen and politeness
RPCs it waited on) minus the politeness slot delay it slept through.
Every metric below is printed for every workload; one a workload does
not exercise reads 0 (README.md lists which should move where).
"""

from __future__ import annotations

from crawlbench import spans as _spans

# name → (unit, better)
CRAWL = {
    "pipelines.crawl.critical_s": ("s", "lower"),
    "pipelines.crawl.bg_tail_s": ("s", "lower"),
    "sources.sitemap.discover_busy_s": ("s", "lower"),
    "stages.fetch.page_busy_s": ("s", "lower"),
    "stages.fetch.page_rows": ("count", "higher"),
    "stages.fetch.image_busy_s": ("s", "lower"),
    "stages.fetch.image_rows": ("count", "higher"),
    "stages.fetch.non200": ("count", "lower"),
    "state.politeness.reserve_calls": ("count", "lower"),
    "state.politeness.reserve_s": ("s", "lower"),
    "state.politeness.slot_wait_s": ("s", "lower"),
    "stages.extract.parse_busy_s": ("s", "lower"),
    "stages.extract.parse_ms_per_page": ("ms", "lower"),
    "stages.extract.render_busy_s": ("s", "lower"),
    "stages.chunk.busy_s": ("s", "lower"),
    "stages.chunk.chunks": ("count", "higher"),
    "stages.claims.busy_s": ("s", "lower"),
    "stages.claims.images_claimed_frac": ("ratio", "higher"),
    "state.seen.resolve_s": ("s", "lower"),
    "state.seen.rpc_calls": ("count", "lower"),
    "state.seen.rpc_rows": ("count", "lower"),
    "state.seen.new_frac": ("ratio", "higher"),
    "stages.extract.harvest_decode_busy_s": ("s", "lower"),
    "stages.extract.harvest_ms_per_image": ("ms", "lower"),
    "io.lance.write_harvest_s": ("s", "lower"),
    "io.lance.rows_per_image_frontier": ("ratio", "higher"),
}
# the spans whose end marks the end of a round's critical path
_CRITICAL = ("sources.sitemap.discover", "stages.fetch.page",
             "stages.extract.parse", "stages.claims", "state.seen.resolve")


def query_metric(module: str, query: str) -> str:
    return f"pipelines.{module}.{query}_s"


def query_names() -> dict[str, tuple[str, str]]:
    from crawlbench import queries

    return {query_metric(queries.module_of(q), q): ("s", "lower")
            for q in queries.MIX}


def all_layers() -> dict[str, tuple[str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return {**CRAWL, **query_names(),
            "oracle.single_process_s": ("s", "lower"),
            "trace.overhead_frac": ("ratio", "lower")}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def crawl_layers(p, spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced crawl pass ``p`` (a CrawlPass)."""
    self_t = _spans.self_times(spans)
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def busy(name):
        return sum(max(0.0, self_t[s["id"]] - s["wait"])
                   for s in by.get(name, ()))

    def total(name):
        return sum(s["end"] - s["start"] for s in by.get(name, ()))

    def rows(name):
        return sum(s["rows"] for s in by.get(name, ()))

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in by.get(name, ()))

    root = by["pipelines.crawl.run"][0]
    crit_end = max((s["end"] for n in _CRITICAL for s in by.get(n, ())),
                   default=root["start"])
    reserve = by.get("state.politeness.reserve", [])
    return {
        "pipelines.crawl.critical_s": crit_end - root["start"],
        "pipelines.crawl.bg_tail_s": root["end"] - crit_end,
        "sources.sitemap.discover_busy_s": busy("sources.sitemap.discover"),
        "stages.fetch.page_busy_s": busy("stages.fetch.page"),
        "stages.fetch.page_rows": rows("stages.fetch.page"),
        "stages.fetch.image_busy_s": busy("stages.fetch.image"),
        "stages.fetch.image_rows": rows("stages.fetch.image"),
        "stages.fetch.non200": (count("stages.fetch.page", "non200")
                                + count("stages.fetch.image", "non200")),
        "state.politeness.reserve_calls": len(reserve),
        "state.politeness.reserve_s": total("state.politeness.reserve"),
        "state.politeness.slot_wait_s": sum(s["wait"] for s in reserve),
        "stages.extract.parse_busy_s": busy("stages.extract.parse"),
        "stages.extract.parse_ms_per_page": 1000.0 * _ratio(
            busy("stages.extract.parse"), rows("stages.extract.parse")),
        "stages.extract.render_busy_s": busy("stages.extract.render"),
        "stages.chunk.busy_s": busy("stages.chunk"),
        "stages.chunk.chunks": rows("stages.chunk"),
        "stages.claims.busy_s": busy("stages.claims"),
        "stages.claims.images_claimed_frac": _ratio(
            count("stages.claims", "claimed"),
            count("stages.claims", "candidates")),
        "state.seen.resolve_s": total("state.seen.resolve"),
        "state.seen.rpc_calls": p.seen_rpc_calls,
        "state.seen.rpc_rows": p.seen_rpc_rows,
        "state.seen.new_frac": _ratio(rows("state.seen.resolve"),
                                      rows("state.seen.propose")),
        "stages.extract.harvest_decode_busy_s": busy(
            "stages.extract.harvest_decode"),
        "stages.extract.harvest_ms_per_image": 1000.0 * _ratio(
            busy("stages.extract.harvest_decode"),
            rows("stages.extract.harvest_decode")),
        "io.lance.write_harvest_s": total("io.lance.write_harvest"),
        "io.lance.rows_per_image_frontier": _ratio(p.harvest_rows,
                                                   p.image_frontier),
    }


def query_layers(p) -> dict[str, float]:
    """Per-query wall seconds of one traced pass ``p`` (a QueryPass)."""
    from crawlbench import queries

    return {query_metric(queries.module_of(q), q): secs
            for q, secs in p.seconds_by_query.items()}
