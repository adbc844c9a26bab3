"""Self-test of the benchmark: every workload once at a tiny size, the
traced run's per-layer metrics, and the correctness checks themselves.

    python3 -m pytest crawlbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, "crawlbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = result["metrics"]
    assert set(got) == {m["name"] for m in specs}
    for m in specs:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", ["crawl_harvest", "crawl_polite",
                                      "query_mix"])
def test_workload_prints_every_end_to_end_metric(workload):
    detail, result = _run(workload, trace=0)
    _assert_metrics(result, _spec()["end_to_end"])
    assert all(result["metrics"][m]["value"] > 0
               for m in ("setup_s", "pass_s", "peak_rss_mb"))
    assert detail["ops_failed"] == 0 and detail["ops_attempted"] >= 1
    named = ("query_pass_s",) if workload == "query_mix" else (
        "crawl_s", "pages_per_s")
    for name in named + (("budget_util",) if workload == "crawl_polite"
                         else ()):
        assert detail[name]["median"] > 0 and detail[name]["n"] >= 1


def test_traced_run_prints_every_per_layer_metric():
    _, result = _run("crawl_harvest", trace=1)
    _assert_metrics(result, _spec()["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("stages.fetch.page_rows", "stages.extract.parse_busy_s",
                 "stages.extract.harvest_decode_busy_s",
                 "state.seen.resolve_s", "pipelines.crawl.critical_s",
                 "oracle.single_process_s"):
        assert m[name] > 0, name
    assert m["pipelines.dedup.minhash_lsh_pairs_s"] == 0
    trace_dir = os.path.join(ROOT, ".bench_out", "trace-crawl_harvest-seed7")
    assert os.path.exists(os.path.join(trace_dir, "summary.json"))


def test_benchmark_json_lists_the_layers_the_run_reports():
    sys.path.insert(0, ROOT)
    from crawlbench import layers

    spec = [(m["name"], m["unit"], m["better"])
            for m in _spec()["per_layer"]]
    assert spec == [(k, u, b) for k, (u, b) in layers.all_layers().items()]


class _FakeCrawl:
    """A CrawlResult stand-in serving the oracle's own rows."""

    def __init__(self, oracle):
        import pyarrow as pa

        self._tables = {
            "frontier": pa.Table.from_pylist(
                [{"depth": d, "seed_rank": r, "url": u}
                 for d, r, u in oracle.order]),
            "documents": pa.Table.from_pylist(oracle.documents),
            "chunks": pa.Table.from_pylist(oracle.chunks),
            "harvest": pa.Table.from_pylist(oracle.harvest),
        }
        self.metrics = {"_seen_snapshot": sorted(oracle.seen_hashes)}

    def table(self, name):
        return self._tables[name]


def test_corrupted_crawl_result_counts_in_ops_failed():
    import pyarrow as pa

    sys.path.insert(0, ROOT)
    from crawlbench import crawls
    from ragnificent_ray.oracle.reference import run_oracle

    cfg = crawls.config("crawl_harvest", 7, "tiny")
    want = crawls.expected(cfg)
    fake = _FakeCrawl(run_oracle(cfg))
    attempted, failed = crawls.check(fake, want)
    assert attempted == len(want["documents"]) + len(want["harvest"])
    assert failed == 0

    docs = fake._tables["documents"]
    titles = docs.column("title").to_pylist()
    titles[0] = titles[0] + " (corrupted)"
    fake._tables["documents"] = docs.set_column(
        docs.column_names.index("title"), "title", pa.array(titles))
    fake.metrics["_seen_snapshot"] = fake.metrics["_seen_snapshot"][1:]
    assert crawls.check(fake, want) == (attempted, 2)


def test_corrupted_query_result_counts_in_ops_failed():
    import pandas as pd

    sys.path.insert(0, ROOT)
    from crawlbench import queries

    want = {"a": queries.normalize(pd.DataFrame({"k": [1, 2],
                                                 "v": [0.5, 1.5]}))}
    good = pd.DataFrame({"v": [1.5, 0.5], "k": [2, 1]})  # row/column order
    assert queries.check(queries.QueryPass(1.0, {"a": (1.0, good)}),
                         want) == (1, 0)
    for bad in (pd.DataFrame({"k": [1, 2], "v": [0.5, 1.6]}),  # value
                pd.DataFrame({"k": [1.0, 2.0], "v": [0.5, 1.5]}),  # dtype
                good.iloc[:1]):  # a row short
        assert queries.check(queries.QueryPass(1.0, {"a": (1.0, bad)}),
                             want) == (1, 1)
