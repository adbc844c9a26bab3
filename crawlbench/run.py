"""Run one benchmark workload and print its metrics.

    python3 crawlbench/run.py --workload crawl_harvest --seed 1 \\
        --seconds 20 --trace 0

Workloads (README.md says why each was chosen): ``crawl_harvest`` and
``query_mix``, which BENCHMARK.json lists, and ``crawl_polite``. Each is
a closed loop: one caller starts the next pass only after the previous
one finished, until the passes add up to ``--seconds`` and there are at
least ``MIN_PASSES`` of them. Every pass is checked against the repo's
oracles outside the timed window.

The last stdout line is the result: end-to-end metrics with
``--trace 0``; with ``--trace 1``, per-layer metrics from a run that
alternates traced and untraced passes, whose spans are written to
``.bench_out/trace-<workload>-seed<seed>/``. The line before it is the
fuller report: each timing's median, its highest percentile with at
least ten samples beyond it, and the sample count.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# import this directory as the package ``crawlbench`` (workers unpickle
# the span stand-ins by that name), not as loose top-level modules
sys.path[0] = ROOT

WORKLOADS = ("crawl_harvest", "crawl_polite", "query_mix")
# no pass starts after this much wall time, so a run ends within 180 s
# even on a slow host
WALL_LIMIT_S = 110.0
# a run times at least this many passes, so its median survives one
# stalled pass
MIN_PASSES = 3


def summarize(values: list[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 that has at least ten
    samples beyond it (none below 100 samples), and the sample count."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[round(p * 10) - 1]
            break
    return out


def _cache_path(key: str) -> str:
    """Where the oracle's answer for ``key`` is cached: ``.bench_cache/``,
    under a fingerprint of ``key`` and of the package's and this
    benchmark's code. The oracles cost seconds per seed."""
    h = hashlib.blake2b(key.encode(), digest_size=10)
    for top in ("ragnificent_ray", "crawlbench"):
        files = sorted(os.path.join(d, f)
                       for d, _, fs in os.walk(os.path.join(ROOT, top))
                       for f in fs if f.endswith(".py"))
        for path in files:
            with open(path, "rb") as f:
                h.update(f.read())
    return os.path.join(ROOT, ".bench_cache", h.hexdigest())


class CrawlWorkload:
    """A crawl workload. Its warm-up crawls the same config at the
    self-test size: every stage, shard actor and worker import is warmed
    at a fraction of a full pass's cost."""

    def __init__(self, name: str, seed: int, size: str, work: str):
        from crawlbench import crawls

        self.crawls = crawls
        self.cfg = crawls.config(name, seed, size)
        self.warm_cfg = crawls.config(name, seed, "tiny")
        self.polite = name == "crawl_polite"
        self.out_dir = os.path.join(work, "crawl")
        self.want: dict[str, dict] = {}  # by repr(config)
        self.oracle_s = 0.0

    def warmup(self):
        return self.crawls.run_pass(self.warm_cfg, self.out_dir)

    def one_pass(self, ctx=None):
        from crawlbench import spans

        if ctx is None:
            return self.crawls.run_pass(self.cfg, self.out_dir)
        with spans.installed(ctx), ctx.root_span("pipelines.crawl.run"):
            return self.crawls.run_pass(self.cfg, self.out_dir)

    def expected(self) -> None:
        for cfg in (self.warm_cfg, self.cfg):
            key = repr(cfg)
            path = _cache_path(key) + ".json"
            if os.path.exists(path):
                with open(path) as f:
                    self.want[key] = json.load(f)
                continue
            self.want[key] = self.crawls.expected(cfg)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as f:
                json.dump(self.want[key], f)
            os.replace(tmp, path)
        self.oracle_s = self.want[repr(self.cfg)]["oracle_s"]

    def check(self, p) -> tuple[int, int]:
        try:
            return self.crawls.check(p.res, self.want[repr(p.cfg)])
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def report(self, passes) -> dict:
        out = {"crawl_s": summarize([p.seconds for p in passes]),
               "pages_per_s": summarize([p.pages / p.seconds
                                         for p in passes]),
               "pages": passes[0].pages,
               "harvest_rows": passes[0].harvest_rows,
               "oracle_s": self.oracle_s}
        if self.polite:
            out["budget_util"] = summarize(
                [self.crawls.budget_util(self.cfg, p) for p in passes])
        return out

    def layers(self, p, spans_of_pass: list[dict]) -> dict:
        from crawlbench import layers

        return layers.crawl_layers(p, spans_of_pass)


class QueryWorkload:
    """The query mix. Its warm-up is one pass over the mix."""

    def __init__(self, name: str, seed: int, size: str, work: str):
        from crawlbench import queries, tables

        self.queries = queries
        self.sf_dir = os.path.join(work, "tables")
        made = tables.make_tables(seed, size)
        tables.write_tables(made, self.sf_dir)
        self.tables = list(made)
        self.key = f"{size}-{seed}"
        self.want: dict = {}
        self.oracle_s = 0.0
        # dedup's checkpoints go under the work dir, not the system tmp
        os.environ["RAGNIFICENT_CKPT_DIR"] = os.path.join(work, "ckpt")
        os.makedirs(os.environ["RAGNIFICENT_CKPT_DIR"], exist_ok=True)

    def warmup(self):
        return self.one_pass()

    def one_pass(self, ctx=None):
        if ctx is None:
            return self.queries.run_pass(self.queries.MIX, self.sf_dir)
        with ctx.root_span("pipelines.query_mix.pass"):
            return self.queries.run_pass(self.queries.MIX, self.sf_dir, ctx)

    def expected(self) -> None:
        import pandas as pd

        path = _cache_path(f"query_mix-{self.key}")
        if os.path.isdir(path):
            self.want = {q: pd.read_parquet(os.path.join(path, f"{q}.pq"))
                         for q in self.queries.MIX}
            return
        self.want = self.queries.expected(self.sf_dir, self.tables)
        tmp = f"{path}.{os.getpid()}.tmp"
        os.makedirs(tmp)
        for q, frame in self.want.items():
            frame.to_parquet(os.path.join(tmp, f"{q}.pq"))
        try:
            os.rename(tmp, path)
        except OSError:  # another run cached it first
            shutil.rmtree(tmp, ignore_errors=True)

    def check(self, p) -> tuple[int, int]:
        return self.queries.check(p, self.want)

    def report(self, passes) -> dict:
        return {"query_pass_s": summarize([p.seconds for p in passes]),
                "query_s": {q: statistics.median(
                    p.seconds_by_query[q] for p in passes)
                    for q in self.queries.MIX}}

    def layers(self, p, spans_of_pass: list[dict]) -> dict:
        from crawlbench import layers

        return layers.query_layers(p)


def run(args, work: str, trace_dir: str | None) -> tuple[dict, dict]:
    """Set up, warm up, check and measure; Ray is down when this returns."""
    from crawlbench import session, spans  # spans imports the package

    cpus = session.usable_cpus()
    with session.RaySession(ROOT, work, cpus):
        cls = QueryWorkload if args.workload == "query_mix" else CrawlWorkload
        t_inputs = time.monotonic()
        wl = cls(args.workload, args.seed, args.size, work)
        t_warm = time.monotonic()
        warm = wl.warmup()
        # Ray start, imports and one warm-up pass; making the inputs is
        # not set-up of the program under test
        setup_s = time.monotonic() - T_START - (t_warm - t_inputs)
        wl.expected()
        attempted, failed = wl.check(warm)

        passes: list[tuple[bool, object]] = []  # (traced, pass)
        sampler = session.RssSampler()
        with sampler:
            measured = 0.0
            while measured < args.seconds or len(passes) < MIN_PASSES:
                if passes and time.monotonic() - T_START > WALL_LIMIT_S:
                    break
                ctx = (spans.Context(trace_dir, len(passes))
                       if trace_dir and len(passes) % 2 == 0 else None)
                p = wl.one_pass(ctx)
                measured += p.seconds
                a, f = wl.check(p)
                attempted, failed = attempted + a, failed + f
                passes.append((ctx is not None, p))

    plain = [p for t, p in passes if not t] or [p for _, p in passes]
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "num_cpus": cpus, "setup_s": setup_s,
              "peak_rss_mb": sampler.peak_mb, **wl.report(plain),
              "pass_samples_s": [p.seconds for p in plain],
              "ops_attempted": attempted, "ops_failed": failed}
    if trace_dir:
        metrics = traced_metrics(wl, passes, trace_dir)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(p.seconds for p in plain),
                       "unit": "s"},
            "peak_rss_mb": {"value": sampler.peak_mb, "unit": "MiB"},
        }
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def traced_metrics(wl, passes, trace_dir: str) -> dict:
    """Median over traced passes of every per-layer metric (0 where the
    workload does not exercise the layer), written with a span summary."""
    from crawlbench import layers, spans

    recorded = spans.load(trace_dir)
    values: dict[str, list[float]] = {}
    for k, (traced, p) in enumerate(passes):
        if traced:
            got = wl.layers(p, [s for s in recorded if s["pass"] == k])
            for name, v in got.items():
                values.setdefault(name, []).append(v)
    traced_s = [p.seconds for t, p in passes if t]
    plain_s = [p.seconds for t, p in passes if not t]
    values["oracle.single_process_s"] = [wl.oracle_s]
    values["trace.overhead_frac"] = [
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        if plain_s else 0.0]
    spec = layers.all_layers()
    metrics = {name: {"value": statistics.median(values.get(name, [0.0])),
                      "unit": unit} for name, (unit, _) in spec.items()}
    with open(os.path.join(trace_dir, "summary.json"), "w") as f:
        json.dump({"layers": {k: v["value"] for k, v in metrics.items()},
                   "spans": span_summary(recorded)}, f, indent=1)
    return metrics


def span_summary(recorded: list[dict]) -> dict:
    """Per span name: count, total and self seconds, rows, wait, and the
    duration percentiles of ``summarize``."""
    from crawlbench import spans

    self_t = spans.self_times(recorded)
    out: dict[str, dict] = {}
    for s in recorded:
        e = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                       "self_s": 0.0, "rows": 0,
                                       "wait_s": 0.0, "durations": []})
        e["count"] += 1
        e["total_s"] += s["end"] - s["start"]
        e["self_s"] += self_t[s["id"]]
        e["rows"] += s["rows"]
        e["wait_s"] += s["wait"]
        e["durations"].append(s["end"] - s["start"])
    for e in out.values():
        e["duration_s"] = summarize(e.pop("durations"))
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's size, not for measuring")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still shuts Ray down and reaps its processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # short: Ray's socket paths under it must fit in 107 bytes
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_out",
                                 f"trace-{args.workload}-seed{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    os.makedirs(work)
    try:
        detail, result = run(args, work, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
