"""End-to-end crawl parity vs the sequential oracle, plus resume.

The north rule's correctness gates (BASELINE.json): under the same seed
list and politeness budget the crawl ordering and URL-seen set must
match the reference exactly; every harvested row must satisfy
decoded-pixel equality (PSNR ≥ 40 dB lossy) and caption byte-equality.
"""

import shutil

import numpy as np
import pytest

from ragnificent_ray.config import CrawlConfig, WorldConfig


def tiny_cfg():
    return CrawlConfig(
        world=WorldConfig(n_domains=2, pages_per_domain=4, images_per_page=1),
        default_rate=1000.0,
        adaptive_throttling=False,
        n_seen_shards=2,
        n_politeness_shards=1,
        fetch_concurrency=2,
        max_depth=2,
    )


@pytest.fixture(scope="module")
def crawl_and_oracle(ray_session, tmp_path_factory):
    from ragnificent_ray.oracle.reference import run_oracle
    from ragnificent_ray.pipelines.crawl import run_crawl

    out = str(tmp_path_factory.mktemp("crawl"))
    cfg = tiny_cfg()
    res = run_crawl(cfg, out)
    oracle = run_oracle(cfg)
    return cfg, res, oracle


def test_url_seen_set_matches_oracle(crawl_and_oracle):
    _, res, oracle = crawl_and_oracle
    assert set(res.metrics["_seen_snapshot"]) == oracle.seen_hashes


def test_crawl_ordering_matches_oracle(crawl_and_oracle):
    _, res, oracle = crawl_and_oracle
    ft = res.table("frontier")
    engine_order = sorted(zip(
        ft.column("depth").to_pylist(),
        ft.column("seed_rank").to_pylist(),
        ft.column("url").to_pylist(),
    ))
    assert engine_order == sorted(oracle.order)


def test_harvest_rows_match_oracle_bytes_captions_phash(crawl_and_oracle):
    from ragnificent_ray.functions.imaging import decode_image, psnr
    from ragnificent_ray.sources.synth_web import SynthWorld

    cfg, res, oracle = crawl_and_oracle
    ht = res.table("harvest")
    eng = sorted(ht.to_pylist(), key=lambda r: r["image_id"])
    ora = sorted(oracle.harvest, key=lambda r: r["image_id"])
    assert [r["image_id"] for r in eng] == [r["image_id"] for r in ora]
    world = SynthWorld(n_domains=cfg.world.n_domains,
                       pages_per_domain=cfg.world.pages_per_domain,
                       images_per_page=cfg.world.images_per_page)
    for e, o in zip(eng, ora):
        assert e["caption"] == o["caption"]  # byte equality
        assert e["phash"] == o["phash"]
        assert (e["w"], e["h"]) == (o["w"], o["h"])
        truth = world.image_pixels(e["image_id"])
        decoded = decode_image(e["bytes"], e["fmt"])
        if e["fmt"] == "png":
            assert np.array_equal(decoded, truth)
        else:
            assert psnr(truth, decoded) >= 40.0


def test_chunks_match_oracle_ids_and_content(crawl_and_oracle):
    _, res, oracle = crawl_and_oracle
    ct = res.table("chunks")
    eng = {r["id"]: r["content"] for r in ct.to_pylist()}
    ora = {c["id"]: c["content"] for c in oracle.chunks}
    assert eng == ora


def test_domain_stats_written(crawl_and_oracle):
    import os

    import pyarrow.parquet as pq

    _, res, _ = crawl_and_oracle
    p = os.path.join(res.out_dir, "domain_stats.parquet")
    t = pq.read_table(p)
    stats = {r["domain"]: r for r in t.to_pylist()}
    assert "site0.test" in stats and "site1.test" in stats
    assert all(r["success_count"] > 0 for r in stats.values())


def test_resume_skips_completed_rounds_and_redoes_missing(
    ray_session, tmp_path_factory, crawl_and_oracle
):
    import os

    from ragnificent_ray.pipelines.crawl import run_crawl
    from ragnificent_ray.state.checkpoint import CheckpointManager

    cfg, full_res, oracle = crawl_and_oracle
    out = str(tmp_path_factory.mktemp("resume"))
    res1 = run_crawl(cfg, out)
    # simulate a crash after round 0: drop round 1+ from the manifest and
    # delete their outputs, keeping round 1's frontier (written by round 0)
    ckpt = CheckpointManager(out)
    m = ckpt.load_manifest()
    m["completed_rounds"] = [e for e in m["completed_rounds"] if e["round"] == 0]
    ckpt._write_manifest(m)
    for r in res1.rounds:
        if r == 0:
            continue
        rdir = ckpt.round_dir(r)
        for sub in ("documents", "rendered", "chunks", "harvest",
                    "image_frontier"):
            shutil.rmtree(os.path.join(rdir, sub), ignore_errors=True)

    res2 = run_crawl(cfg, out, resume=True)
    assert set(res2.rounds) == set(res1.rounds)
    # no double-fetch of round 0: resumed seen set still matches oracle
    assert set(res2.metrics["_seen_snapshot"]) == oracle.seen_hashes
    # outputs reconstructed identically
    ct1 = sorted(full_res.table("chunks").column("id").to_pylist())
    ct2 = sorted(res2.table("chunks").column("id").to_pylist())
    assert ct1 == ct2
    h1 = sorted(full_res.table("harvest").column("image_id").to_pylist())
    h2 = sorted(res2.table("harvest").column("image_id").to_pylist())
    assert h1 == h2


def test_resume_replays_interrupted_background_lane_idempotently(
    ray_session, tmp_path_factory, crawl_and_oracle
):
    """The kill-mid-lane crash window: a round's critical path
    (fetch/claims/next frontier) finished, but its BACKGROUND lanes
    (render/chunks/harvest) were caught mid-flight — some
    content-addressed block files flushed, one write torn as a stale
    ``.tmp``, and the round never reached the manifest. Resume must
    replay the round's lanes over the stale partial files without
    duplicating or losing a row (it clears the pending round's lane
    dirs before replaying; content-addressed filenames additionally
    make intra-run task retries overwrite their own blocks)."""
    import os

    from ragnificent_ray.pipelines.crawl import run_crawl
    from ragnificent_ray.state.checkpoint import CheckpointManager

    cfg, full_res, oracle = crawl_and_oracle
    out = str(tmp_path_factory.mktemp("resume_lane"))
    res1 = run_crawl(cfg, out)
    target = max(res1.rounds)
    ckpt = CheckpointManager(out)
    m = ckpt.load_manifest()
    m["completed_rounds"] = [e for e in m["completed_rounds"]
                             if e["round"] < target]
    ckpt._write_manifest(m)
    rdir = ckpt.round_dir(target)
    dropped = kept = 0
    for li, lane in enumerate(("rendered", "chunks", "harvest")):
        d = os.path.join(rdir, lane)
        if not os.path.isdir(d):
            continue
        parts = sorted(n for n in os.listdir(d) if n.endswith(".parquet"))
        # lanes flush independently: keep the first block of every
        # other lane, drop the rest — the kill caught the lanes at
        # different progress points
        doomed = parts[1:] if li % 2 == 0 else parts
        for n in doomed:
            os.remove(os.path.join(d, n))
            dropped += 1
        kept += len(parts) - len(doomed)
        if parts:
            # and one write torn mid-rename by the kill
            with open(os.path.join(d, ".part-deadbeef.tmp"), "wb") as f:
                f.write(b"torn write")
    assert dropped > 0 and kept > 0  # genuinely partial state

    res2 = run_crawl(cfg, out, resume=True)
    assert set(res2.rounds) == set(res1.rounds)
    assert set(res2.metrics["_seen_snapshot"]) == oracle.seen_hashes

    def rows(res, tbl):
        # created_at is wall-clock (reference parity is field-presence,
        # not value); everything else must replay byte-identically
        out = [{k: v for k, v in r.items() if k != "created_at"}
               for r in res.table(tbl).to_pylist()]
        return sorted(out, key=lambda r: repr(sorted(r.items())))

    for tbl in ("chunks", "harvest"):
        assert rows(full_res, tbl) == rows(res2, tbl), \
            f"{tbl} diverged after lane-interrupt resume"


def test_parity_holds_on_medium_world(ray_session, tmp_path):
    """Ordering + seen-set + harvest parity on a world large enough to
    exercise multi-block fan-out and pipelined rounds (8 domains × 20
    pages × 2 images, depth 2)."""
    from ragnificent_ray.oracle.reference import run_oracle
    from ragnificent_ray.pipelines.crawl import run_crawl

    cfg = CrawlConfig(
        world=WorldConfig(n_domains=8, pages_per_domain=20,
                          images_per_page=2),
        default_rate=100000.0, adaptive_throttling=False, retry_delay=0.05,
        n_seen_shards=4, n_politeness_shards=2, max_depth=2,
    )
    res = run_crawl(cfg, str(tmp_path / "medium"))
    oracle = run_oracle(cfg)

    assert set(res.metrics["_seen_snapshot"]) == oracle.seen_hashes
    ft = res.table("frontier")
    engine_order = sorted(zip(ft.column("depth").to_pylist(),
                              ft.column("seed_rank").to_pylist(),
                              ft.column("url").to_pylist()))
    assert engine_order == sorted(oracle.order)
    assert res.table("harvest").num_rows == len(oracle.harvest)


def test_frontier_from_refs_falls_back_without_private_api(ray_session):
    """The fabricated-metadata fast path leans on ray.data._internal
    (pinned at Ray 2.49); when those modules vanish on an upgrade the
    helper must degrade to public from_arrow_refs, not crash."""
    import sys
    from unittest import mock

    import pyarrow as pa
    import ray

    from ragnificent_ray.pipelines.crawl import _frontier_from_refs
    from ragnificent_ray.schema import FRONTIER

    t = pa.table({f.name: pa.nulls(2, type=f.type) for f in FRONTIER})
    blocks = [(2, t.nbytes, ray.put(t))]

    # fast path works
    assert _frontier_from_refs(blocks).count() == 2

    # private API absent -> ImportError inside the try -> public fallback
    with mock.patch.dict(sys.modules,
                         {"ray.data._internal.plan": None}):
        ds = _frontier_from_refs([(2, t.nbytes, ray.put(t))])
        assert ds.count() == 2


def test_table_accessor_guard_routes_big_results_to_dataset(
    crawl_and_oracle, monkeypatch
):
    """CrawlResult.table() is the test/small-scale accessor; past the
    byte guard it must refuse and point at dataset() (VERDICT r2 #7)."""
    from ragnificent_ray.pipelines.crawl import CrawlResult

    _, res, _ = crawl_and_oracle
    monkeypatch.setattr(CrawlResult, "TABLE_MAX_BYTES", 1)
    with pytest.raises(ValueError, match="dataset\\(\\)"):
        res.table("harvest")
    # the lazy accessor still streams the same rows
    assert res.dataset("harvest").count() > 0


def test_crawl_executions_are_map_chains_over_cut_frontier_blocks(
    ray_session, tmp_path, monkeypatch
):
    """A round runs ONE Ray Data execution, its critical path, and its
    background lanes as plain tasks, whether round 0's frontier comes
    from seed discovery or from a links file. No crawl execution holds
    an all-to-all operator (no repartition barrier before the fetch),
    every frontier block the fetch reads holds at most
    ``fetch_batch_size`` rows — round 0's 40-row seeds included, since
    on 4 CPUs no seed's or shard's share of the ``BLOCKS_PER_CPU × CPUs``
    blocks reaches one batch — every execution runs with the crawl's
    block-size bound, no harvest task gets more than ``fetch_batch_size``
    image rows, and each round commits its harvest parts once."""
    import os
    import uuid

    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll,
    )
    from ray.data._internal.plan import ExecutionPlan

    from ragnificent_ray.oracle.reference import run_oracle
    from ragnificent_ray.pipelines import crawl
    from ragnificent_ray.stages.claims import AttachClaims

    def ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from ops(dep)

    # the recorders write into the current run's record
    run = {}

    # every execution, materialized or streamed, starts one executor
    real_create = ExecutionPlan.create_executor

    def recording_create(self, *args, **kwargs):
        run["executions"].append((list(ops(self._logical_plan.dag)),
                                  self._context.target_max_block_size))
        return real_create(self, *args, **kwargs)

    # the harvest tasks run in workers: each leaves its row count in a file
    real_decode = crawl.harvest_decode_batch

    def recording_decode(batch, decoded=tmp_path / "decoded"):
        (decoded / uuid.uuid4().hex).write_text(str(batch.num_rows))
        return real_decode(batch)

    real_commit = crawl.commit_harvest

    def recording_commit(uri, parts, schema):
        run["commits"].append((uri, len(parts)))
        return real_commit(uri, parts, schema)

    batch = 16
    base = dict(
        world=WorldConfig(n_domains=2, pages_per_domain=40, images_per_page=1),
        default_rate=1e5, adaptive_throttling=False, retry_delay=0.05,
        fetch_batch_size=batch, n_seen_shards=4, n_politeness_shards=2,
        max_depth=1)
    # a links file of every sitemap page: round 1 follows their links to
    # the deep pages
    links = tmp_path / "links.txt"
    links.write_text("".join(f"https://site{d}.test/page/{i}\n"
                             for d in range(2) for i in range(40)))
    results = {}
    for name, cfg in (("seeds", CrawlConfig(**base)),
                      ("links", CrawlConfig(**base,
                                            links_file=str(links)))):
        decoded = tmp_path / "decoded"
        shutil.rmtree(decoded, ignore_errors=True)
        decoded.mkdir()
        run.update(executions=[], commits=[])
        monkeypatch.setattr(ExecutionPlan, "create_executor",
                            recording_create)
        monkeypatch.setattr(crawl, "harvest_decode_batch", recording_decode)
        monkeypatch.setattr(crawl, "commit_harvest", recording_commit)
        res = results[name] = crawl.run_crawl(cfg, str(tmp_path / name))
        monkeypatch.undo()

        rounds = [res.metrics[f"round_{r}"] for r in sorted(res.rounds)]
        executions = run["executions"]
        n_frontier = [m["n_frontier"] for m in rounds if m["n_frontier"]]
        assert len(executions) == len(n_frontier) == 2, name
        for plan_ops, bound in executions:
            assert not [op for op in plan_ops
                        if isinstance(op, AbstractAllToAll)]
            assert bound == batch * crawl.ROW_BYTES_BOUND

        fetch_inputs = [
            [m.num_rows for bundle in plan_ops[-1].input_data
             for m in bundle.metadata]
            for plan_ops, _ in executions
            if any(isinstance(getattr(op, "_fn", None), AttachClaims)
                   for op in plan_ops)]
        assert all(n > 2 * batch for n in n_frontier), name
        assert len(fetch_inputs) == 2
        for rows, n in zip(fetch_inputs, n_frontier):
            assert max(rows) <= batch
            assert sum(rows) == n

        harvest_inputs = [int(f.read_text()) for f in decoded.iterdir()]
        n_images = sum(m["image_frontier"] for m in rounds)
        assert n_images > 2 * batch
        assert sum(harvest_inputs) == n_images
        assert max(harvest_inputs) <= batch
        # one commit per round, of one part per harvest task
        assert sorted(uri for uri, _ in run["commits"]) == [
            os.path.join(res.out_dir, "rounds", f"round={r:04d}", "harvest")
            for r in (0, 1)]
        assert sum(n for _, n in run["commits"]) == len(harvest_inputs)

    # the links-file crawl's first round is exactly that file's pages
    ft = results["links"].table("frontier")
    assert sorted(u for u, d in zip(ft.column("url").to_pylist(),
                                    ft.column("depth").to_pylist())
                  if d == 0) == sorted(links.read_text().split())

    oracle = run_oracle(CrawlConfig(**base))
    ft = results["seeds"].table("frontier")
    assert sorted(zip(ft.column("depth").to_pylist(),
                      ft.column("seed_rank").to_pylist(),
                      ft.column("url").to_pylist())) == sorted(oracle.order)


def test_failed_harvest_task_fails_the_crawl(ray_session, tmp_path,
                                             monkeypatch):
    """The harvest lane runs the ``harvest_decode_batch`` of the
    ``pipelines.crawl`` namespace (the seam traced stand-ins use), and a
    lane task that raises fails the crawl loudly: ``run_crawl`` raises,
    the round never reaches the manifest, and the crawl's shard hosts
    are killed, not returned to the idle pool."""
    import ray

    from ragnificent_ray.pipelines import crawl
    from ragnificent_ray.state import hosts as shard_hosts
    from ragnificent_ray.state.checkpoint import CheckpointManager

    leased = []
    real_lease = shard_hosts.lease

    def spy(*args, **kwargs):
        lease = real_lease(*args, **kwargs)
        leased.append(list(lease.hosts))
        return lease

    def broken_decode(batch):
        raise ValueError("decode stand-in failed")

    monkeypatch.setattr(shard_hosts, "lease", spy)
    monkeypatch.setattr(crawl, "harvest_decode_batch", broken_decode)
    out = str(tmp_path / "broken")
    with pytest.raises(ValueError, match="decode stand-in failed"):
        crawl.run_crawl(tiny_cfg(), out)
    monkeypatch.undo()

    assert CheckpointManager(out).completed_rounds() == []
    [hosts] = leased
    with shard_hosts._LOCK:
        idle = [h for entry in shard_hosts._IDLE.values() for h in entry[0]]
    assert not set(hosts) & set(idle)
    for h in hosts:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(h.pid.remote(), timeout=30)
