"""Shard hosts: co-hosted seen/politeness shards, leased per Ray session.

A crawl's hosts go back to the session's idle pool when it returns
normally and are killed when it raises; a re-leased host must behave
exactly like a new one, so a crawl on warm hosts is compared with a
crawl on fresh ones and with the sequential oracle. With more shards
than CPUs (the 4-CPU session fixture) a host holds several shards of a
part, and the crawl must not notice.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
import ray

from ragnificent_ray.config import CrawlConfig, WorldConfig
from ragnificent_ray.pipelines import crawl
from ragnificent_ray.state import hosts as shard_hosts
from ragnificent_ray.state.politeness import PolitenessService
from ragnificent_ray.state.seen import SeenSet

# 3 hosts: a shape no other test crawls with, so the pool slot is ours
N_SEEN, N_POLITE = 3, 2


def _cfg(world=None, n_seen=N_SEEN, n_polite=N_POLITE):
    return CrawlConfig(
        world=world or WorldConfig(
            n_domains=2, pages_per_domain=4, images_per_page=1),
        default_rate=1000.0, adaptive_throttling=False, retry_delay=0.05,
        n_seen_shards=n_seen, n_politeness_shards=n_polite, max_depth=2)


def _key(n_shards=max(N_SEEN, N_POLITE)):
    return (shard_hosts._session(), shard_hosts.host_count(n_shards), False)


def _idle_hosts(key=None) -> list:
    with shard_hosts._LOCK:
        entry = shard_hosts._IDLE.get(key or _key())
    return entry[0] if entry else []


def _pids(hosts) -> list[int]:
    return ray.get([h.pid.remote() for h in hosts], timeout=30)


def _drop_idle(key=None) -> None:
    """Kill this shape's idle set so the next crawl starts on new hosts."""
    key = key or _key()
    hosts = _idle_hosts(key)
    with shard_hosts._LOCK:
        entry = shard_hosts._IDLE.pop(key, None)
    if entry:
        entry[1].cancel()
    shard_hosts._kill(hosts, key[0])


def _assert_dead(hosts) -> None:
    for h in hosts:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(h.pid.remote(), timeout=30)


def _outputs(res) -> dict:
    import __ray_entry__ as entry

    def rows(table, key):
        return sorted(res.table(table).to_pylist(), key=lambda r: r[key])

    rounds = sorted(r for r in res.rounds if f"round_{r}" in res.metrics)
    return {
        "frontier": rows("frontier", "url"),
        "documents": rows("documents", "url"),
        "harvest": rows("harvest", "image_id"),
        "seen": res.metrics["_seen_snapshot"],
        "round_metrics": [
            [res.metrics[f"round_{r}"].get(k) for k in entry.ROUND_METRIC_KEYS]
            for r in rounds],
    }


def _crawl(tmp_path, name, cfg=None):
    return crawl.run_crawl(cfg or _cfg(), str(tmp_path / name))


def _assert_oracle_exact(res, cfg) -> None:
    from ragnificent_ray.oracle.reference import run_oracle

    oracle = run_oracle(cfg)
    assert set(res.metrics["_seen_snapshot"]) == oracle.seen_hashes
    ft = res.table("frontier")
    assert sorted(zip(ft.column("depth").to_pylist(),
                      ft.column("seed_rank").to_pylist(),
                      ft.column("url").to_pylist())) == sorted(oracle.order)


def test_second_crawl_reuses_hosts_and_matches_fresh(ray_session, tmp_path):
    _drop_idle()
    fresh = _crawl(tmp_path, "fresh")
    assert fresh.metrics["shard_hosts"]["reused"] is False
    assert fresh.metrics["shard_hosts"]["hosts"] == max(N_SEEN, N_POLITE)
    assert fresh.metrics["shard_hosts"]["ready_s"] >= 0
    pids = _pids(_idle_hosts())
    assert len(pids) == max(N_SEEN, N_POLITE)

    warm = _crawl(tmp_path, "warm")
    assert warm.metrics["shard_hosts"]["reused"] is True
    assert _pids(_idle_hosts()) == pids
    assert "shard_hosts" not in warm.metrics["round_0"]
    assert _outputs(warm) == _outputs(fresh)


def test_raising_crawl_kills_its_hosts(ray_session, tmp_path, monkeypatch):
    """Even a reused set is killed, not pooled, when the crawl raises
    (KeyboardInterrupt is no Exception); the next crawl starts on new
    hosts and is oracle-exact."""
    _crawl(tmp_path, "warmup")  # pools a set for the raising crawl
    leased = []
    real_lease = shard_hosts.lease

    def spy(*args, **kwargs):
        lease = real_lease(*args, **kwargs)
        leased.append((lease.reused, list(lease.hosts)))
        return lease

    def interrupted(blocks):
        raise KeyboardInterrupt

    monkeypatch.setattr(shard_hosts, "lease", spy)
    monkeypatch.setattr(crawl, "_frontier_from_refs", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _crawl(tmp_path, "raises")
    monkeypatch.undo()

    reused, hosts = leased[0]
    assert reused is True
    assert _idle_hosts() == []
    _assert_dead(hosts)

    res = _crawl(tmp_path, "after")
    assert res.metrics["shard_hosts"]["reused"] is False
    _assert_oracle_exact(res, _cfg())


def test_crawl_leaves_the_session_data_context_alone(
    ray_session, tmp_path, monkeypatch
):
    """The crawl's block-size bound lives on its own Datasets: the
    session's current DataContext is untouched after a normal return and
    after an interrupted crawl, and a later plain Dataset runs with Ray's
    default."""
    import ray.data as rd
    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE, DataContext

    current = DataContext.get_current()
    assert current.target_max_block_size == DEFAULT_TARGET_MAX_BLOCK_SIZE

    def interrupted(blocks):
        raise KeyboardInterrupt

    _crawl(tmp_path, "normal")
    assert DataContext.get_current() is current
    assert current.target_max_block_size == DEFAULT_TARGET_MAX_BLOCK_SIZE
    monkeypatch.setattr(crawl, "_frontier_from_refs", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _crawl(tmp_path, "interrupted")
    monkeypatch.undo()
    assert DataContext.get_current() is current
    assert current.target_max_block_size == DEFAULT_TARGET_MAX_BLOCK_SIZE

    def seen_bound(batch):
        bound = DataContext.get_current().target_max_block_size
        return {"bound": np.full(len(batch["id"]), bound)}

    rows = rd.range(8, override_num_blocks=2).map_batches(seen_bound)
    assert {r["bound"] for r in rows.take_all()} == {
        DEFAULT_TARGET_MAX_BLOCK_SIZE}


def test_idle_set_killed_out_of_band_falls_back(ray_session, tmp_path):
    _crawl(tmp_path, "first")
    idle = _idle_hosts()
    assert idle
    shard_hosts._kill(idle, shard_hosts._session())
    res = _crawl(tmp_path, "second")
    assert res.metrics["shard_hosts"]["reused"] is False
    assert _pids(_idle_hosts())  # the new set is pooled and alive
    assert res.metrics["pages_parsed_total"] > 0


def test_politeness_and_seen_shard_i_share_a_process(ray_session):
    lease = shard_hosts.lease(3, pooled=False)
    try:
        pol = PolitenessService(n_shards=2, lease=lease)
        seen = SeenSet(n_shards=3, lease=lease)
        assert len(lease.hosts) == 3
        assert _pids(pol.shards) == _pids(seen.shards[:2])
        assert len(set(_pids(seen.shards))) == 3
        # the parts are independent: each answers its own RPC surface
        assert list(seen.check_and_add(
            np.array([1, 2, 3], dtype=np.uint64))) == [True, True, True]
        assert set(pol.reserve_batch({"a.test": 2, "b.test": 1})) == {
            "a.test", "b.test"}
    finally:
        lease.release(reuse=False)


def test_lease_puts_shard_i_on_host_i_mod_cpus(ray_session):
    """8 shards per part on the 4-CPU session: 4 processes, seen shard i
    and politeness shard i on host i % 4, every shard its own part."""
    assert shard_hosts.host_count(8) == 4
    lease = shard_hosts.lease(8, pooled=False)
    try:
        seen = SeenSet(n_shards=8, lease=lease)
        pol = PolitenessService(n_shards=8, lease=lease)
        host_pids = _pids(lease.hosts)
        assert len(set(host_pids)) == 4
        expected = [host_pids[i % 4] for i in range(8)]
        assert _pids(seen.shards) == expected
        assert _pids(pol.shards) == expected
        hashes = np.arange(64, dtype=np.uint64)
        assert seen.check_and_add(hashes).all()
        assert not seen.check_and_add(hashes).any()
        # co-hosted shards (0 and 4, ...) keep their own members
        assert [st["seen"] for st in seen.rpc_stats()] == [8] * 8
    finally:
        lease.release(reuse=False)


def test_crawl_with_more_shards_than_cpus(ray_session, tmp_path, monkeypatch):
    """8 seen and 4 politeness shards on 4 hosts: every round still writes
    one frontier part per seen shard, and outputs and rows-only round
    metrics equal a crawl with one fresh host per shard, and the oracle."""
    cfg = _cfg(WorldConfig(n_domains=4, pages_per_domain=24,
                           images_per_page=1), n_seen=8, n_polite=4)
    shared = _crawl(tmp_path, "shared", cfg)
    assert shared.metrics["shard_hosts"]["hosts"] == 4
    # round 0's frontier comes from discovery, later ones from the shards
    resolved = sorted((tmp_path / "shared" / "rounds").glob(
        "round=*/frontier"))[1:]
    assert resolved
    for frontier in resolved:
        assert sorted(p.name for p in frontier.iterdir()) == [
            f"part-shard{i:04d}.parquet" for i in range(8)]

    monkeypatch.setattr(shard_hosts, "host_count", lambda n: n)
    own = _crawl(tmp_path, "own", cfg)
    _drop_idle(_key(8))
    assert own.metrics["shard_hosts"]["hosts"] == 8
    assert own.metrics["shard_hosts"]["reused"] is False
    assert _outputs(shared) == _outputs(own)
    _assert_oracle_exact(shared, cfg)


def test_kill_after_ray_shutdown_is_skipped():
    """A standalone client shut down after ``ray.shutdown()`` must not
    ``ray.kill`` hosts of the ended session (that aborts the process)."""
    script = textwrap.dedent("""
        import ray
        from ragnificent_ray.state.politeness import PolitenessService
        from ragnificent_ray.state.seen import SeenSet

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=80 * 2**20)
        seen = SeenSet(n_shards=2)
        pol = PolitenessService(n_shards=2)
        assert seen.size() == 0 and len(pol.rpc_stats()) == 2
        ray.shutdown()
        seen.shutdown()
        pol.shutdown()
        print("ok")
    """)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": repo}
    proc = subprocess.run([sys.executable, "-c", script], cwd=repo, env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("ok")


def test_release_keeps_one_idle_set_per_key(ray_session, monkeypatch):
    monkeypatch.setattr(shard_hosts, "IDLE_GRACE_S", 0.5)
    key = (shard_hosts._session(), 2, False)
    a = shard_hosts.lease(2)
    b = shard_hosts.lease(2)  # concurrent: a second, fresh set
    a_hosts, b_hosts = list(a.hosts), list(b.hosts)
    a_pids = _pids(a_hosts)
    assert set(a_pids).isdisjoint(_pids(b_hosts))
    a.release(reuse=True)
    b.release(reuse=True)  # the slot is taken: the surplus set is killed
    _assert_dead(b_hosts)
    with shard_hosts._LOCK:
        assert _pids(shard_hosts._IDLE[key][0]) == a_pids
    time.sleep(1.5)  # past the idle grace: the pooled set is killed too
    with shard_hosts._LOCK:
        assert key not in shard_hosts._IDLE
    _assert_dead(a_hosts)


def test_idle_set_of_another_session_is_not_reused(ray_session, monkeypatch):
    a = shard_hosts.lease(2)
    a_hosts = list(a.hosts)
    a.release(reuse=True)
    monkeypatch.setattr(shard_hosts, "_session", lambda: ("job", "node"))
    b = shard_hosts.lease(2)
    try:
        assert b.reused is False
        assert set(_pids(a_hosts)).isdisjoint(_pids(b.hosts))
    finally:
        b.release(reuse=False)
        monkeypatch.undo()
        shard_hosts._kill(a_hosts, shard_hosts._session())
