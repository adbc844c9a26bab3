"""Unit tests for state machinery: cuckoo filter, seen-shard core,
politeness core (actor-free classes — no Ray needed)."""

import numpy as np

from ragnificent_ray.state.cuckoo import CuckooFilter
from ragnificent_ray.state.politeness import _PolitenessCore
from ragnificent_ray.state.seen import _SeenShardState


def test_cuckoo_membership_no_false_negatives():
    f = CuckooFilter(capacity=4096)
    rng = np.random.Generator(np.random.PCG64(3))
    items = rng.integers(0, 2**63, size=2000, dtype=np.uint64)
    assert f.add_bulk(items)
    assert f.contains_bulk(items).all()  # no false negatives


def test_cuckoo_low_false_positive_rate():
    f = CuckooFilter(capacity=8192)
    rng = np.random.Generator(np.random.PCG64(4))
    items = rng.integers(0, 2**63, size=4000, dtype=np.uint64)
    f.add_bulk(items)
    probes = rng.integers(0, 2**63, size=20000, dtype=np.uint64)
    fresh = probes[~np.isin(probes, items)]
    fp_rate = f.contains_bulk(fresh).mean()
    assert fp_rate < 0.01  # 16-bit fingerprints, 4-slot buckets


def test_seen_shard_check_and_add_semantics():
    s = _SeenShardState(capacity=1024)
    out = s.check_and_add([1, 2, 3, 2, 1])
    assert out == [True, True, True, False, False]  # in-call dups lose
    assert s.check_and_add([3, 4]) == [False, True]
    assert s.size() == 4
    assert s.snapshot() == [1, 2, 3, 4]


def test_seen_shard_survives_filter_saturation():
    # capacity far below inserts → forces at least one rebuild
    s = _SeenShardState(capacity=64)
    items = list(range(10_000))
    flags = s.check_and_add(items)
    assert all(flags)
    again = s.check_and_add(items)
    assert not any(again)  # still exactly-once after rebuilds


def test_cut_blocks_shares_a_table_out_with_a_batch_floor():
    """A frontier producer cuts its rows into ``pieces`` blocks, but no
    block under one fetch batch (the last one excepted)."""
    import pyarrow as pa

    from ragnificent_ray.state.seen import cut_blocks

    t = pa.table({"x": list(range(1000))})

    def sizes(*cut):
        head, blocks = cut_blocks(t, *cut)
        assert head == [(b.num_rows, b.nbytes) for b in blocks]
        assert pa.concat_tables(blocks).equals(t)
        return [n for n, _ in head]

    assert sizes(256, 1) == [1000]
    assert sizes(256, 2) == [500, 500]
    assert sizes(256, 8) == [256, 256, 256, 232]
    assert sizes(100, 3) == [334, 334, 332]
    assert cut_blocks(t.slice(0, 0), 256, 4) == ([], [])


def test_politeness_reserve_spacing_and_backoff():
    t = [0.0]
    core = _PolitenessCore(default_rate=2.0, adaptive=False, clock=lambda: t[0])
    slots = core.reserve("a.test", 3)
    assert slots == [0.0, 0.5, 1.0]  # 2 rps → 0.5 s interval
    slots2 = core.reserve("a.test", 1)
    assert slots2 == [1.5]  # continues after prior reservation
    # two consecutive errors → exponential backoff gates the next slot
    core.report("a.test", [(599, 0.1, True), (599, 0.1, True)])
    st = core.domains["a.test"]
    assert st.backoff_until == t[0] + min(60.0, 2.0 * 2)  # 2*2^(2-1)
    t[0] = 0.0
    nxt = core.reserve("a.test", 1)[0]
    assert nxt >= st.backoff_until


def test_politeness_adaptive_adjustment_matches_reference_rules():
    # Reference quirk (throttle.py:286-299): adjustments only apply when
    # |new-current|/current > 0.2, but the slow (×0.8) and fast (×1.2)
    # rules produce EXACTLY 20% change — so they never fire. Only the
    # error-rate rule (×0.5) crosses the threshold. Reproduced for parity.
    t = [0.0]
    core = _PolitenessCore(default_rate=1.0, adaptive=True, clock=lambda: t[0])
    core.report("b.test", [(200, 0.1, False)] * 5)  # fast → ×1.2 → skipped
    assert core.domains["b.test"].rate_limit == 1.0
    core.report("c.test", [(200, 3.0, False)] * 10)  # slow → ×0.8 → skipped
    assert core.domains["c.test"].rate_limit == 1.0
    # >10% error rate → ×0.5, which IS a >20% change → applies
    core.report("d.test", [(200, 0.1, False)] * 5 + [(599, 0.1, True)] * 2
                + [(200, 0.1, False)])
    assert core.domains["d.test"].rate_limit == 0.5


def test_politeness_wildcard_domain_limits():
    core = _PolitenessCore(
        default_rate=1.0, domain_limits={"*.big.test": 5.0, "exact.test": 0.5}
    )
    assert core._configured_rate("sub.big.test") == 5.0
    assert core._configured_rate("exact.test") == 0.5
    assert core._configured_rate("other.test") == 1.0


def test_politeness_shard_rpc_telemetry():
    """The shard RPC boundary counts calls/rows like the seen shards:
    reservations (synchronous, critical-path) and reports
    (fire-and-forget) tracked separately, memory audit bounded by the
    per-domain records."""
    from ragnificent_ray.state.politeness import _PolitenessShardRPC

    t = [0.0]
    s = _PolitenessShardRPC(default_rate=2.0, adaptive=False,
                            clock=lambda: t[0])
    slots, _now = s.reserve_many([("a.test", 3), ("b.test", 2)])
    assert set(slots) == {"a.test", "b.test"}
    s.reserve_with_now("a.test", 1)
    s.report_many({"a.test": [(200, 0.1, False)] * 3})
    s.report_one("b.test", [(500, 0.2, True)])
    st = s.rpc_stats()
    assert st["reserve_rpc_calls"] == 2
    assert st["reserve_rpc_rows"] == 3      # 2 domains + 1 domain
    assert st["rpc_rows_out"] == 6          # 3 + 2 + 1 slots handed out
    assert st["report_rpc_calls"] == 2
    assert st["report_rpc_rows"] == 4       # 3 outcomes + 1 outcome
    assert st["rpc_calls"] == 4
    assert st["domains"] == 2
    assert 0 < st["memory_bytes"] < 2 * 1024


def test_politeness_reports_of_a_stale_epoch_are_dropped():
    """A shard re-built for a new host lease ignores late outcome
    reports sent during the previous lease: no domain state and no
    report counter moves. Reports of its own epoch still apply."""
    from ragnificent_ray.state.politeness import _PolitenessShardRPC

    t = [0.0]
    s = _PolitenessShardRPC(default_rate=2.0, adaptive=True,
                            clock=lambda: t[0], epoch=7)
    s.reserve_many([("a.test", 1), ("b.test", 1)])

    def state():
        st = s.rpc_stats()
        return ([(d.success_count, d.error_count, d.consecutive_errors,
                  d.backoff_until, d.rate_limit, list(d.request_times))
                 for d in s.domains.values()],
                st["report_rpc_calls"], st["report_rpc_rows"])

    before = state()
    s.report_many({"a.test": [(500, 0.1, True)] * 3,
                   "b.test": [(200, 0.1, False)] * 6}, epoch=6)
    s.report_one("a.test", [(500, 0.1, True)] * 2, epoch=6)
    s.report_one("b.test", [(200, 0.1, False)] * 6)  # no epoch: epoch 0
    assert state() == before

    s.report_many({"a.test": [(500, 0.1, True)] * 2}, epoch=7)
    s.report_one("b.test", [(200, 0.1, False)] * 6, epoch=7)
    a, b = s.domains["a.test"], s.domains["b.test"]
    assert (a.error_count, a.consecutive_errors) == (2, 2)
    assert a.backoff_until == 4.0            # retry_delay 2 s × 2^(2-1)
    assert (b.success_count, len(b.request_times)) == (6, 6)
    st = s.rpc_stats()
    assert (st["report_rpc_calls"], st["report_rpc_rows"]) == (2, 8)


def test_politeness_background_reservations_counted_apart():
    """Background-lane reservations (the harvest lane's image fetches)
    leave the critical-path reservation watermarks alone."""
    from ragnificent_ray.state.politeness import _PolitenessShardRPC

    s = _PolitenessShardRPC(default_rate=2.0, adaptive=False,
                            clock=lambda: 0.0)
    s.reserve_many([("a.test", 3)])
    s.reserve_many([("a.test", 2), ("b.test", 1)], True)
    st = s.rpc_stats()
    assert (st["reserve_rpc_calls"], st["reserve_rpc_rows"]) == (1, 1)
    assert (st["bg_reserve_rpc_calls"], st["bg_reserve_rpc_rows"]) == (1, 2)
    assert st["rpc_calls"] == 2 and st["rpc_rows_out"] == 6
    # both lanes share one slot schedule per domain
    slots, _ = s.reserve_many([("a.test", 1)])
    assert slots["a.test"] == [2.5]


def test_min_rank_claim_two_phase(ray_session):
    """Propose/resolve protocol: the minimum-rank proposal wins, already
    -seen hashes never win, the owner drains pending win or lose, and
    later rounds can re-propose the same hash."""
    import numpy as np

    from ragnificent_ray.state.seen import SeenSet

    seen = SeenSet(n_shards=2)
    try:
        h = np.array([11, 11, 22, 33], dtype=np.uint64)
        r = np.array([5, 3, 7, 1], dtype=np.int64)
        seen.propose_min(h, r)
        # resolve in a different order / split across calls
        m1 = seen.resolve_min(np.array([11], dtype=np.uint64),
                              np.array([5], dtype=np.int64))
        assert list(m1) == [False]          # rank 5 lost to rank 3
        m2 = seen.resolve_min(np.array([11, 22, 33], dtype=np.uint64),
                              np.array([3, 7, 1], dtype=np.int64))
        assert list(m2) == [True, True, True]
        # all claimed now; a fresh propose/resolve round cannot re-win
        seen.propose_min(np.array([22], dtype=np.uint64),
                         np.array([2], dtype=np.int64))
        m3 = seen.resolve_min(np.array([22], dtype=np.uint64),
                              np.array([2], dtype=np.int64))
        assert list(m3) == [False]          # owner, but already seen
        assert seen.size() == 3
    finally:
        seen.shutdown()


def test_min_rank_claim_vs_check_and_add_namespaces(ray_session):
    """check_and_add claims interoperate with the min-rank claim: a hash
    claimed by either path is seen for both."""
    import numpy as np

    from ragnificent_ray.state.seen import SeenSet

    seen = SeenSet(n_shards=2)
    try:
        assert list(seen.check_and_add(
            np.array([7], dtype=np.uint64))) == [True]
        seen.propose_min(np.array([7], dtype=np.uint64),
                         np.array([0], dtype=np.int64))
        assert list(seen.resolve_min(
            np.array([7], dtype=np.uint64),
            np.array([0], dtype=np.int64))) == [False]
        assert list(seen.check_and_add(
            np.array([7], dtype=np.uint64))) == [False]
    finally:
        seen.shutdown()


def test_cuckoo_hashset_exact_no_false_positives_under_collision():
    """VERDICT r03 item 1: plant keys that would collide in a lossy
    fingerprint filter (same bucket pair, same top bits) and prove the
    exact cuckoo table never wrongly reports a fresh key as seen —
    i.e. no URL can be dropped by a membership false positive."""
    from ragnificent_ray.state.cuckoo import CuckooHashSet

    s = CuckooHashSet(capacity=64)
    # same home bucket (identical low k bits), different remainders —
    # the classic fingerprint-collision geometry for a 16-bit filter
    base = np.uint64(0xABCD << 48 | 5)
    twin = np.uint64(0xABCD << 48 | (1 << s.k) | 5)
    s.add_bulk(np.array([base], dtype=np.uint64))
    assert s.contains_bulk(np.array([base], dtype=np.uint64))[0]
    # twin shares bucket-pair pressure but MUST read as unseen
    assert not s.contains_bulk(np.array([twin], dtype=np.uint64))[0]
    s.add_bulk(np.array([twin], dtype=np.uint64))
    assert s.contains_bulk(np.array([base, twin], dtype=np.uint64)).all()
    assert s.count == 2
    assert sorted(s.decode_all().tolist()) == sorted([int(base), int(twin)])


def test_cuckoo_hashset_exactness_fuzz_with_growth():
    """Interleaved add/query rounds against a reference set, capacity
    starting tiny so the table grows many times — membership must stay
    bit-exact through every rebuild."""
    from ragnificent_ray.state.cuckoo import CuckooHashSet

    s = CuckooHashSet(capacity=16)
    rng = np.random.Generator(np.random.PCG64(11))
    ref: set[int] = set()
    for _ in range(30):
        batch = np.unique(rng.integers(0, 2**64, 400, dtype=np.uint64))
        expect = np.array([int(k) in ref for k in batch])
        got = s.contains_bulk(batch)
        assert (got == expect).all()
        fresh = batch[~expect]
        s.add_bulk(fresh)
        ref.update(int(k) for k in fresh)
    assert s.count == len(ref)
    assert set(int(x) for x in s.decode_all()) == ref


def test_seen_shard_memory_bounded():
    """The shard's heap is the flat cuckoo table (8 B/slot) — no
    unbounded Python set. 50k keys must fit in <64 B/key including
    load-factor and doubling slack."""
    s = _SeenShardState(capacity=1024)
    n = 50_000
    rng = np.random.Generator(np.random.PCG64(12))
    keys = np.unique(rng.integers(0, 2**64, n + 1000, dtype=np.uint64))[:n]
    assert all(s.check_and_add(keys))
    assert not hasattr(s, "exact")          # the old unbounded set is gone
    assert s.size() == n
    assert s.memory_bytes() < 64 * n
    stats = s.rpc_stats()
    assert stats["rpc_calls"] == 1 and stats["rpc_rows_in"] == n


def test_seen_shard_min_rank_vectorized_semantics():
    """Rank ties, in-call duplicates, and re-proposal after a resolve
    round keep the dict-era semantics under the array implementation."""
    s = _SeenShardState(capacity=256)
    h = np.array([10, 10, 20], dtype=np.uint64)
    r = np.array([5, 3, 7], dtype=np.int64)
    s.propose_min(h, r)
    s.propose_min(np.array([20], dtype=np.uint64),
                  np.array([2], dtype=np.int64))
    # losing rank never wins; min rank wins once even if resolved twice
    out = s.resolve_min(np.array([10, 10, 10], dtype=np.uint64),
                        np.array([5, 3, 3], dtype=np.int64))
    assert out == [False, True, False]
    assert s.resolve_min(np.array([20], dtype=np.uint64),
                         np.array([7], dtype=np.int64)) == [False]
    assert s.resolve_min(np.array([20], dtype=np.uint64),
                         np.array([2], dtype=np.int64)) == [True]
    # a new round can propose a fresh hash; already-seen hashes lose
    s.propose_min(np.array([10, 30], dtype=np.uint64),
                  np.array([1, 1], dtype=np.int64))
    out2 = s.resolve_min(np.array([10, 30], dtype=np.uint64),
                         np.array([1, 1], dtype=np.int64))
    assert out2 == [False, True]
    assert s.snapshot() == [10, 20, 30]
