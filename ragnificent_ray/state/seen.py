"""Sharded URL-seen set — exact cuckoo-table shards, fully vectorized.

D1 in SURVEY §2.7: N lightweight seen shards, shard key =
``url_hash % N``. Each shard's membership structure is a
:class:`~.cuckoo.CuckooHashSet` — a cuckoo table whose slots store the
key's full remainder, so membership is EXACT (SURVEY §7.4's
false-positive hazard is resolved by construction: no lossy
fingerprint exists to collide, so no URL can ever be wrongly dropped
and no unbounded exact Python set is needed). Memory is 8 bytes/slot
flat numpy — ~10 GB per 10^9-key shard at the north rule's 10^10-URL
frontier, vs TBs of Python-set heap. The shard is the single
serialization point for its key range, so two concurrent tasks
submitting the same URL race safely: exactly one gets "new".

Shard *i* is the ("seen", *i*) part of shard host ``i % H``
(``state/hosts.py``; ``H`` is at most the session's CPU count), the
process that also holds politeness shard *i*. A host may hold several
seen shards; each stays its own :class:`_SeenShardState`, with its own
RPCs, counters and frontier part. A crawl leases its hosts from the
session's idle pool and builds a fresh :class:`_SeenShardState` per
shard, so a re-leased host starts with the capacity, pending proposals
and RPC counters of a new shard. Every seen RPC is
``ray.get``-synchronous inside a crawl's executions, so none is in
flight when a crawl returns and hands its hosts back. Constructed
without a lease, :class:`SeenSet` spawns hosts of its own and kills
them on :meth:`SeenSet.shutdown`.

Every shard-side pass is vectorized: membership is one numpy
gather+compare over the whole RPC batch, min-rank pending state is
kept as sorted numpy arrays (lexsort + first-per-key reductions), and
winner emission is a single mask — no per-element Python loop touches
the shard hot path.

Batches route client-side: a ``map_batches`` task groups its
``url_hash`` column by shard and issues ONE RPC per shard per batch
(amortized round trip, SURVEY D1), shipping numpy arrays (zero-copy
through the object store). Each shard counts its RPC traffic
(calls/rows in/out) so ``crawl_round_metrics`` can audit the
cross-process fan-out on a real cluster.
"""

from __future__ import annotations

import numpy as np
import ray

from . import hosts as shard_hosts
from .cuckoo import CuckooHashSet


def _u64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.uint64)


def _i64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


def _min_per_key(h: np.ndarray, r: np.ndarray, *payload: np.ndarray):
    """Sort by (key, rank) and keep the first row per key — the
    vectorized min-rank winner reduction. Returns the filtered arrays
    in ascending-key order."""
    order = np.lexsort((r, h))
    h, r = h[order], r[order]
    firsts = np.ones(len(h), dtype=bool)
    firsts[1:] = h[1:] != h[:-1]
    out = [h[firsts], r[firsts]]
    for p in payload:
        out.append(p[order][firsts])
    return out


def cut_blocks(table, rows: int, pieces: int = 1,
               most: int | None = None) -> tuple[list, list]:
    """``table`` as consecutive slices of ``max(rows, ceil(n / pieces))``
    rows, but none over ``most``: ``([(rows, bytes) per slice],
    slices)``, no slice for an empty table. A frontier is cut where it is
    made: into ``pieces`` blocks, but none under one fetch batch of
    ``rows`` rows; a harvest lane's image rows go one fetch batch to a
    slice at most."""
    size = max(rows, -(-table.num_rows // pieces))
    if most is not None:
        size = min(size, most)
    slices = [table.slice(i, size) for i in range(0, table.num_rows, size)]
    return [(t.num_rows, t.nbytes) for t in slices], slices


def streamed_blocks(streams) -> list[tuple]:
    """``[(rows, bytes, ref)]`` of every slice that remote generators
    streamed as :func:`cut_blocks` results (the ``(rows, bytes)`` list
    first, then one object per slice). The refs are the caller's, and
    only the small heads are fetched."""
    streams = list(streams)  # every generator is running before any is read
    refs = [list(s) for s in streams]
    heads = ray.get([r[0] for r in refs])
    return [(n, size, ref)
            for head, r in zip(heads, refs)
            for (n, size), ref in zip(head, r[1:])]


class _SeenShardState:
    """Plain-object core (actor-free for unit tests and the oracle)."""

    def __init__(self, capacity: int = 1 << 16):
        self.members = CuckooHashSet(capacity=capacity)
        # pending min-rank proposals: per-call pre-reduced (h, r) array
        # pairs; frozen into sorted arrays at first resolve
        self._pmin: list[tuple[np.ndarray, np.ndarray]] = []
        self._pmin_frozen: list | None = None
        # payload-carrying variant: (h, r, url, domain, depth) arrays
        self._pfull: list[tuple] = []
        # RPC telemetry (item 7: multi-node realism audit)
        self.rpc_calls = 0
        self.rpc_rows_in = 0
        self.rpc_rows_out = 0

    # -- membership ----------------------------------------------------------

    def check_and_add(self, hashes) -> list[bool]:
        """True per input hash iff it was NOT seen before this call.

        Duplicates inside one call: the first occurrence wins. One
        vectorized membership pass + one bulk insert.
        """
        arr = _u64(hashes)
        self.rpc_calls += 1
        self.rpc_rows_in += len(arr)
        if len(arr) == 0:
            return []
        _, first_idx = np.unique(arr, return_index=True)
        is_first = np.zeros(len(arr), dtype=bool)
        is_first[first_idx] = True
        new = is_first & ~self.members.contains_bulk(arr)
        if new.any():
            self.members.add_bulk(arr[new])
        self.rpc_rows_out += len(arr)
        return new.tolist()

    # -- two-phase min-rank claim (hash-only) ----------------------------------

    def propose_min(self, hashes, ranks) -> None:
        """Phase 1 of the min-rank claim: record the smallest rank ever
        proposed for each hash. Deterministic regardless of arrival
        order once all proposals are in (the caller barriers between
        phases)."""
        self._unfreeze_pmin()
        h, r = _u64(hashes), _i64(ranks)
        self.rpc_calls += 1
        self.rpc_rows_in += len(h)
        if len(h):
            hk, rk = _min_per_key(h, r)
            self._pmin.append((hk, rk))

    def _freeze_pmin(self) -> None:
        if self._pmin_frozen is not None:
            return
        if self._pmin:
            h = np.concatenate([x for x, _ in self._pmin])
            r = np.concatenate([x for _, x in self._pmin])
            h, r = _min_per_key(h, r)
        else:
            h = np.empty(0, dtype=np.uint64)
            r = np.empty(0, dtype=np.int64)
        self._pmin_frozen = [h, r, np.zeros(len(h), dtype=bool)]
        self._pmin = []

    def _unfreeze_pmin(self) -> None:
        # proposals after a resolve phase start a fresh round; fold any
        # unclaimed frozen entries back so nothing is lost
        if self._pmin_frozen is not None:
            keys, ranks, claimed = self._pmin_frozen
            if (~claimed).any():
                self._pmin.append((keys[~claimed], ranks[~claimed]))
            self._pmin_frozen = None

    def resolve_min(self, hashes, ranks) -> list[bool]:
        """Phase 2: True iff (hash, rank) is the proposal winner AND the
        hash was not already seen; winners are claimed into the seen
        set. The unique owner (rank == pending min) marks its pending
        entry claimed win or lose, so the table drains exactly once per
        proposed hash."""
        self._freeze_pmin()
        keys, minr, claimed = self._pmin_frozen
        h, r = _u64(hashes), _i64(ranks)
        self.rpc_calls += 1
        self.rpc_rows_in += len(h)
        n = len(h)
        if n == 0:
            return []
        if len(keys) == 0:
            self.rpc_rows_out += n
            return [False] * n
        pos = np.searchsorted(keys, h)
        posc = np.minimum(pos, len(keys) - 1)
        owner = (keys[posc] == h) & (minr[posc] == r) & ~claimed[posc]
        if owner.any():
            # intra-call duplicates of the same (h, min-rank): only the
            # first occurrence owns (matches the dict pop semantics)
            oh = h[owner]
            _, fi = np.unique(oh, return_index=True)
            keep = np.zeros(len(oh), dtype=bool)
            keep[fi] = True
            idx = np.nonzero(owner)[0][keep]
            owner = np.zeros(n, dtype=bool)
            owner[idx] = True
            claimed[posc[owner]] = True
        win = owner & ~self.members.contains_bulk(h)
        if win.any():
            self.members.add_bulk(h[win])
        self.rpc_rows_out += n
        return win.tolist()

    # -- two-phase claim with frontier payload ---------------------------------

    def propose_full(self, hashes, ranks, urls, domains, depths) -> None:
        """Phase 1 of the min-rank claim, carrying the full frontier
        payload: the shard keeps the lowest-rank candidate row per
        hash, so phase 2 needs no second dataset execution — the shard
        already holds the winning rows. Memory is bounded by the
        round's unique URLs on this shard and cleared every round by
        :meth:`take_winners`."""
        h, r = _u64(hashes), _i64(ranks)
        self.rpc_calls += 1
        self.rpc_rows_in += len(h)
        if not len(h):
            return
        u = np.asarray(urls, dtype=object)
        dom = np.asarray(domains, dtype=object)
        dep = _i64(depths)
        self._pfull.append(tuple(_min_per_key(h, r, u, dom, dep)))

    def take_winners(self) -> dict:
        """Phase 2, shard-side: claim every pending hash not yet seen
        into the seen set and return the winners' frontier payload in
        ascending-hash order; the pending table drains completely
        (exactly-once per round)."""
        self.rpc_calls += 1
        if not self._pfull:
            return {"url": [], "domain": [], "depth": [],
                    "seed_rank": [], "url_hash": []}
        h = np.concatenate([p[0] for p in self._pfull])
        r = np.concatenate([p[1] for p in self._pfull])
        u = np.concatenate([p[2] for p in self._pfull])
        dom = np.concatenate([p[3] for p in self._pfull])
        dep = np.concatenate([p[4] for p in self._pfull])
        self._pfull = []
        h, r, u, dom, dep = _min_per_key(h, r, u, dom, dep)
        new = ~self.members.contains_bulk(h)
        h, r, u, dom, dep = h[new], r[new], u[new], dom[new], dep[new]
        if len(h):
            self.members.add_bulk(h)
        self.rpc_rows_out += len(h)
        return {"url": u.tolist(), "domain": dom.tolist(),
                "depth": dep.tolist(), "seed_rank": r.tolist(),
                "url_hash": h.tolist()}

    def take_winners_to_parquet(self, path: str, shard_id: int,
                                block_rows: int, pieces: int):
        """Winners → one FRONTIER-schema parquet part written BY THE
        SHARD (no driver materialization of the next frontier); returns
        :func:`cut_blocks` of the winners' table (``pieces`` slices, none
        under ``block_rows`` rows). A shard host streams each slice as
        its own object, so the driver assembles the next round's
        frontier Dataset from the shard refs directly, already cut for
        the fetch — re-reading the parquet (metadata fetch) on the round
        critical path measured ~15 s at 16 CPUs when overlapped with the
        background sinks. Parquet stays the checkpoint/resume source of
        truth; atomic via tmp+rename like _block_writer."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from ..schema import FRONTIER

        w = self.take_winners()
        n = len(w["url"])
        cols = {}
        for f in FRONTIER:
            if f.name in w:
                cols[f.name] = pa.array(w[f.name], type=f.type)
            else:
                cols[f.name] = pa.nulls(n, type=f.type)
        table = pa.table(cols)
        if n:
            os.makedirs(path, exist_ok=True)
            tmp = os.path.join(path, f".part-shard{shard_id:04d}.tmp")
            pq.write_table(table, tmp)
            os.replace(tmp, os.path.join(
                path, f"part-shard{shard_id:04d}.parquet"))
        return cut_blocks(table, block_rows, pieces)

    # -- checkpoint / metrics ---------------------------------------------------

    def snapshot(self) -> list[int]:
        """All seen hashes (for checkpoint manifests / parity checks) —
        decoded straight from the cuckoo table (it is exact)."""
        return np.sort(self.members.decode_all()).tolist()

    def restore(self, hashes) -> None:
        arr = np.unique(_u64(hashes))
        if len(arr):
            fresh = arr[~self.members.contains_bulk(arr)]
            if len(fresh):
                self.members.add_bulk(fresh)

    def size(self) -> int:
        return self.members.count

    def memory_bytes(self) -> int:
        """Actor-heap held by the membership structure + pending state
        (the bounded-growth audit for crawl_round_metrics)."""
        pend = sum(sum(getattr(a, "nbytes", 0) for a in p)
                   for p in (self._pmin + self._pfull))
        if self._pmin_frozen is not None:
            pend += sum(a.nbytes for a in self._pmin_frozen)
        return self.members.nbytes + int(pend)

    def rpc_stats(self) -> dict:
        return {"rpc_calls": self.rpc_calls,
                "rpc_rows_in": self.rpc_rows_in,
                "rpc_rows_out": self.rpc_rows_out,
                "memory_bytes": self.memory_bytes(),
                "seen": self.members.count}


class SeenSet:
    """Client handle over N seen shards on shard hosts (``shards[i]``
    is the host of shard *i*); lives on the driver and inside
    ``map_batches`` workers (actor handles serialize fine). ``lease`` is
    the crawl's host lease; without one the set spawns its own hosts.
    The resolve cuts each shard's frontier into ``pieces`` blocks, none
    under ``block_rows`` rows (``CrawlConfig.fetch_batch_size``)."""

    def __init__(self, n_shards: int = 8, capacity_per_shard: int = 1 << 16,
                 spread: bool = False,
                 lease: shard_hosts.HostLease | None = None,
                 block_rows: int = 256, pieces: int = 1):
        self.n_shards = n_shards
        self.cut = (block_rows, pieces)
        self._owned = None
        if lease is None:
            lease = self._owned = shard_hosts.lease(
                n_shards, spread, pooled=False)
        self.shards = lease.init("seen", _SeenShardState, n_shards,
                                 {"capacity": capacity_per_shard})

    def _rpc(self, s: int, method: str, *args):
        return self.shards[s].call.remote(("seen", s), method, *args)

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Bulk filter a uint64 hash array → boolean "is new" mask.

        One RPC per shard per call (numpy array payloads); preserves
        input order.
        """
        n = len(hashes)
        if n == 0:
            return np.zeros(0, dtype=bool)
        result = np.zeros(n, dtype=bool)
        refs, spans = [], []
        for s, idx in self._route(_u64(hashes)):
            refs.append(self._rpc(s, "check_and_add", hashes[idx]))
            spans.append(idx)
        for idx, flags in zip(spans, ray.get(refs)):
            result[idx] = flags
        return result

    def _route(self, hashes: np.ndarray):
        shard_ids = (hashes % np.uint64(self.n_shards)).astype(np.int64)
        for s in range(self.n_shards):
            idx = np.nonzero(shard_ids == s)[0]
            if len(idx):
                yield s, idx

    def propose_min(self, hashes: np.ndarray, ranks: np.ndarray) -> None:
        """Phase-1 RPC fan-out of the two-phase min-rank claim; blocks
        until every touched shard acked (the phase barrier is the
        enclosing dataset execution)."""
        h, r = _u64(hashes), _i64(ranks)
        refs = [
            self._rpc(s, "propose_min", h[idx], r[idx])
            for s, idx in self._route(h)
        ]
        ray.get(refs)

    def resolve_min(self, hashes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Phase-2 RPC fan-out → boolean winner mask, input order."""
        h, r = _u64(hashes), _i64(ranks)
        n = len(h)
        result = np.zeros(n, dtype=bool)
        refs, spans = [], []
        for s, idx in self._route(h):
            refs.append(self._rpc(s, "resolve_min", h[idx], r[idx]))
            spans.append(idx)
        for idx, flags in zip(spans, ray.get(refs)):
            result[idx] = flags
        return result

    def propose_full(self, hashes: np.ndarray, ranks: np.ndarray,
                     urls: list[str], domains: list[str],
                     depths: list[int]) -> None:
        """Payload-carrying phase-1 fan-out (one RPC per touched shard);
        blocks until acked — the phase barrier is the enclosing dataset
        execution's materialize."""
        h, r = _u64(hashes), _i64(ranks)
        u = np.asarray(urls, dtype=object)
        dom = np.asarray(domains, dtype=object)
        dep = _i64(depths)
        refs = []
        for s, idx in self._route(h):
            refs.append(self._rpc(s, "propose_full", h[idx], r[idx],
                                  u[idx], dom[idx], dep[idx]))
        ray.get(refs)

    def take_winners_to_parquet(self, path: str):
        """Phase-2 fan-out: every shard claims + writes its own frontier
        parquet part; returns ``(total_rows, [(rows, bytes, table_ref)])``
        with one entry per :func:`cut_blocks` slice.
        Replaces a whole dataset execution (explode → resolve → write)
        with one RPC round trip — the winner rows never pass through the
        driver: each shard streams its blocks into the object store
        (``ShardHost.stream``) and they feed the next round's Dataset
        directly. Row/byte counts ride the first streamed object so the
        driver can fabricate the block metadata without scheduling
        metadata tasks on a busy cluster."""
        blocks = streamed_blocks(
            s.stream.remote(("seen", i), "take_winners_to_parquet", path, i,
                            *self.cut)
            for i, s in enumerate(self.shards))
        return sum(n for n, _, _ in blocks), blocks

    def snapshot(self) -> list[int]:
        parts = ray.get([self._rpc(s, "snapshot")
                         for s in range(self.n_shards)])
        return sorted(h for p in parts for h in p)

    def restore(self, hashes: list[int]) -> None:
        arr = _u64(hashes)
        ray.get([
            self._rpc(s, "restore", arr[idx])
            for s, idx in self._route(arr)
        ])

    def size(self) -> int:
        return sum(ray.get([self._rpc(s, "size")
                            for s in range(self.n_shards)]))

    def rpc_stats(self) -> list[dict]:
        """Per-shard RPC/memory telemetry (multi-node fan-out audit)."""
        return ray.get([self._rpc(s, "rpc_stats")
                        for s in range(self.n_shards)])

    def memory_bytes(self) -> int:
        return sum(st["memory_bytes"] for st in self.rpc_stats())

    def shutdown(self) -> None:
        """Kill the hosts this set spawned itself; a leased set's hosts
        are the lease holder's to release."""
        if self._owned is not None:
            self._owned.release(reuse=False)
        self.shards = []
