"""Domain-sharded politeness: token-bucket scheduling + adaptive rates.

A1 in SURVEY §2.4. The reference serializes every request through one
lock-guarded ``RequestThrottler`` (``core/throttle.py:85-174``); here
the per-domain state lives in N politeness shards keyed by
``stable_hash64(domain) % N``, so there is no cross-shard locking and
the state for a domain never moves (the "join" of frontier rows with
their politeness budget is shard-local — J4 in SURVEY §2.5).

Shard *i* is the ("politeness", *i*) part of shard host ``i % H``
(``state/hosts.py``; ``H`` is at most the session's CPU count), the
process that also holds seen shard *i*. A crawl leases its hosts from
the session's idle pool and builds a fresh :class:`_PolitenessShardRPC`
per shard, so the clock, backoff, rates and RPC counters start as on a
new shard. Outcome reports are fire-and-forget and can arrive after the
next crawl has re-leased the host; each carries its lease's epoch, and
a shard drops any report of another epoch. Constructed without a
lease, :class:`PolitenessService` spawns hosts of its own and kills
them on :meth:`PolitenessService.shutdown`.

Semantics ported from the reference (same constants, same thresholds):

* per-domain interval = 1 / rate_limit; a reservation hands each URL a
  wall-clock slot ≥ previous slot + interval (``throttle.py:107-115``).
* adaptive adjustment after ≥5 samples: slow (>2 s avg) → ×0.8, fast
  (<0.5 s, err<5%) → ×1.2 capped at 10 rps, error rate >10% → ×0.5,
  floor 0.1 rps (``throttle.py:268-299``).
* consecutive-error exponential backoff, capped at 60 s
  (``throttle.py:149-162``); jitter is dropped for determinism (noted
  divergence — jitter only changes wall time, never ordering/results).
* wildcard ``*.domain`` limits take precedence over the default
  (``throttle.py:253-266``).

Scale note: one shard comfortably owns tens of thousands of domains
(its state is a dict of ~100-byte records); N shards ≈ 2-4 × nodes.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from dataclasses import dataclass, field

import ray

from . import hosts as shard_hosts


@dataclass
class _DomainState:
    rate_limit: float
    next_slot: float = 0.0
    success_count: int = 0
    error_count: int = 0
    consecutive_errors: int = 0
    backoff_until: float = 0.0
    total_response_time: float = 0.0
    request_times: deque = field(default_factory=lambda: deque(maxlen=100))
    status_codes: dict = field(default_factory=dict)


class _PolitenessCore:
    """Actor-free core so the oracle and unit tests share the logic."""

    def __init__(
        self,
        default_rate: float = 1.0,
        domain_limits: dict[str, float] | None = None,
        adaptive: bool = True,
        retry_delay: float = 2.0,
        adaptive_max_rate: float = 10.0,
        clock=time.monotonic,
    ):
        self.default_rate = max(0.1, default_rate)
        self.domain_limits = dict(domain_limits or {})
        self.adaptive = adaptive
        self.retry_delay = retry_delay
        # reference hard-codes the adaptive speed-up cap at 10 rps
        # (throttle.py:288); configurable so a generous bench budget
        # isn't silently collapsed to 10 rps after 5 fast responses
        self.adaptive_max_rate = adaptive_max_rate
        self.clock = clock
        self.domains: dict[str, _DomainState] = {}
        # RPC telemetry (incremented at the shard RPC boundary, same
        # audit as state/seen.py: cross-process fan-out on the crawl
        # critical path must stay O(batches × shards)). Critical-path
        # reservations are synchronous RPCs — their counters are exact
        # per-round watermarks. Background-lane reservations (the image
        # fetches, which overlap later rounds) and outcome reports
        # (fire-and-forget) are tracked separately: their arrival at a
        # round's snapshot is racy by design.
        self.reserve_rpc_calls = 0
        self.reserve_rpc_rows_in = 0
        self.reserve_rpc_rows_out = 0
        self.bg_reserve_rpc_calls = 0
        self.bg_reserve_rpc_rows_in = 0
        self.report_rpc_calls = 0
        self.report_rpc_rows_in = 0

    def _state(self, domain: str) -> _DomainState:
        st = self.domains.get(domain)
        if st is None:
            st = _DomainState(rate_limit=self._configured_rate(domain))
            self.domains[domain] = st
        return st

    def _configured_rate(self, domain: str) -> float:
        if domain in self.domain_limits:
            return self.domain_limits[domain]
        for pattern, limit in self.domain_limits.items():
            if pattern.startswith("*.") and domain.endswith(pattern[1:]):
                return limit
        return self.default_rate

    def reserve(self, domain: str, n: int) -> list[float]:
        """Allocate n fetch slots for a domain; returns absolute times
        (on this core's clock) the caller must wait for before firing."""
        st = self._state(domain)
        now = self.clock()
        interval = 1.0 / st.rate_limit
        start = max(now, st.next_slot, st.backoff_until)
        slots = [start + i * interval for i in range(n)]
        st.next_slot = start + n * interval
        return slots

    def report(self, domain: str, outcomes: list[tuple[int, float, bool]]) -> None:
        """outcomes: (status_code, response_time, is_error) per request."""
        st = self._state(domain)
        for status, rt, is_error in outcomes:
            if is_error:
                st.error_count += 1
                st.consecutive_errors += 1
                if st.consecutive_errors > 1:
                    backoff = min(
                        60.0, self.retry_delay * (2 ** (st.consecutive_errors - 1))
                    )
                    st.backoff_until = self.clock() + backoff
            else:
                st.success_count += 1
                st.consecutive_errors = 0
                st.backoff_until = 0.0
                if status:
                    st.status_codes[status] = st.status_codes.get(status, 0) + 1
                st.total_response_time += rt
                st.request_times.append(rt)
                if self.adaptive and len(st.request_times) >= 5:
                    self._adjust(st)

    def _adjust(self, st: _DomainState) -> None:
        avg = sum(st.request_times) / len(st.request_times)
        total = st.success_count + st.error_count
        err = st.error_count / total if total else 0.0
        new = st.rate_limit
        if avg > 2.0:
            new = max(0.1, st.rate_limit * 0.8)
        elif avg < 0.5 and err < 0.05:
            new = min(self.adaptive_max_rate, st.rate_limit * 1.2)
        if err > 0.1:
            new = max(0.1, st.rate_limit * 0.5)
        if st.rate_limit and abs(new - st.rate_limit) / st.rate_limit > 0.2:
            st.rate_limit = new

    def stats_rows(self) -> list[dict]:
        """Columnar G1 rows for the ``domain_stats`` table."""
        rows = []
        for domain, st in self.domains.items():
            n = len(st.request_times)
            rows.append({
                "domain": domain,
                "success_count": st.success_count,
                "error_count": st.error_count,
                "avg_response_time": (
                    sum(st.request_times) / n if n else 0.0
                ),
                "rate_limit": st.rate_limit,
            })
        return rows

    def memory_bytes(self) -> int:
        """Approximate actor-heap held by the per-domain records (the
        bounded-growth audit: ~100 B of fixed fields + the rolling
        response-time window + status-code dict per domain)."""
        total = 0
        for domain, st in self.domains.items():
            total += (len(domain) + 200 + 8 * len(st.request_times)
                      + 48 * len(st.status_codes))
        return total

    def rpc_stats(self) -> dict:
        return {"rpc_calls": (self.reserve_rpc_calls
                              + self.bg_reserve_rpc_calls
                              + self.report_rpc_calls),
                "rpc_rows_in": (self.reserve_rpc_rows_in
                                + self.bg_reserve_rpc_rows_in
                                + self.report_rpc_rows_in),
                "rpc_rows_out": self.reserve_rpc_rows_out,
                "reserve_rpc_calls": self.reserve_rpc_calls,
                "reserve_rpc_rows": self.reserve_rpc_rows_in,
                "bg_reserve_rpc_calls": self.bg_reserve_rpc_calls,
                "bg_reserve_rpc_rows": self.bg_reserve_rpc_rows_in,
                "report_rpc_calls": self.report_rpc_calls,
                "report_rpc_rows": self.report_rpc_rows_in,
                "memory_bytes": self.memory_bytes(),
                "domains": len(self.domains)}


class _PolitenessShardRPC(_PolitenessCore):
    """Shard RPC surface. ``reserve`` times are on the *shard's* clock;
    callers only use them as relative delays (slot - shard_now), which
    a second RPC-free approximation handles: we return slots together
    with the shard's current time.

    Every public method here is an RPC entry point, so the telemetry
    counters increment in these wrappers (rows_in = domain requests /
    outcome reports carried by the call, rows_out = slots returned) —
    mirroring ``state/seen.py``'s shard audit. Plain class so unit
    tests exercise the counters actor-free.

    ``epoch`` is the host lease's: an outcome report of any other epoch
    was sent during an earlier lease of the host and is dropped whole,
    counters included."""

    def __init__(self, *args, epoch: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.epoch = epoch

    def reserve_with_now(self, domain: str, n: int) -> tuple[list[float], float]:
        self.reserve_rpc_calls += 1
        self.reserve_rpc_rows_in += 1
        self.reserve_rpc_rows_out += n
        return self.reserve(domain, n), self.clock()

    def reserve_many(self, pairs: list[tuple[str, int]],
                     background: bool = False) -> tuple[dict, float]:
        """Batched reservation: one RPC covers every domain a fetch batch
        touches on this shard (RPC count per batch = shards, not domains).
        ``background`` reservations are counted apart (see __init__)."""
        if background:
            self.bg_reserve_rpc_calls += 1
            self.bg_reserve_rpc_rows_in += len(pairs)
        else:
            self.reserve_rpc_calls += 1
            self.reserve_rpc_rows_in += len(pairs)
        self.reserve_rpc_rows_out += sum(n for _, n in pairs)
        return {d: self.reserve(d, n) for d, n in pairs}, self.clock()

    def report_one(self, domain: str,
                   outcomes: list[tuple[int, float, bool]],
                   epoch: int = 0) -> None:
        if epoch != self.epoch:
            return
        self.report_rpc_calls += 1
        self.report_rpc_rows_in += len(outcomes)
        self.report(domain, outcomes)

    def report_many(self, per_domain: dict, epoch: int = 0) -> None:
        if epoch != self.epoch:
            return
        self.report_rpc_calls += 1
        self.report_rpc_rows_in += sum(len(o) for o in per_domain.values())
        for d, outcomes in per_domain.items():
            self.report(d, outcomes)


class PolitenessService:
    """Client over N shards on shard hosts (``shards[i]`` is the host of
    shard *i*); ``stable_hash64(domain) % N`` routing. ``lease`` is the
    crawl's host lease; without one the service spawns its own hosts."""

    def __init__(
        self,
        n_shards: int = 4,
        default_rate: float = 1.0,
        domain_limits: dict[str, float] | None = None,
        adaptive: bool = True,
        retry_delay: float = 2.0,
        adaptive_max_rate: float = 10.0,
        spread: bool = False,
        lease: shard_hosts.HostLease | None = None,
    ):
        self.n_shards = n_shards
        self._background = False
        self._owned = None
        if lease is None:
            lease = self._owned = shard_hosts.lease(
                n_shards, spread, pooled=False)
        self.epoch = lease.epoch
        shard_kwargs = {
            "default_rate": default_rate,
            "domain_limits": domain_limits,
            "adaptive": adaptive,
            "retry_delay": retry_delay,
            "adaptive_max_rate": adaptive_max_rate,
            "epoch": lease.epoch,
        }
        self.shards = lease.init("politeness", _PolitenessShardRPC,
                                 n_shards, shard_kwargs)

    def background(self) -> PolitenessService:
        """This client for a background lane: same shards, but its batch
        reservations are counted apart from the critical path's, so the
        per-round reservation watermarks stay exact."""
        view = copy.copy(self)
        view._background = True
        return view

    def shard_for(self, domain: str) -> int:
        from ..functions.hashing import stable_hash64

        return stable_hash64(domain) % self.n_shards

    def _call(self, i: int, method: str, *args):
        return self.shards[i].call.remote(("politeness", i), method, *args)

    def _tell(self, i: int, method: str, *args) -> None:
        self.shards[i].tell.remote(("politeness", i), method, *args)

    def reserve(self, domain: str, n: int) -> list[float]:
        """Relative delays (seconds from now) for n requests to domain."""
        slots, shard_now = ray.get(self._call(
            self.shard_for(domain), "reserve_with_now", domain, n))
        return [max(0.0, s - shard_now) for s in slots]

    def reserve_batch(self, counts: dict[str, int]) -> dict[str, list[float]]:
        """Relative delays for a whole fetch batch: RPCs = shards touched
        (issued in parallel), not domains touched."""
        by_shard: dict[int, list[tuple[str, int]]] = {}
        for d, n in counts.items():
            by_shard.setdefault(self.shard_for(d), []).append((d, n))
        refs = [self._call(i, "reserve_many", pairs, self._background)
                for i, pairs in by_shard.items()]
        out: dict[str, list[float]] = {}
        for slots_map, shard_now in ray.get(refs):
            for d, slots in slots_map.items():
                out[d] = [max(0.0, s - shard_now) for s in slots]
        return out

    def report(self, domain: str, outcomes: list[tuple[int, float, bool]]):
        # fire-and-forget: stats/adaptive updates need not block fetching
        self._tell(self.shard_for(domain), "report_one", domain, outcomes,
                   self.epoch)

    def report_batch(self, per_domain: dict) -> None:
        """Fire-and-forget batched outcome report, one RPC per shard."""
        by_shard: dict[int, dict] = {}
        for d, outcomes in per_domain.items():
            by_shard.setdefault(self.shard_for(d), {})[d] = outcomes
        for i, m in by_shard.items():
            self._tell(i, "report_many", m, self.epoch)

    def stats_rows(self) -> list[dict]:
        parts = ray.get([self._call(i, "stats_rows")
                         for i in range(len(self.shards))])
        return [r for p in parts for r in p]

    def rpc_stats(self) -> list[dict]:
        """Per-shard RPC/memory telemetry (see _PolitenessShardRPC)."""
        return ray.get([self._call(i, "rpc_stats")
                        for i in range(len(self.shards))])

    def shutdown(self) -> None:
        """Kill the hosts this service spawned itself; a leased
        service's hosts are the lease holder's to release."""
        if self._owned is not None:
            self._owned.release(reuse=False)
        self.shards = []
