"""Fetch stage: politeness-gated actor pool (A1+A3 in SURVEY §2.4).

``FetchWorker`` is a callable class for
``Dataset.map_batches(FetchWorker, concurrency=N, batch_size=B)``:
backend construction (the sandbox "network" or a real HTTP session)
happens once per actor in ``__init__``; each ``__call__`` fetches one
Arrow batch of URLs.

Politeness protocol per batch (SURVEY §4.2 "partitioning/skew"):
group the batch's URLs by domain, request slots from the owning
politeness shard (one RPC per shard the batch touches), fire each fetch at its
slot time, then fire-and-forget the outcome report (feeding the shard's
adaptive-rate state). Because slot allocation is centralized per domain,
per-domain rate limits hold no matter which pool actor handles which
batch — domain skew costs waiting time, never correctness.

Retry semantics ported from ``core/scraper.py:227-287`` +
``core/throttle.py:176-221``: transport errors retry up to
``max_retries`` with ``retry_delay * 2**attempt`` backoff; 429/503
retry after the Retry-After hint (or the default 5 s); other 4xx/5xx
are final. The reference's jittered sleeps are dropped (determinism).
"""

from __future__ import annotations

import time

import pyarrow as pa

from ..sources.synth_web import FetchResult, SynthWorld


def make_backend(world_cfg: dict):
    """Backend factory: dict config → object with ``fetch(url)``.

    The only backend in the sandbox is :class:`SynthWorld`; a real
    deployment would register an HTTP-session backend here (the actor
    pattern — session per actor — is identical).
    """
    return SynthWorld(**world_cfg)


_BACKEND_CACHE: dict[tuple, object] = {}


def cached_backend(world_cfg: dict):
    """Per-process backend cache. Fetch stages run task-based (cheap
    construction, no actor-pool spawn); Ray reuses worker processes, so
    the backend/session is built once per worker, not once per task."""
    key = tuple(sorted(world_cfg.items()))
    b = _BACKEND_CACHE.get(key)
    if b is None:
        b = _BACKEND_CACHE[key] = make_backend(world_cfg)
    return b


class FetchWorker:
    """Callable for ``map_batches``. Passed as an INSTANCE it runs
    task-based (pickles small: the backend is resolved lazily from the
    per-process cache — no actor-pool spawn, and Ray fuses it with the
    surrounding read/parse stages); passed as the CLASS with
    ``fn_constructor_kwargs`` it runs as an actor pool (the right shape
    when the backend holds heavy state, e.g. a browser or model)."""

    def __init__(
        self,
        world_cfg: dict,
        politeness=None,
        max_retries: int = 3,
        retry_delay: float = 2.0,
        out_col: str = "html",
        cache_dir: str | None = None,
        cache_ttl: float = 3600.0,
        fetch_concurrency: int = 1,
    ):
        self.world_cfg = world_cfg
        self._backend = None
        self.politeness = politeness
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.out_col = out_col
        self.cache_dir = cache_dir
        self.cache_ttl = cache_ttl
        self._cache = None
        # >1 pipelines fetches within a batch on a thread pool (the
        # reference's async_scraper.py gather-with-semaphore shape):
        # dispatch still happens AT each politeness slot, only the
        # in-flight network wait overlaps. Essential for real backends
        # at 100-300 ms RTT (sequential caps an actor at ~1/RTT);
        # pointless for the zero-latency synthetic backend, so the
        # default stays sequential.
        self.fetch_concurrency = fetch_concurrency
        self._pool = None

    @property
    def backend(self):
        if self._backend is None:
            self._backend = cached_backend(self.world_cfg)
        return self._backend

    @property
    def cache(self):
        """S8 request cache (per-process, shared disk tier); None when
        no cache_dir is configured."""
        if self.cache_dir is None:
            return None
        if self._cache is None:
            from ..state.request_cache import cached_request_cache

            self._cache = cached_request_cache(self.cache_dir, self.cache_ttl)
        return self._cache

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_backend"] = None  # resolved from the worker's cache
        state["_cache"] = None
        state["_pool"] = None
        return state

    @property
    def pool(self):
        from concurrent.futures import ThreadPoolExecutor

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.fetch_concurrency)
        return self._pool

    def _fetch_once(self, url: str) -> tuple[FetchResult | None, float, Exception | None]:
        t0 = time.monotonic()
        try:
            r = self.backend.fetch(url)
            return r, time.monotonic() - t0, None
        except Exception as e:  # transport-level failure
            return None, time.monotonic() - t0, e

    def _fetch_with_retries(self, url: str) -> tuple[int, bytes, str, float]:
        """→ (status, body, content_type, total_response_time)."""
        total_rt = 0.0
        attempt = 0
        while True:
            r, rt, err = self._fetch_once(url)
            total_rt += rt
            if err is not None:
                if attempt >= self.max_retries:
                    return 599, b"", "", total_rt
                time.sleep(self.retry_delay * (2**attempt))
                attempt += 1
                continue
            if r.status in (429, 503) and attempt < self.max_retries:
                time.sleep(5.0)  # Retry-After default (throttle.py:318-321)
                attempt += 1
                continue
            return r.status, r.body, r.content_type, total_rt

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        domains = batch.column("domain").to_pylist()
        n = len(urls)
        statuses = [0] * n
        bodies: list[bytes] = [b""] * n
        ctypes = [""] * n
        rts = [0.0] * n

        # cache-before-fetch (S8, scraper semantics): hits skip both the
        # politeness reservation and the backend entirely
        from_cache = [False] * n
        cache = self.cache
        if cache is not None:
            for i, u in enumerate(urls):
                hit = cache.get(u)
                if hit is not None:
                    statuses[i], ctypes[i], bodies[i] = hit
                    from_cache[i] = True

        # group MISS row indices by domain, preserving in-batch order
        by_domain: dict[str, list[int]] = {}
        for i, d in enumerate(domains):
            if not from_cache[i]:
                by_domain.setdefault(d, []).append(i)

        delays_by_domain = (
            self.politeness.reserve_batch(
                {d: len(idxs) for d, idxs in by_domain.items()})
            if self.politeness is not None
            else {d: [0.0] * len(idxs) for d, idxs in by_domain.items()}
        )
        # interleave across domains: merge every (slot, row) pair into
        # one schedule sorted by slot time from a single origin, so one
        # domain's politeness wait overlaps another domain's fetches —
        # sequential per-domain draining would serialize the waits and
        # idle the CPU slot for sum-of-domains instead of max-of-domains
        sched: list[tuple[float, str, int]] = []
        for domain, idxs in by_domain.items():
            for slot, i in zip(delays_by_domain[domain], idxs):
                sched.append((slot, domain, i))
        sched.sort(key=lambda s: (s[0], s[2]))

        t0 = time.monotonic()
        reports: dict[str, list] = {d: [] for d in by_domain}
        if self.fetch_concurrency > 1 and sched:
            # pipelined path: the dispatch loop sleeps to each slot and
            # SUBMITS the fetch; the network wait (and any retry backoff)
            # runs on the pool thread, overlapping later dispatches.
            # Cache writes and politeness reports happen back on this
            # thread at collection — worker threads only touch the
            # backend, which must be stateless per request (or
            # internally thread-safe): the synthetic backend is; a real
            # HTTP backend must pool its connections per-thread.
            # Resolve the backend HERE, on the dispatch thread, so pool
            # threads never race the lazy init.
            _ = self.backend
            futs: list[tuple[str, int, object]] = []
            for slot, domain, i in sched:
                wait = slot - (time.monotonic() - t0)
                if wait > 0.002:
                    time.sleep(wait)
                futs.append((domain, i,
                             self.pool.submit(self._fetch_with_retries,
                                              urls[i])))
            for domain, i, fut in futs:
                status, body, ctype, rt = fut.result()
                statuses[i], bodies[i], ctypes[i], rts[i] = \
                    status, body, ctype, rt
                reports[domain].append((status, rt, status >= 400))
                if cache is not None and status == 200:
                    cache.set(urls[i], status, ctype, body)
        else:
            for slot, domain, i in sched:
                wait = slot - (time.monotonic() - t0)
                # sub-2ms slot gaps are below OS sleep granularity — at
                # high budgets (the bench's 1e5 rps) honoring them with
                # time.sleep burned ~0.2 ms/row of wall while holding the
                # CPU slot; the allocation itself already enforces the
                # per-domain rate, so firing inside the same scheduler
                # tick is within protocol
                if wait > 0.002:
                    time.sleep(wait)
                status, body, ctype, rt = self._fetch_with_retries(urls[i])
                statuses[i], bodies[i], ctypes[i], rts[i] = \
                    status, body, ctype, rt
                reports[domain].append((status, rt, status >= 400))
                if cache is not None and status == 200:
                    cache.set(urls[i], status, ctype, body)
        if self.politeness is not None:
            self.politeness.report_batch(reports)

        fetched_at = pa.array(
            [int(time.time() * 1e6)] * n, type=pa.timestamp("us")
        )
        cols = {name: batch.column(name) for name in batch.column_names}
        cols["status"] = pa.array(statuses, type=pa.int16())
        cols[self.out_col] = pa.array(bodies, type=pa.large_binary())
        cols["content_type"] = pa.array(ctypes, type=pa.string())
        cols["content_len"] = pa.array([len(b) for b in bodies], type=pa.int64())
        cols["fetched_at"] = fetched_at
        cols["response_time"] = pa.array(rts, type=pa.float64())
        cols["from_cache"] = pa.array(from_cache, type=pa.bool_())
        return pa.table(cols)
