"""Shard hosts: the processes that hold a crawl's seen and politeness shards.

A crawl's only cross-process state is its hash-sharded seen set
(``state/seen.py``) and its domain-sharded politeness state
(``state/politeness.py``). Both live in :class:`ShardHost` actors. A
crawl runs ``H = min(max(n_seen, n_politeness), CPUs)`` hosts
(:func:`host_count`, CPUs from ``ray.cluster_resources()``): seen shard
*i* and politeness shard *i* both live on host ``i % H``. More hosts
than CPUs would only add ~90 MiB processes that cannot all run at
once; with fewer shards than CPUs each host holds one shard of each
part. A host is only a container: ``init`` builds a fresh part, keyed
by (part name, shard index), from its plain class, and ``call`` runs
one of the part's methods (``stream`` runs one whose result is several
objects, such as a seen shard's frontier blocks). :meth:`HostLease.init`
returns one host handle per shard, so the clients in
``seen.py``/``politeness.py`` keep their routing (``hash % n``,
``stable_hash64(domain) % n``) and their per-shard state whatever ``H``
is.

Hosts are leased, not created per crawl. :func:`lease` hands out the
idle set kept for (Ray session, host count, spread), after a ping that
proves it alive, or else spawns a new set. :meth:`HostLease.release`
puts the set back in its slot when the crawl ended normally and kills
it otherwise. Each slot holds at most one idle set (a concurrent second
crawl gets fresh hosts; the surplus set is killed on release), and an
idle set is killed after ``IDLE_GRACE_S``, so a session that crawls
once does not keep ~90 MiB per host alive. Process start-up and the
first pyarrow import are then paid once per session, not per crawl.
Hosts are only ever killed from the session that spawned them: after
``ray.shutdown()`` they are gone already, and ``ray.kill`` on a handle
of an ended session aborts the process.

A leased host starts from fresh parts: the clients re-run ``init``,
which builds new state objects, and ``release`` drops the old ones.
Seen RPCs are all synchronous inside a crawl, so none is in flight at a
clean exit. Politeness outcome reports are fire-and-forget and may land
after the next crawl's ``init``; every lease therefore carries a new
epoch, and a politeness part drops reports of any other epoch (reports
that reach a host with no part at all are dropped by ``tell``).
"""
from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field

import ray

# an idle set unused for this long is killed (not a knob: long enough
# for back-to-back crawls, short enough not to hoard memory)
IDLE_GRACE_S = 60.0

_EPOCHS = itertools.count(1)
_LOCK = threading.Lock()
# (session, n_hosts, spread) -> (hosts, idle-expiry timer)
_IDLE: dict[tuple, tuple[list, threading.Timer]] = {}


@ray.remote(num_cpus=0)
class ShardHost:
    """One process holding parts keyed by (part name, shard index):
    shard *i* of "seen" and of "politeness" on host ``i % H``, so a host
    holds one shard of each part, or several when the session has
    fewer CPUs than shards. Reserves no CPU: it is a lookup service,
    and idle hosts holding a CPU fraction would take task slots from
    every later query in the session."""

    def __init__(self):
        self.parts: dict = {}

    def pid(self) -> int:
        return os.getpid()

    def init(self, part: tuple, cls, kwargs: dict) -> None:
        self.parts[part] = cls(**kwargs)

    def clear(self) -> None:
        self.parts = {}

    def call(self, part: tuple, method: str, *args):
        return getattr(self.parts[part], method)(*args)

    def stream(self, part: tuple, method: str, *args):
        """``call`` for a method returning ``(head, items)``: streams
        ``head``, then each item as an object of its own, owned by the
        caller, so one call hands back as many refs as the method made."""
        head, items = getattr(self.parts[part], method)(*args)
        yield head
        yield from items

    def tell(self, part: tuple, method: str, *args) -> None:
        """A fire-and-forget call; dropped when the host no longer holds
        the part (it was released after the call was sent)."""
        target = self.parts.get(part)
        if target is not None:
            getattr(target, method)(*args)


@dataclass
class HostLease:
    """A set of hosts held by one crawl (or one standalone client) in
    the Ray session ``session``. ``key`` is its idle-pool slot, ``None``
    for a set that is never pooled."""

    hosts: list
    key: tuple | None
    session: tuple | None
    reused: bool = False
    epoch: int = field(default_factory=lambda: next(_EPOCHS))

    def init(self, part: str, cls, n: int, kwargs: dict) -> list:
        """A fresh ``cls(**kwargs)`` as shard *i* of ``part`` on host
        ``i % H``, for *i* < ``n``; returns the host of each shard (call
        shard *i* as ``(part, i)`` on ``result[i]``) once every shard is
        built."""
        shards = [self.hosts[i % len(self.hosts)] for i in range(n)]
        ray.get([h.init.remote((part, i), cls, kwargs)
                 for i, h in enumerate(shards)])
        return shards

    def release(self, reuse: bool) -> None:
        """Pool the hosts (``reuse``, pooled lease, free slot) or kill
        them; a no-op once the lease's session has ended."""
        hosts, self.hosts = self.hosts, []
        if self.session != _session():
            return  # its processes ended with it
        if reuse and self.key is not None:
            for h in hosts:
                h.clear.remote()
            timer = threading.Timer(IDLE_GRACE_S, _expire, (self.key, hosts))
            timer.daemon = True
            with _LOCK:
                pooled = self.key not in _IDLE
                if pooled:
                    _IDLE[self.key] = (hosts, timer)
            if pooled:
                timer.start()
                return
        _kill(hosts, self.session)


def _session() -> tuple | None:
    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    # a new ray.init() keeps job id 01000000 but starts a new node
    return (ctx.get_job_id(), ctx.get_node_id())


def host_count(n_shards: int) -> int:
    """Hosts for up to ``n_shards`` shards per part: one per shard, but
    at most one per CPU of the session."""
    cpus = int(ray.cluster_resources().get("CPU", n_shards))
    return max(1, min(n_shards, cpus))


def _kill(hosts: list, session: tuple | None) -> None:
    # ray.kill on a handle of an ended session aborts the process
    if session == _session():
        for h in hosts:
            ray.kill(h)


def _expire(key: tuple, hosts: list) -> None:
    with _LOCK:
        if key not in _IDLE or _IDLE[key][0] is not hosts:
            return  # leased again since
        del _IDLE[key]
    _kill(hosts, key[0])


def lease(n_shards: int, spread: bool = False,
          pooled: bool = True) -> HostLease:
    """:func:`host_count` hosts for up to ``n_shards`` shards per part:
    this session's idle set of that size if there is a live one, else
    new processes. ``pooled=False`` always spawns and never returns the
    set to the pool."""
    session = _session()
    n_hosts = host_count(n_shards)
    key = (session, n_hosts, spread) if pooled else None
    idle = None
    if key is not None:
        with _LOCK:
            # sets of an ended session: their processes ended with it
            for k in [k for k in _IDLE if k[0] != session]:
                _IDLE.pop(k)[1].cancel()
            idle = _IDLE.pop(key, None)
    if idle is not None:
        hosts, timer = idle
        timer.cancel()
        try:
            ray.get([h.pid.remote() for h in hosts])
            return HostLease(hosts, key, session, reused=True)
        except ray.exceptions.RayActorError:  # died while idle
            _kill(hosts, session)
    cls = ShardHost.options(scheduling_strategy="SPREAD") if spread \
        else ShardHost
    return HostLease([cls.remote() for _ in range(n_hosts)], key, session)
