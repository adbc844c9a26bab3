"""Shard hosts: the processes that hold a crawl's seen and politeness shards.

A crawl's only cross-process state is its hash-sharded seen set
(``state/seen.py``) and its domain-sharded politeness state
(``state/politeness.py``). Both live in :class:`ShardHost` actors. Host
*i* holds seen shard *i* and politeness shard *i*, each only if the
crawl has that many shards, so a crawl runs ``max(n_seen, n_politeness)``
processes instead of their sum. A host is only a container: ``init``
builds a fresh part from its plain class, ``call`` runs one of the
part's methods, and the clients in ``seen.py``/``politeness.py`` keep
the routing (``hash % n``, ``stable_hash64(domain) % n``).

Hosts are leased, not created per crawl. :func:`lease` hands out the
idle set kept for (Ray session, host count, spread), after a ping that
proves it alive, or else spawns a new set. :meth:`HostLease.release`
puts the set back in its slot when the crawl ended normally and kills
it otherwise. Each slot holds at most one idle set (a concurrent second
crawl gets fresh hosts; the surplus set is killed on release), and an
idle set is killed after ``IDLE_GRACE_S``, so a session that crawls
once does not keep ~90 MiB per host alive. Process start-up and the
first pyarrow import are then paid once per session, not per crawl.

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
    """One process holding at most one part per name ("seen",
    "politeness"). Reserves no CPU: it is a lookup service, and idle
    hosts holding a CPU fraction would take task slots from every later
    query in the session."""

    def __init__(self):
        self.parts: dict = {}

    def pid(self) -> int:
        return os.getpid()

    def init(self, part: str, cls, kwargs: dict) -> None:
        self.parts[part] = cls(**kwargs)

    def clear(self) -> None:
        self.parts = {}

    def call(self, part: str, method: str, *args):
        return getattr(self.parts[part], method)(*args)

    def tell(self, part: str, method: str, *args) -> None:
        """A fire-and-forget call; dropped when the host no longer holds
        the part (it was released after the call was sent)."""
        target = self.parts.get(part)
        if target is not None:
            getattr(target, method)(*args)


@dataclass
class HostLease:
    """A set of hosts held by one crawl (or one standalone client).
    ``key`` is its idle-pool slot, ``None`` for a set that is never
    pooled."""

    hosts: list
    key: tuple | None
    reused: bool = False
    epoch: int = field(default_factory=lambda: next(_EPOCHS))

    def init(self, part: str, cls, n: int, kwargs: dict) -> list:
        """A fresh ``cls(**kwargs)`` as ``part`` on each of the first
        ``n`` hosts; returns their handles once every part is built."""
        hosts = self.hosts[:n]
        ray.get([h.init.remote(part, cls, kwargs) for h in hosts])
        return hosts

    def release(self, reuse: bool) -> None:
        """Pool the hosts (``reuse``, pooled lease, free slot) or kill
        them."""
        hosts, self.hosts = self.hosts, []
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
        _kill(hosts)


def _session() -> tuple | None:
    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    # a new ray.init() keeps job id 01000000 but starts a new node
    return (ctx.get_job_id(), ctx.get_node_id())


def _kill(hosts: list) -> None:
    # only ever called on hosts of the current session: ray.kill on a
    # handle of an ended session aborts the process
    for h in hosts:
        ray.kill(h)


def _expire(key: tuple, hosts: list) -> None:
    with _LOCK:
        if key not in _IDLE or _IDLE[key][0] is not hosts:
            return  # leased again since
        del _IDLE[key]
    if key[0] == _session():
        _kill(hosts)


def lease(n_hosts: int, spread: bool = False,
          pooled: bool = True) -> HostLease:
    """``n_hosts`` shard hosts: this session's idle set for the same
    shape if there is a live one, else new processes. ``pooled=False``
    always spawns and never returns the set to the pool."""
    session = _session() if pooled else None
    key = (session, n_hosts, spread) if session is not None else None
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
            return HostLease(hosts, key, reused=True)
        except ray.exceptions.RayActorError:  # died while idle
            _kill(hosts)
    cls = ShardHost.options(scheduling_strategy="SPREAD") if spread \
        else ShardHost
    return HostLease([cls.remote() for _ in range(n_hosts)], key)
