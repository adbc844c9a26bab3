"""Spans around the crawl's stage callables, recorded from outside the package.

For one pass, ``installed`` swaps traced stand-ins into the
``pipelines.crawl`` module namespace, which is where ``run_crawl`` looks
its stages up. Each stand-in is a subclass or a callable object defined
here, so Ray pickles it by reference and worker processes import this
module to run it (the session puts the checkout on every worker's
``PYTHONPATH``).

A span records ``name, start, end, id, parent, pass, pid, rows, wait``
and optional ``counts``. ``wait`` is the politeness slot delay a stage
slept through; ``rows`` is the work the span did. Times are wall-clock
(``time.time``) so spans from different processes of one host line up.
Each process keeps its spans in memory and appends those of one
outermost call to ``spans-<pid>.jsonl`` in the trace directory when the
call returns; in the benchmark's own process that call is the pass.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time

import pyarrow as pa
import pyarrow.compute as pc

from ragnificent_ray.pipelines import crawl
from ragnificent_ray.stages.claims import AttachClaims
from ragnificent_ray.stages.fetch import FetchWorker
from ragnificent_ray.state.politeness import PolitenessService
from ragnificent_ray.state.seen import SeenSet


class Recorder:
    """The spans of one process, appended to
    ``<trace_dir>/spans-<pid>.jsonl``."""

    def __init__(self, trace_dir: str):
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._done: list[dict] = []

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, pass_id: int, root: str, is_root=False):
        """Open a span; its parent is the caller's open span in this
        thread, else the pass's root span ``root``. The root span itself
        is opened with ``is_root``."""
        stack = self._stack()
        rec = {"name": name,
               "id": root if is_root else f"{os.getpid()}-{next(self._ids)}",
               "parent": None if is_root else (
                   stack[-1]["id"] if stack else root),
               "pass": pass_id, "pid": os.getpid(), "rows": 0, "wait": 0.0,
               "start": time.time()}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.time()
            stack.pop()
            with self._lock:
                self._done.append(rec)
            if not stack:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            done, self._done = self._done, []
        if done:
            with open(self.path, "a") as f:
                f.write("".join(json.dumps(r) + "\n" for r in done))


_RECORDERS: dict[str, Recorder] = {}
_RECORDERS_LOCK = threading.Lock()


def recorder(trace_dir: str) -> Recorder:
    """This process's recorder for ``trace_dir`` (one per process: worker
    processes have no caller that could own it)."""
    with _RECORDERS_LOCK:
        rec = _RECORDERS.get(trace_dir)
        if rec is None:
            rec = _RECORDERS[trace_dir] = Recorder(trace_dir)
        return rec


class Context:
    """Where a pass's spans go: picklable, carried by every stand-in."""

    def __init__(self, trace_dir: str, pass_id: int):
        self.trace_dir = trace_dir
        self.pass_id = pass_id
        self.root = f"pass-{pass_id}"

    def span(self, name: str):
        return recorder(self.trace_dir).span(name, self.pass_id, self.root)

    def root_span(self, name: str):
        """The pass itself; every span of the pass descends from it."""
        return recorder(self.trace_dir).span(
            name, self.pass_id, self.root, is_root=True)


def _rows(out) -> int:
    return out.num_rows if isinstance(out, pa.Table) else 0


class TracedFn:
    """A batch function (or the harvest sink, called in the main process)
    inside a span."""

    def __init__(self, fn, name: str, ctx: Context):
        self.fn, self.name, self.ctx = fn, name, ctx

    def __call__(self, *args, **kwargs):
        with self.ctx.span(self.name) as s:
            out = self.fn(*args, **kwargs)
            s["rows"] = _rows(out)
            return out


# ``run_crawl`` constructs these classes itself, so they read the pass
# context from here when built (in the main process) and carry it, pickled,
# into the workers.
_CURRENT: list[Context] = []


def _current() -> Context:
    return _CURRENT[-1]


class TracedPoliteness(PolitenessService):
    """Slot reservations in spans; ``wait`` is the largest returned delay,
    which the caller sleeps through after the RPC returns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx = _current()
        self.waited = 0.0

    def reserve(self, domain, n):
        with self.ctx.span("state.politeness.reserve") as s:
            delays = super().reserve(domain, n)
            s["rows"] = n
            s["wait"] = max(delays, default=0.0)
        self.waited += s["wait"]
        return delays

    def reserve_batch(self, counts):
        with self.ctx.span("state.politeness.reserve") as s:
            out = super().reserve_batch(counts)
            s["rows"] = sum(counts.values())
            s["wait"] = max((max(d, default=0.0) for d in out.values()),
                            default=0.0)
        self.waited += s["wait"]
        return out


class TracedSeen(SeenSet):
    """Seen-set RPC fan-outs in spans: image claims, outlink proposals
    (both inside ``stages.claims``) and the resolve in the main process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx = _current()

    def check_and_add(self, hashes):
        with self.ctx.span("state.seen.claim") as s:
            mask = super().check_and_add(hashes)
            s["rows"] = len(hashes)
            s["counts"] = {"new": int(mask.sum())}
            return mask

    def propose_full(self, hashes, *args):
        with self.ctx.span("state.seen.propose") as s:
            super().propose_full(hashes, *args)
            s["rows"] = len(hashes)

    def take_winners_to_parquet(self, path):
        with self.ctx.span("state.seen.resolve") as s:
            n, blocks = super().take_winners_to_parquet(path)
            s["rows"] = n
            return n, blocks


class TracedFetchWorker(FetchWorker):
    """Page fetches (critical lane) and image fetches (harvest lane) share
    one worker; image batches are the ones carrying a ``caption``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx = _current()

    def __call__(self, batch):
        kind = "image" if "caption" in batch.column_names else "page"
        with self.ctx.span(f"stages.fetch.{kind}") as s:
            if self.politeness is not None:
                self.politeness.waited = 0.0
            out = super().__call__(batch)
            s["rows"] = out.num_rows
            s["wait"] = self.politeness.waited if self.politeness else 0.0
            s["counts"] = {"non200": int(pc.sum(pc.not_equal(
                out.column("status"), 200)).as_py() or 0)}
            return out


class TracedDiscover(crawl.DiscoverWorker):
    """Sitemap discovery for one seed; its fetches are politeness-paced."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx = _current()

    def __call__(self, batch):
        with self.ctx.span("sources.sitemap.discover") as s:
            if self.politeness is not None:
                self.politeness.waited = 0.0
            out = super().__call__(batch)
            s["rows"] = out.num_rows
            s["wait"] = self.politeness.waited if self.politeness else 0.0
            return out


class TracedClaims(AttachClaims):
    """Claim attach; counts image candidates against images claimed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx = _current()

    def __call__(self, batch):
        with self.ctx.span("stages.claims") as s:
            out = super().__call__(batch)
            s["rows"] = out.num_rows
            s["counts"] = {
                "candidates": (_list_total(batch, "images")
                               if self.harvest_images else 0),
                "claimed": _list_total(out, "claimed_images")}
            return out


def _list_total(batch: pa.Table, column: str) -> int:
    if not batch.num_rows or column not in batch.column_names:
        return 0
    return int(pc.sum(pc.list_value_length(batch.column(column))).as_py()
               or 0)


_CLASSES = {"FetchWorker": TracedFetchWorker,
            "DiscoverWorker": TracedDiscover,
            "AttachClaims": TracedClaims,
            "PolitenessService": TracedPoliteness,
            "SeenSet": TracedSeen}
_FUNCTIONS = {"parse_documents_batch": "stages.extract.parse",
              "render_batch": "stages.extract.render",
              "chunk_batch": "stages.chunk",
              "harvest_decode_batch": "stages.extract.harvest_decode",
              "write_harvest": "io.lance.write_harvest"}


@contextlib.contextmanager
def installed(ctx: Context):
    """Run one crawl pass with every stage of ``pipelines.crawl`` traced
    into ``ctx``; the original names are restored afterwards."""
    saved = {name: getattr(crawl, name) for name in (*_CLASSES, *_FUNCTIONS)}
    _CURRENT.append(ctx)
    try:
        for name, cls in _CLASSES.items():
            setattr(crawl, name, cls)
        for name, span_name in _FUNCTIONS.items():
            setattr(crawl, name, TracedFn(saved[name], span_name, ctx))
        yield
    finally:
        for name, obj in saved.items():
            setattr(crawl, name, obj)
        _CURRENT.pop()


def load(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id → duration minus the part of it its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
