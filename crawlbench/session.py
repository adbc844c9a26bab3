"""The benchmark's own Ray session: sizing, start, memory sampling, teardown.

Each trap handled here makes a run fail or hang:

* ``nproc`` follows ``OMP_NUM_THREADS``, which may be 1; the CPUs this
  process may run on are ``os.sched_getaffinity(0)``.
* Below 2 CPUs a crawl hangs: its 12 shard actors hold 0.05 CPU each and
  every map task needs a whole CPU.
* Workers do not inherit this process's ``sys.path``; the package, the
  oracle and this benchmark's span stand-ins must be importable there,
  so the checkout goes on ``PYTHONPATH`` before Ray starts.
* Raylet warnings reach this process's stdout, and a process that exits
  without waiting leaves worker processes behind, so Ray is shut down and
  its processes reaped before the result line is printed.
* On a loaded shared host the raylet can stall at start-up (seen once:
  it never got past mapping its object store), and ``ray.init`` then
  fails after 30 s. A failed start is torn down like a finished session,
  its processes reaped and its files removed, and tried again.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

# the workload sizes were chosen on 4 CPUs; more CPUs would change the
# shape of every workload (and each CPU adds a ~150 MiB worker process)
MAX_CPUS = 4
MIN_CPUS = 2
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<timestamp>_<pid>/sockets/plasma_store (~63 bytes)
_MAX_TEMP_DIR = 107 - 64
# the workloads keep a few tens of MiB in the object store at once; the
# default (30% of RAM) reserves GiBs of /dev/shm on a shared host
OBJECT_STORE_BYTES = 512 * 1024 * 1024
START_ATTEMPTS = 2


def usable_cpus() -> int:
    n = len(os.sched_getaffinity(0))
    if n < MIN_CPUS:
        raise SystemExit(
            f"crawlbench: needs at least {MIN_CPUS} CPUs, this process may "
            f"use {n}; a crawl's shard actors would starve its map tasks")
    return min(n, MAX_CPUS)


def _children() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        out.setdefault(ppid, []).append(int(name))
    return out


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def _status_kb(pid: int, keys: tuple[str, ...]) -> dict[str, int]:
    out = dict.fromkeys(keys, 0)
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                key = line.split(":", 1)[0]
                if key in out:
                    out[key] = int(line.split()[1])
    except OSError:
        pass
    return out


class RssSampler:
    """Peak anonymous RSS of this process and every process under it.

    Ray's object store is shared memory mapped into many processes, so it
    is counted once: the largest ``RssShmem`` of any one process."""

    PERIOD_S = 0.2

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> int:
        anon, shmem = 0, 0
        for pid in [os.getpid(), *descendants(os.getpid())]:
            st = _status_kb(pid, ("RssAnon", "RssShmem"))
            anon += st["RssAnon"]
            shmem = max(shmem, st["RssShmem"])
        self.peak_kb = max(self.peak_kb, anon + shmem)
        return anon + shmem

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.sample()

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _naming(text: str) -> list[int]:
    """Processes whose command line contains ``text``."""
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit() and int(name) != os.getpid():
            try:
                with open(f"/proc/{name}/cmdline", "rb") as f:
                    if text.encode() in f.read():
                        out.append(int(name))
            except OSError:
                pass
    return out


def _alive(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie counts as exited)."""
    try:
        os.waitpid(pid, os.WNOHANG)  # reaps it if it is our own child
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pids: list[int], timeout: float = 15.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL what is left after ``timeout``."""
    for last in (False, True):
        deadline = time.monotonic() + timeout
        while pids and time.monotonic() < deadline:
            pids = [p for p in pids if _alive(p)]
            if pids:
                time.sleep(0.1)
        if not pids or last:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        timeout = 5.0


class RaySession:
    """A local Ray session whose files live under ``work_dir`` when its
    path is short enough for Ray's sockets, else in a fresh system temp
    dir; all of it is removed, and every process reaped, on exit and
    after each failed start."""

    def __init__(self, root: str, work_dir: str, num_cpus: int):
        self.root = root
        self.work_dir = work_dir
        self.num_cpus = num_cpus
        self.temp_dir = ""

    def _new_temp_dir(self, attempt: int) -> str:
        temp = os.path.join(self.work_dir, f"r{attempt}")
        if len(temp) > _MAX_TEMP_DIR:
            return tempfile.mkdtemp(prefix="crawlbench-")
        os.makedirs(temp)
        return temp

    def __enter__(self):
        paths = [self.root, *filter(None, os.environ.get(
            "PYTHONPATH", "").split(os.pathsep))]
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))

        import logging

        import ray
        import ray.data

        for attempt in range(START_ATTEMPTS):
            self.temp_dir = self._new_temp_dir(attempt)
            try:
                ray.init(address="local", num_cpus=self.num_cpus,
                         object_store_memory=OBJECT_STORE_BYTES,
                         include_dashboard=False, logging_level="ERROR",
                         log_to_driver=False, _temp_dir=self.temp_dir)
                break
            except Exception:
                self._stop()
                if attempt == START_ATTEMPTS - 1:
                    raise
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return self

    def _stop(self) -> None:
        import ray

        procs = descendants(os.getpid())
        try:
            ray.shutdown()
        finally:
            # workers orphaned before the snapshot still name the session
            _reap(sorted(set(procs) | set(_naming(self.temp_dir))))
            shutil.rmtree(self.temp_dir, ignore_errors=True)

    def __exit__(self, *exc):
        self._stop()
