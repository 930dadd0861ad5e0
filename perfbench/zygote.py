"""A fork server that hands out fresh, never-compiled processes.

Cold-start numbers need processes in which nothing has been compiled or
memoized yet: an in-process repeat compiles fmm in 14 ms against 25 ms in
a fresh process. Spawning a new interpreter per job would add about half
a second of imports to every arrival, so the zygote is forked once,
right after the imports and before anything else runs, and forks one
child per job from that pristine state. Each child runs a module-level
function and sends its result back; the zygote reaps it with ``wait4``
and adds the child's peak RSS.

``multiprocessing``'s forkserver does the same job but, on Python 3.11,
binds its socket under the system temporary directory and starts a
resource-tracker process that only private methods stop; the benchmark
must write only inside its checkout and wait for every process it
starts. Forking is only safe from a single-threaded process, which both
the caller (checked in ``Zygote.__init__``) and the zygote itself are.
Messages are pickles exchanged between these processes only.
"""

from __future__ import annotations

import gc
import os
import threading
import time
import traceback
from multiprocessing import Pipe


class ChildError(RuntimeError):
    """A job raised in its child; carries the child's traceback."""


def _run_child(conn, fn, kwargs, forked_at: float) -> None:
    try:
        payload = ("ok", fn(forked_at=forked_at, **kwargs))
    except BaseException:  # reported to the parent, which re-raises
        payload = ("error", traceback.format_exc())
    conn.send(payload)


def _serve(requests, results) -> None:
    # every child starts from this one collector state
    gc.collect()
    while True:
        try:
            job = requests.recv()
        except EOFError:
            return
        if job is None:
            return
        fn, kwargs = job
        reader, writer = Pipe(duplex=False)
        forked_at = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            reader.close()
            status = 0
            try:
                _run_child(writer, fn, kwargs, forked_at)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        writer.close()
        try:
            payload = reader.recv()
        except EOFError:
            payload = ("error", "child exited without a result")
        finally:
            reader.close()
        _, status, usage = os.wait4(pid, 0)
        if status != 0 and payload[0] == "ok":
            payload = ("error", f"child exit status {status}")
        results.send((payload, usage.ru_maxrss / 1024.0))


class Zygote:
    """Owner of the fork server; ``run`` executes one job in a fresh
    child and returns ``(result, child_peak_rss_mb)``."""

    def __init__(self):
        if threading.active_count() != 1:
            raise RuntimeError("fork the zygote before starting threads")
        requests_r, self._requests = Pipe(duplex=False)
        self._results, results_w = Pipe(duplex=False)
        self.pid = os.fork()
        if self.pid == 0:
            self._requests.close()
            self._results.close()
            status = 0
            try:
                _serve(requests_r, results_w)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        requests_r.close()
        results_w.close()

    def run(self, fn, **kwargs):
        self._requests.send((fn, kwargs))
        (kind, value), rss_mb = self._results.recv()
        if kind != "ok":
            raise ChildError(value)
        return value, rss_mb

    def close(self) -> None:
        if self.pid is None:
            return
        try:
            self._requests.send(None)
        except OSError:
            pass  # the zygote is already gone; reap it below
        self._requests.close()
        self._results.close()
        os.waitpid(self.pid, 0)
        self.pid = None
