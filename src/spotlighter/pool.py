"""Shared maps: a job's results over a list of items, in item order, from
this process and children forked for the map.

Item i runs in process i % n: 0 is this one, the others are children that
send their results, in order, through a pipe. n is the smaller of the item
count and the CPUs the process may use (its affinity mask where the
platform has one, which taskset narrows; else the CPU count). n is 1, and
nothing is forked, without the fork start method or while a shared map
already runs in this process, as its own share or as a forked child's: a
job that itself maps (an ablate cell scoring a multi-chunk split) maps
serially.

Fork, not spawn: a child takes the job, its arrays included, and whatever
this process has patched, without pickling, and runs under this process's
numpy error state. This process runs its share rather than wait, so it
takes back the pages that the fork left copy-on-write while it works, not
in whatever it runs after the map. A fault in any item, or a child that
dies, ends the map; no child outlives it.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback

import numpy as np

# a shared map runs in this process, as its own share or a child's: state of
# the process, not of a caller, which is why a forked child inherits it
_mapping = False


class _ChildTraceback(Exception):
    """The traceback, as text, of a fault raised in a forked child."""


def pool_size(n_items: int) -> int:
    """The number of processes a shared map over `n_items` items runs in."""
    if _mapping or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    n_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    return max(1, min(n_items, n_cpus))


def _send_results(job, items, conn, errstate: dict) -> None:
    # in a forked child: the results of its items, in order; a fault is sent
    # with its traceback and ends the child's share
    np.seterr(**errstate)
    for item in items:
        try:
            conn.send((job(item), None))
        except Exception as exc:
            conn.send((exc, traceback.format_exc()))
            return


def _received(child, conn):
    """The next result a child sends; a fault it sent is raised here."""
    try:
        result, child_traceback = conn.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"child {child.pid} ended with exit code {child.exitcode} "
                           "before sending a result") from None
    if child_traceback is not None:
        raise result from _ChildTraceback(child_traceback)
    return result


def shared_map(job, items):
    """Yield `job(item)` for each item, in item order, from `pool_size`
    processes. A caller that may stop before the last result closes the
    generator (`contextlib.closing`), which stops the children."""
    global _mapping
    items = list(items)
    n_procs = pool_size(len(items))
    was_mapping, _mapping = _mapping, True
    children = []
    try:
        for j in range(1, n_procs):
            conn, child_conn = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_send_results, args=(job, items[j::n_procs], child_conn, np.geterr()))
            child.start()
            child_conn.close()
            children.append((child, conn))
        for i, item in enumerate(items):
            yield job(item) if i % n_procs == 0 else _received(*children[i % n_procs - 1])
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()
        _mapping = was_mapping
