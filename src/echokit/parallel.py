"""An order-preserving map over forked worker processes.

Evaluation predicts every sample on its own, so the predictions can be
split across CPUs without changing a bit.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

# Fewest items one worker is given.  On 2 vCPUs with BLAS on one thread,
# at the benchmark's shapes, two workers ran evaluate_mae / evaluate_lvd
# 0.91x / 0.70x as fast as one process at 4 items per worker, 1.39x /
# 1.01x at 8, 1.62x / 1.22x at 16 and 1.58x / 1.60x at 32: a fork costs
# about as much as a few predictions, so both gain fully from 32 on.
MIN_ITEMS_PER_WORKER = 32

# True in a process while it runs a forked map, and in that map's workers,
# so a nested map runs in process instead of forking again.
_in_map = False


def _n_blocks(n_items: int) -> int:
    if _in_map or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:  # fork copies only the calling thread
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items // MIN_ITEMS_PER_WORKER))


def map_in_order(fn, items) -> list:
    """``[fn(x) for x in items]``, computed on every usable CPU.

    The items are cut into contiguous blocks of at least
    ``MIN_ITEMS_PER_WORKER``, one per CPU this process may run on.  This
    process maps the first block, and one forked child maps each other
    block and sends its results back through a pipe.  *fn* and the items
    reach the children by fork, not by pickling, so *fn* may be a lambda
    and sees every module binding the caller patched; its results must
    pickle.

    If *fn* raises, the exception of the first failing block is raised,
    which is the one the list comprehension would raise.  The map runs in
    process when there is one usable CPU or too few items, on a platform
    without ``os.fork``, while a second thread is alive, or inside another
    map.
    """
    global _in_map
    items = list(items)
    n_blocks = _n_blocks(len(items))
    if n_blocks == 1:
        return [fn(x) for x in items]
    bounds = [len(items) * k // n_blocks for k in range(n_blocks + 1)]
    blocks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    for stream in (sys.stdout, sys.stderr):  # so no child inherits unwritten text
        if stream is not None:
            stream.flush()
    pids, reads = [], []
    _in_map = True
    try:
        for block in blocks[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, block, write)
            finally:
                os.close(write)  # the child's copy is then the only write end
            pids.append(pid)
        results = [fn(x) for x in blocks[0]]
        for read, block_start in zip(reads, bounds[1:]):
            with open(read, "rb", closefd=False) as pipe:
                reply = pipe.read()
            if not reply:
                raise ChildProcessError(f"the worker mapping items from {block_start} on "
                                        "ended without a result (killed, or it did not pickle)")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        _in_map = False
        for read in reads:  # a child still writing then fails fast and exits
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(fn, block, write: int) -> None:
    """A child's whole life: map *block*, send the results or the exception
    through *write*, and exit without returning into the caller's frames
    or running its exit handlers."""
    try:
        try:
            reply = (True, [fn(x) for x in block])
        except BaseException as exc:  # re-raised by the parent
            reply = (False, exc)
        reply = pickle.dumps(reply)  # all or nothing: no truncated reply
        with open(write, "wb") as pipe:
            pipe.write(reply)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    finally:
        os._exit(0)
