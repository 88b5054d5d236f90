"""Order-preserving work on every usable CPU: forked worker processes,
and short-lived threads for numpy work that releases the interpreter lock.

Evaluation predicts every sample on its own, and a training step's
gradient is a sum of per-sample terms, so both can be split across forked
processes without changing a bit.  One private core, ``_Workers``, forks
the workers of both: each inherits its work by fork, answers pickled
requests through its own pair of pipes, can share one ``mmap`` slot of
floats with the caller, and is reaped by one ``close``.  ``map_in_order``
sends each worker a block of items; ``GradientPool`` keeps its workers for
a whole training run and passes parameters and gradient terms through the
slots.  A convolution's output slabs are independent of each other, so
``threaded_runs`` sweeps contiguous runs of them in threads that write
straight into one shared output.  One rule, ``_n_cpus``, says how many
CPUs a piece of work may use: one inside a forked map or worker, and one
while a second thread is alive.
"""

from __future__ import annotations

import contextvars
import mmap
import os
import pickle
import sys
import threading

import numpy as np

# Fewest items one worker is given.  On 2 vCPUs with BLAS on one thread,
# at the benchmark's shapes, two workers ran evaluate_mae / evaluate_lvd
# 0.91x / 0.70x as fast as one process at 4 items per worker, 1.39x /
# 1.01x at 8, 1.62x / 1.22x at 16 and 1.58x / 1.60x at 32: a fork costs
# about as much as a few predictions, so both gain fully from 32 on.
MIN_ITEMS_PER_WORKER = 32

# Fewest samples of a training batch one gradient worker is given.  On 2
# vCPUs with BLAS on one thread, one worker took perfbench's lvd_train
# (batch 16, so 8 samples a worker) from 258 to 337 training samples/s
# (medians of 10 pairs), and ef_train (batch 8) from 84 to 114 at 4 a
# worker (3 pairs).  EF's batch 8 still stays in process: perfbench's
# tracer sees no spans in workers, and its trace test counts the training
# forwards of a batch-8 run.
MIN_SAMPLES_PER_GRAD_WORKER = 8

# True in a process while it runs a forked map, and in every worker, so a
# nested map runs in process instead of forking again.
_in_map = False

def _n_cpus() -> int:
    """CPUs this process may spread work over: 1 inside a map or worker, and
    1 while a second thread is alive (fork copies only the calling thread,
    and threads the sweep did not start already hold CPUs)."""
    if _in_map or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _n_blocks(n_items: int, min_per_block: int) -> int:
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_n_cpus(), n_items // min_per_block))


def threaded_runs(fn, n_pieces: int) -> None:
    """``fn(a, b)`` over contiguous runs ``[a, b)`` that cover
    ``range(n_pieces)``, one run per usable CPU, all at once.

    This thread sweeps run 0, and one short-lived thread each other run.
    Every thread is joined before this returns or raises, so none is left
    alive to stop a later fork.  Each thread runs in a copy of the caller's
    context, so numpy's ``errstate``, which numpy keeps in a context
    variable, holds there too.  The runs must write disjoint memory, and
    *fn* gains only where it releases the interpreter lock, as numpy's
    ufuncs do over large arrays.

    If *fn* raises, the exception of the first failing run is raised, the
    one a serial sweep of the runs would raise.  Everything runs in this
    thread where ``map_in_order`` would not fork for want of CPUs: one
    usable CPU, a second thread alive, or inside a map or worker.  If the
    system refuses a thread, the runs not yet started are swept in this
    thread, after run 0.
    """
    n_runs = min(_n_cpus(), n_pieces)
    if n_runs == 1:
        return fn(0, n_pieces)
    bounds = [n_pieces * k // n_runs for k in range(n_runs + 1)]
    errors = [None] * n_runs

    def sweep(k):
        try:
            fn(bounds[k], bounds[k + 1])
        except BaseException as exc:  # raised by the caller, in run order
            errors[k] = exc

    threads = []
    try:
        for k in range(1, n_runs):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(sweep, k))
            try:
                thread.start()
            except RuntimeError:  # "can't start new thread"
                break
            threads.append(thread)
        for k in (0, *range(len(threads) + 1, n_runs)):
            sweep(k)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


def _flush_stdio() -> None:
    """Write out buffered text, so no child inherits and writes it again."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _write(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, size: int) -> bytearray:
    """*size* bytes from *fd*, or fewer if its writers all closed it first."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def _frame(message) -> bytes:
    """*message* pickled, after its length: one message for ``_receive``."""
    data = pickle.dumps(message)
    return len(data).to_bytes(8, "little") + data


def _receive(fd: int):
    """The next message on *fd*, or None if its writers all closed it first."""
    header = _read(fd, 8)
    size = int.from_bytes(header, "little")
    data = _read(fd, size) if len(header) == 8 else b""
    return pickle.loads(data) if data and len(data) == size else None


class _Workers:
    """Up to *n* forked workers, each answering requests with
    ``serve(request, slot)``.

    Workers inherit *serve*, and all it reaches, by fork; only requests and
    replies are pickled.  Each worker has a request pipe, a reply pipe and
    one anonymous ``mmap`` slot of *slot_size* float64 values that it shares
    with the caller (``slots[k]``).  If the system refuses a slot, a pipe or
    a fork, the workers already forked are kept.  ``close`` closes every
    pipe, so each worker reads EOF or fails its write and exits, then reaps
    every worker.
    """

    def __init__(self, serve, n: int, slot_size: int = 0):
        self._serve = serve
        self.slots: list[np.ndarray] = []
        self._pids: list[int] = []
        self._requests: list[int] = []  # the caller's ends
        self._replies: list[int] = []
        if n:
            _flush_stdio()
        try:
            while len(self._pids) < n and self._fork(slot_size):
                pass
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self._pids)

    def _fork(self, slot_size: int) -> bool:
        """Fork one more worker; False if the system refused the slot, a
        pipe or the fork."""
        fds = []
        try:
            slot = np.frombuffer(mmap.mmap(-1, 8 * max(slot_size, 1)), dtype=np.float64)[:slot_size]
            fds += os.pipe()  # requests: caller -> worker
            fds += os.pipe()  # replies: worker -> caller
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return False
        requests_read, requests, replies, replies_write = fds
        if pid == 0:
            # The caller's ends, also those of earlier workers: a worker that
            # kept one open would keep that worker from ever reading EOF.
            self._loop(requests_read, replies_write, slot,
                       [requests, replies, *self._requests, *self._replies])
        os.close(requests_read)
        os.close(replies_write)
        self.slots.append(slot)
        self._pids.append(pid)
        self._requests.append(requests)
        self._replies.append(replies)
        return True

    def _loop(self, requests: int, replies: int, slot: np.ndarray, inherited: list[int]) -> None:
        """A worker's whole life: reply to each request with (True, the
        result) or (False, the exception) until the caller closes its
        request pipe, then exit without returning into the caller's frames
        or running its exit handlers."""
        global _in_map
        try:
            _in_map = True
            for fd in inherited:
                os.close(fd)
            while (request := _receive(requests)) is not None:
                try:
                    reply = _frame((True, self._serve(request, slot)))
                except BaseException as exc:  # re-raised by the caller
                    reply = _frame((False, exc))
                _flush_stdio()
                _write(replies, reply)
        finally:
            os._exit(0)

    def ask(self, k: int, request) -> None:
        """Send worker *k* one request; ``answer`` reads its reply."""
        try:
            _write(self._requests[k], _frame(request))
        except BrokenPipeError:  # the worker has ended: its reply is missing
            pass

    def answer(self, k: int, what: str):
        """Worker *k*'s reply to its last request.  The worker's exception
        is raised as it was raised there; a worker that ended without a
        reply raises ChildProcessError, which names it as the worker *what*."""
        reply = _receive(self._replies[k])
        if reply is None:
            raise ChildProcessError(f"the worker {what} ended without a result "
                                    "(killed, or its exception did not pickle)")
        ok, value = reply
        if not ok:
            raise value
        return value

    def close(self) -> None:
        fds, pids = self._requests + self._replies, self._pids
        self.slots, self._pids, self._requests, self._replies = [], [], [], []
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def map_in_order(fn, items) -> list:
    """``[fn(x) for x in items]``, computed on every usable CPU.

    The items are cut into contiguous blocks of at least
    ``MIN_ITEMS_PER_WORKER``, one per CPU this process may run on.  One
    forked worker maps each block but the first, which this process maps,
    and sends its results back through a pipe.  *fn* and the items reach
    the workers by fork, not by pickling, so *fn* may be a lambda and sees
    every module binding the caller patched; its results must pickle, or
    the pickling error is raised as *fn*'s own.

    If *fn* raises, the exception of the first failing block is raised,
    which is the one the list comprehension would raise.  The map runs in
    process when there is one usable CPU or too few items, on a platform
    without ``os.fork``, while a second thread is alive, or inside another
    map or worker.  If the system refuses a pipe or a fork, the blocks that
    got no worker are mapped in process, after the forked ones.
    """
    global _in_map
    items = list(items)
    n_blocks = _n_blocks(len(items), MIN_ITEMS_PER_WORKER)
    if n_blocks == 1:
        return [fn(x) for x in items]
    bounds = [len(items) * k // n_blocks for k in range(n_blocks + 1)]
    workers = _Workers(lambda block, slot: [fn(x) for x in items[block]], n_blocks - 1)
    try:
        for k in range(len(workers)):
            workers.ask(k, slice(bounds[k + 1], bounds[k + 2]))
        _in_map = True
        results = [fn(x) for x in items[: bounds[1]]]
        for k in range(len(workers)):
            results.extend(workers.answer(k, f"mapping items from {bounds[k + 1]} on"))
        return results + [fn(x) for x in items[bounds[len(workers) + 1]:]]
    finally:
        _in_map = False
        workers.close()


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """*flat* cut into consecutive views shaped as the arrays of *like*."""
    bounds = np.cumsum([0] + [a.size for a in like])
    return [flat[a:b].reshape(x.shape) for a, b, x in zip(bounds, bounds[1:], like)]


class GradientPool:
    """Forked workers that compute the per-sample gradient terms of a batch.

    *term(item, n)* overwrites the arrays *grads* with *item*'s term of an
    *n*-sample batch gradient and returns the item's loss value, reading
    the model from the arrays *params*.  The pool forks one worker per
    usable CPU beyond the caller's, as many as batches of *batch_size*
    items can give ``MIN_SAMPLES_PER_GRAD_WORKER`` samples each.  Workers
    inherit *term*, *items* and the model by fork and are sent only item
    indices.  The pool forks none on one usable CPU, without ``os.fork``,
    while a second thread is alive, or inside a map or worker, and keeps
    the workers it got if the system refuses a slot, a pipe or a fork.

    Each worker shares one anonymous ``mmap`` slot the size of *params*
    with the caller.  A step (``start``, then ``add_terms``) writes the
    current parameters into the slot of each worker it uses and sends that
    worker the indices of its block.  The worker computes its block's terms
    into private memory, then hands them back through the slot one at a
    time, and the caller adds each to its gradients in sample order.

    Use the pool as a context manager: leaving it closes every pipe and
    reaps every worker, and so does a step that raises, after which steps
    run in process.
    """

    def __init__(self, term, items, params: list[np.ndarray], grads: list[np.ndarray],
                 batch_size: int):
        self._params = params
        self._index = {id(item): i for i, item in enumerate(items)}
        self._active: list[tuple[int, int, int]] = []  # this step's workers and blocks
        terms = np.empty((0, 0))  # a worker's terms of its block, one per row

        def serve(request, slot: np.ndarray):
            """A worker's reply to a step, ``(n, indices)``: the parameters
            are read from *slot*, the block's terms computed, its loss values
            returned and term 0 put in *slot*.  To ``j``: term j put in *slot*.
            It refers to no pool: in a reference cycle, a pool would keep
            its slots mapped until a full collection."""
            nonlocal terms
            if isinstance(request, int):
                slot[...] = terms[request]
                return None
            n, indices = request
            for p, s in zip(params, _views(slot, params)):
                p[...] = s
            if len(terms) < len(indices):
                terms = np.empty((len(indices), slot.size))
            values = []
            for row, i in zip(terms, indices):
                values.append(term(items[i], n))
                np.concatenate([g.ravel() for g in grads], out=row)
            slot[...] = terms[0]
            return values

        n_workers = _n_blocks(batch_size, MIN_SAMPLES_PER_GRAD_WORKER) - 1
        self._workers = _Workers(serve, n_workers, sum(p.size for p in params))
        self._slots = [_views(slot, params) for slot in self._workers.slots]

    def __enter__(self) -> GradientPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self, batch, n: int) -> int:
        """Send each worker the current parameters and its block of *batch*,
        a step of an *n*-sample batch gradient; returns how many leading
        samples of *batch* the caller computes itself.  *batch* holds items
        of the pool's *items*, the same objects, which are sent by index.

        The batch is cut into contiguous blocks of at least
        ``MIN_SAMPLES_PER_GRAD_WORKER``: the caller's block 0 and at most
        one per worker.
        """
        if self._active:  # the last step stopped part way, so the workers are out of step
            self.close()
        n_blocks = max(1, min(len(self._workers) + 1, n // MIN_SAMPLES_PER_GRAD_WORKER))
        bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
        try:
            for k, (a, b) in enumerate(zip(bounds[1:], bounds[2:])):
                for s, p in zip(self._slots[k], self._params):
                    s[...] = p
                self._active.append((k, a, b))
                self._workers.ask(k, (n, [self._index[id(item)] for item in batch[a:b]]))
        except BaseException:
            self.close()
            raise
        return bounds[1]

    def add_terms(self, grads: list[np.ndarray]) -> list[float]:
        """Add the started workers' terms into *grads* in sample order, and
        return their loss values in sample order.

        A worker's exception is raised as it was raised there; a worker
        that ends without its terms raises ChildProcessError.
        """
        values = []
        try:
            for k, a, b in self._active:
                what = f"for samples from {a} on"
                values.extend(self._workers.answer(k, what))
                for j in range(b - a):
                    if j:
                        self._workers.ask(k, j)
                        self._workers.answer(k, what)
                    for g, term in zip(grads, self._slots[k]):
                        g += term
        except BaseException:
            self.close()
            raise
        self._active = []
        return values

    def close(self) -> None:
        """Close every pipe, so that each worker reads EOF or fails its
        write and exits, then reap every worker."""
        self._active, self._slots = [], []
        self._workers.close()
