"""Order-preserving work over forked worker processes.

Evaluation predicts every sample on its own, and a training step's
gradient is a sum of per-sample terms, so both can be split across CPUs
without changing a bit.
"""

from __future__ import annotations

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

_GO = b"\x01"  # one byte on a gradient worker's pipes: "the next term" / "it is in the slot"


def _n_blocks(n_items: int, min_per_block: int) -> int:
    if _in_map or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:  # fork copies only the calling thread
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items // min_per_block))


def _flush_stdio() -> None:
    """Write out buffered text, so no child inherits and writes it again."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


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
    map or worker.  If the system refuses a pipe or a fork, the blocks not
    yet forked are mapped in process, after the forked ones.
    """
    global _in_map
    items = list(items)
    n_blocks = _n_blocks(len(items), MIN_ITEMS_PER_WORKER)
    if n_blocks == 1:
        return [fn(x) for x in items]
    bounds = [len(items) * k // n_blocks for k in range(n_blocks + 1)]
    blocks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    _flush_stdio()
    pids, reads, unforked = [], [], []
    _in_map = True
    try:
        for k, block in enumerate(blocks[1:], 1):
            try:
                read, write = os.pipe()
            except OSError:
                unforked = blocks[k:]
                break
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, block, write)
            except OSError:
                os.close(read)
                unforked = blocks[k:]
                break
            finally:
                os.close(write)  # the child's copy is then the only write end
            reads.append(read)
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
        return results + [fn(x) for block in unforked for x in block]
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
        _flush_stdio()
    finally:
        os._exit(0)


def _write(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, size: int) -> bytes:
    """*size* bytes from *fd*, or fewer if its writers all closed it first."""
    data = b""
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


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """*flat* cut into consecutive views shaped as the arrays of *like*."""
    bounds = np.cumsum([0] + [a.size for a in like])
    return [flat[a:b].reshape(x.shape) for a, b, x in zip(bounds, bounds[1:], like)]


class _Worker:
    """The caller's side of one gradient worker: its pid, the caller's
    pipe ends, and the shared slot as one view per parameter."""

    def __init__(self, pid: int, requests: int, replies: int, slot: list[np.ndarray]):
        self.pid, self.requests, self.replies, self.slot = pid, requests, replies, slot

    def tell(self, data: bytes) -> None:
        try:
            _write(self.requests, data)
        except BrokenPipeError:
            raise ChildProcessError(f"gradient worker {self.pid} has ended") from None


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
        self._term, self._items, self._params, self._grads = term, items, params, grads
        self._index = {id(item): i for i, item in enumerate(items)}
        self._workers: list[_Worker] = []
        self._active: list[tuple[_Worker, int, int]] = []  # this step's workers and blocks
        n_workers = _n_blocks(batch_size, MIN_SAMPLES_PER_GRAD_WORKER) - 1
        if n_workers:
            _flush_stdio()
        try:
            while len(self._workers) < n_workers and self._fork():
                pass
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> GradientPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fork(self) -> bool:
        """Fork one more worker; False if the system refused the slot, a
        pipe or the fork."""
        size = sum(p.size for p in self._params)
        fds = []
        try:
            flat = np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), dtype=np.float64)[:size]
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
            inherited = [requests, replies] + [fd for w in self._workers
                                               for fd in (w.requests, w.replies)]
            self._serve(requests_read, replies_write, flat, inherited)
        os.close(requests_read)
        os.close(replies_write)
        self._workers.append(_Worker(pid, requests, replies, _views(flat, self._params)))
        return True

    def _serve(self, requests: int, replies: int, flat: np.ndarray, inherited: list[int]) -> None:
        """A worker's whole life: answer steps until the caller closes its
        request pipe, then exit without returning into the caller's frames
        or running its exit handlers.

        A step's reply is one message, (True, the block's loss values) with
        term 0 in the slot, or (False, the exception); each later term is
        written into the slot after a go byte from the caller and announced
        by one in return.
        """
        global _in_map
        try:
            _in_map = True
            for fd in inherited:
                os.close(fd)
            slot = _views(flat, self._params)
            terms = np.empty((0, flat.size))
            while (request := _receive(requests)) is not None:
                n, indices = request
                for p, s in zip(self._params, slot):
                    p[...] = s
                if len(terms) < len(indices):
                    terms = np.empty((len(indices), flat.size))
                try:
                    values = []
                    for row, i in zip(terms, indices):
                        values.append(self._term(self._items[i], n))
                        np.concatenate([g.ravel() for g in self._grads], out=row)
                    reply = (True, values)
                except BaseException as exc:  # re-raised by the caller
                    _write(replies, _frame((False, exc)))
                    continue
                for j, row in enumerate(terms[: len(indices)]):
                    if j and _read(requests, 1) != _GO:
                        return
                    flat[...] = row
                    if j:
                        _write(replies, _GO)
                    else:
                        _write(replies, _frame(reply))
        finally:
            os._exit(0)

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
            for worker, a, b in zip(self._workers, bounds[1:], bounds[2:]):
                for s, p in zip(worker.slot, self._params):
                    s[...] = p
                self._active.append((worker, a, b))
                worker.tell(_frame((n, [self._index[id(item)] for item in batch[a:b]])))
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
            for worker, a, b in self._active:
                reply = _receive(worker.replies)
                if reply is None:
                    raise ChildProcessError(f"the gradient worker for samples from {a} on "
                                            "ended without a result")
                ok, block_values = reply
                if not ok:
                    raise block_values
                for j in range(b - a):
                    if j:
                        worker.tell(_GO)
                        if _read(worker.replies, 1) != _GO:
                            raise ChildProcessError(f"the gradient worker for samples from "
                                                    f"{a} on ended at sample {a + j}")
                    for g, term in zip(grads, worker.slot):
                        g += term
                values.extend(block_values)
        except BaseException:
            self.close()
            raise
        self._active = []
        return values

    def close(self) -> None:
        """Close every pipe, so that each worker reads EOF or fails its
        write and exits, then reap every worker."""
        workers, self._workers, self._active = self._workers, [], []
        for worker in workers:
            os.close(worker.requests)
            os.close(worker.replies)
        for worker in workers:
            os.waitpid(worker.pid, 0)
