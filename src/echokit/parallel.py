"""Order-preserving work on every usable CPU: forked worker processes,
and short-lived threads for numpy work that releases the interpreter lock.

Evaluation predicts every sample on its own, and a training step's
gradient is a sum of per-sample terms, so both can be split across forked
processes without changing a bit.  One private core, ``_Workers``, forks
the workers: each inherits its work by fork, answers pickled requests
through its own pair of pipes, shares one ``mmap`` slot of floats with
the caller, and is reaped by one ``close``.  ``GradientPool`` is the one
owner of such workers.  It keeps them for a whole training run and does
all of its parallel work, passing parameters and running sums through the
slots: each step's gradient terms, each step's optimizer update and each
epoch's predictions.  For the update, the caller and each worker own one
contiguous range of the parameters laid end to end, hold that range's
optimizer state, and step it at the same time, each worker on an
``("update", range)`` request; Adam and SGD are elementwise, so the bits
are those of one whole step.
``map_in_order`` is a pool with no training work, opened for one map.
A convolution's output slabs are independent of each other, so
``threaded_runs`` sweeps contiguous runs of them in threads that write
straight into one shared output.  One rule, ``_n_cpus``, says how many
CPUs a piece of work may use: one inside a forked map or worker, and one
while a second thread is alive.  While workers live, numpy's OpenBLAS runs
on one thread, so workers and BLAS threads do not compete for the CPUs.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import mmap
import os
import pickle
import sys
import threading

import numpy as np

from .errors import ShapeError

# Fewest items one worker is given to predict.  A fork costs about as much
# as a few predictions, so a worker gains only over a block of many; the
# floor is the smallest block at which both evaluate_mae and evaluate_lvd
# gained fully when measured (see CHANGES.md and BENCH_*.json).
MIN_ITEMS_PER_WORKER = 32

# Fewest input values (``np.size`` of each sample's input, summed) in the
# block of a training batch one gradient worker is given.  A fork costs a
# fixed time plus a parameter-sized copy per term, and a sample's compute
# grows with its input, so the floor is counted in values: 8 frames of
# 32x32, 2 of 64x64 or 2 EF clips of 16x16x17.  It is the smallest block
# that gained in the measured training runs (see CHANGES.md and
# BENCH_*.json).
MIN_VALUES_PER_GRAD_WORKER = 2**13

# Values per block of a worker's add of its terms to the running sum: one
# block of the sum (128 KB) stays in cache while every term's block is added
# to it, where whole rows passed over the whole sum once per term.  The
# timings are in CHANGES.md.
ADD_BLOCK = 2**14

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
    variable from 2.0 on, holds there too.  The runs must write disjoint
    memory, and *fn* gains only where it releases the interpreter lock, as
    numpy's ufuncs do over large arrays.

    If *fn* raises, the exception of the first failing run is raised, the
    one a serial sweep of the runs would raise.  Everything runs in this
    thread where a ``GradientPool`` would not fork for want of CPUs: one
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


def _openblas():
    """numpy's bundled OpenBLAS, looked up through numpy's core extension,
    which links it."""
    return ctypes.CDLL(np._core._multiarray_umath.__file__)


def _blas_threads(n: int | None = None) -> int | None:
    """The thread count numpy's OpenBLAS had, which is then set to *n* if
    *n* is given; None, and nothing set, where the library or its thread
    calls are missing."""
    try:
        lib = _openblas()
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    found = get()
    if n is not None:
        set_(n)
    return found


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

    Before its first fork, the core sets numpy's OpenBLAS to one thread, in
    the caller and so in every worker, and ``close`` restores the count it
    found: workers on every CPU leave BLAS threads none to run on.  Cores
    nest, as a map inside a training run does, because each restores what
    it found.  The bytes do not depend on the count.
    """

    def __init__(self, serve, n: int, slot_size: int):
        self._serve = serve
        self.slots: list[np.ndarray] = []
        self._pids: list[int] = []
        self._requests: list[int] = []  # the caller's ends
        self._replies: list[int] = []
        self._blas_threads = None  # the count to restore at close
        if n:
            _flush_stdio()
            self._blas_threads = _blas_threads(1)
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
        if self._blas_threads is not None:
            _blas_threads(self._blas_threads)
            self._blas_threads = None


def map_in_order(fn, items) -> list:
    """``[fn(x) for x in items]``, computed on every usable CPU: the
    predictions of a ``GradientPool`` with no training work, opened for
    this one map.

    *fn* and the items reach the workers by fork, not by pickling, so *fn*
    may be a lambda and sees every module binding the caller patched; its
    results must pickle, or the pickling error is raised as *fn*'s own.
    """
    with GradientPool(fn, items) as pool:
        return pool.predict_all()


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """*flat* cut into consecutive views shaped as the arrays of *like*."""
    bounds = np.cumsum([0] + [a.size for a in like])
    return [flat[a:b].reshape(x.shape) for a, b, x in zip(bounds, bounds[1:], like)]


def _cut(arrays: list[np.ndarray], a: int, b: int) -> list[np.ndarray]:
    """Flat views of the values ``[a, b)`` of the C-contiguous *arrays*,
    laid end to end."""
    views, start = [], 0
    for x in arrays:
        lo, hi = max(a - start, 0), min(b - start, x.size)
        if lo < hi:
            views.append(x.reshape(-1)[lo:hi])
        start += x.size
    return views


def _pairs(arrays: list[np.ndarray], flat: np.ndarray, a: int, b: int) -> list[tuple]:
    """The values ``[a, b)`` as pairs of views: one of *arrays* laid end to
    end, and the same values' place in *flat*."""
    cut = _cut(arrays, a, b)
    return list(zip(cut, _views(flat[a:b], cut)))


def _outside(arrays: list[np.ndarray], flat: np.ndarray, a: int, b: int) -> list[tuple]:
    """``_pairs`` of every value but those of ``[a, b)``."""
    return _pairs(arrays, flat, 0, a) + _pairs(arrays, flat, b, flat.size)


def _add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """``for row in rows: total += row``, with its bits, one block of
    ``ADD_BLOCK`` values at a time, so that each block of *total* stays in
    cache while every row is added to it."""
    for a in range(0, total.size, ADD_BLOCK):
        block = total[a : a + ADD_BLOCK]
        for row in rows:
            block += row[a : a + ADD_BLOCK]


def _blocks(sizes: list[int], most: int) -> list[int]:
    """Bounds of the most contiguous blocks, at most *most*, of near-equal
    counts of *sizes* that each sum to ``MIN_VALUES_PER_GRAD_WORKER`` or
    more; one block if two cannot."""
    n = len(sizes)
    starts = list(itertools.accumulate(sizes, initial=0))
    for n_blocks in range(min(most, n), 1, -1):
        bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
        if all(starts[b] - starts[a] >= MIN_VALUES_PER_GRAD_WORKER
               for a, b in zip(bounds, bounds[1:])):
            return bounds
    return [0, n]


class GradientPool:
    """Forked workers that do a training run's parallel work: the
    per-sample gradient terms of each batch, each step's optimizer update,
    and each epoch's predictions.

    *predict(x)* gives one prediction of each of the *evaluated* items.
    The keyword arguments describe the training work, and a pool without
    them only predicts.  *term(item, n)* overwrites the arrays *grads* with
    *item*'s term of an *n*-sample batch gradient and returns the item's
    loss value, reading the model from the C-contiguous arrays *params*,
    which *predict* reads too.  *sizes* holds each of the *items*' count of
    input values.  *optimizer(views)* returns the ``step(grads)`` that
    updates the list of flat parameter views *views* in place from the
    gradient views *grads* shaped as them.  Workers inherit *term*,
    *predict*, *optimizer*, *items*, *evaluated* and the model by fork and
    are sent only indices, slices and ranges, so *predict* sees every
    module binding the caller patched before the pool opened.

    The pool forks one worker per usable CPU beyond the caller's, as many
    as the larger of two counts allows: the blocks of
    ``MIN_VALUES_PER_GRAD_WORKER`` input values the largest batch of
    *batch_size* items holds, and the blocks of ``MIN_ITEMS_PER_WORKER``
    the evaluated items hold.  It forks none on one usable CPU, without
    ``os.fork``, while a second thread is alive, or inside a map or worker,
    and keeps the workers it got if the system refuses a slot, a pipe or a
    fork.

    *params* laid end to end are cut into one contiguous range of
    near-equal length per process: the first for the caller, then one for
    each worker.  Each range has its own *optimizer* step, made in the
    process that owns the range at its first update, so its optimizer
    state lives only there.  While the pool is open the parameters change
    only through ``update``, which steps every range: a worker holds the
    values of its fork and then of each update.  With no worker, the
    caller's range is all of *params*.

    Each worker shares one anonymous ``mmap`` slot the size of *params*
    with the caller.  A step (``start``, then ``add_terms``, then
    ``update``) sends each worker it uses the indices of its block, and the
    worker computes its block's terms into private memory.  Once the
    caller has added its own block's terms, it writes that partial sum into
    the slot and sends ``("add",)`` at once, so a worker still computing
    adds its terms to the sum, in sample order, as soon as it has them; the
    caller reads the sum back after the last worker's add.  ``update`` then
    puts the full sum's range of each worker into its slot, where the last
    worker's add already left it, and asks every worker, also one that
    computed no terms, to step its range from there and write the new
    values back.  Meanwhile the caller steps its own range, then reads the
    workers' ranges.  Last, it writes the parameters outside each worker's
    range into its slot and sends ``("load", own)``: the worker loads them
    while the caller goes on to the next batch, and its reply, read before
    the caller next writes the slot, says the slot is free.  So a step
    sends each worker four requests.  ``predict_all`` maps *predict* over
    *evaluated* in contiguous blocks, the first in the caller.

    Use the pool as a context manager: leaving it closes every pipe and
    reaps every worker, and so does a step or map that raises.  Once its
    workers are closed, their ranges' optimizer state is gone, so any later
    step or map raises ChildProcessError.
    """

    def __init__(self, predict, evaluated, *, term=None, items=(), sizes: list[int] = (),
                 params: list[np.ndarray] = (), grads: list[np.ndarray] = (),
                 optimizer=None, batch_size: int = 1):
        if not all(p.flags.c_contiguous for p in (*params, *grads)):
            raise ShapeError("the parameters and gradients of a pool must be C-contiguous, "
                             "to be stepped in ranges of their values")
        self._params = params
        self._index = {id(item): i for i, item in enumerate(items)}
        self._sizes = sizes
        self._predict = predict
        self._optimizer = optimizer
        self._step = None  # the caller's range's optimizer step, made at the first update
        self._evaluated = evaluated = list(evaluated)
        self._active: list[tuple[int, int]] = []  # this step's workers and first samples
        self._summed = None  # the worker whose slot holds the last full gradient sum
        self._loading: set[int] = set()  # workers whose "load" reply is unread
        terms = np.empty((0, 0))  # a worker's terms of its block, one per row
        n_terms = 0
        step = None  # a worker's range's optimizer step, made at its first update

        def serve(request, slot: np.ndarray):
            """A worker's reply to ``("load", own)``: the parameters outside
            its range *own* copied from *slot*; within it, its own are the
            newest.  To ``("step", n, indices)``: the block's terms of an
            *n*-sample batch gradient computed into private memory, and their
            loss values returned.  To ``("add",)``: the terms added to *slot*
            in sample order.  To ``("update", own)``: the range *own* of the
            parameters stepped from the gradient in *slot*, and written back
            into it.  To ``("predict", block)``: *predict* over that slice of
            *evaluated*.  It refers to no pool: in a reference cycle, a pool
            would keep its slots mapped until a full collection."""
            nonlocal terms, n_terms, step
            kind = request[0]
            if kind == "load":
                for p, s in _outside(params, slot, *request[1]):
                    p[...] = s
            elif kind == "predict":
                return [predict(x) for x in evaluated[request[1]]]
            elif kind == "step":
                _, n, indices = request
                if len(terms) < len(indices):
                    terms = np.empty((len(indices), slot.size))
                n_terms, values = len(indices), []
                for row, i in zip(terms, indices):
                    values.append(term(items[i], n))
                    np.concatenate([g.ravel() for g in grads], out=row)
                return values
            elif kind == "add":
                _add_rows(slot, terms[:n_terms])
            elif kind == "update":
                own = _pairs(params, slot, *request[1])
                if step is None:
                    step = optimizer([p for p, _ in own])
                step([s for _, s in own])
                for p, s in own:
                    s[...] = p
            return None

        most = sum(sorted(sizes)[-batch_size:])  # values in the largest batch
        self._eval_blocks = _n_blocks(len(self._evaluated), MIN_ITEMS_PER_WORKER)
        n_workers = max(_n_blocks(most, MIN_VALUES_PER_GRAD_WORKER), self._eval_blocks) - 1
        total = sum(p.size for p in params)
        self._workers = _Workers(serve, n_workers, total)
        self._n_workers = len(self._workers)
        n_ranges = self._n_workers + 1
        self._bounds = [total * r // n_ranges for r in range(n_ranges + 1)]

    def __enter__(self) -> GradientPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _own(self, k: int) -> tuple[int, int]:
        """Worker *k*'s range of the parameters."""
        return self._bounds[k + 1], self._bounds[k + 2]

    def _check_workers(self) -> None:
        """Close the workers if the last step stopped part way, so that they
        are out of step; then raise ChildProcessError if the pool has closed
        workers that owned ranges of the parameters: nothing else holds their
        optimizer state."""
        if self._active:
            self.close()
        if len(self._workers) < self._n_workers:
            raise ChildProcessError(
                "the pool's workers were closed, and with them the optimizer state "
                f"of the parameters from {self._bounds[1]} on")

    def _ready(self, k: int) -> None:
        """Read worker *k*'s reply to its last ``("load", own)`` if it is
        unread: the worker has then loaded the parameters, and its slot is
        free for the caller to write."""
        if k in self._loading:
            self._loading.discard(k)
            self._workers.answer(k, "loading parameters")

    def start(self, batch, n: int) -> int:
        """Send each worker its block of *batch*, a step of an *n*-sample
        batch gradient from the parameters of the last update; returns how
        many leading samples of *batch* the caller computes itself.  *batch*
        holds items of the pool's *items*, the same objects, which are sent
        by index.

        The batch is cut into the caller's block 0 and at most one block per
        worker: as many contiguous blocks of near-equal sample counts as
        still hold ``MIN_VALUES_PER_GRAD_WORKER`` input values each.
        """
        self._check_workers()
        indices = [self._index[id(item)] for item in batch]
        bounds = _blocks([self._sizes[i] for i in indices], len(self._workers) + 1)
        try:
            for k, (a, b) in enumerate(zip(bounds[1:], bounds[2:])):
                self._active.append((k, a))
                self._workers.ask(k, ("step", n, indices[a:b]))
        except BaseException:
            self.close()
            raise
        return bounds[1]

    def add_terms(self, grads: list[np.ndarray]) -> list[float]:
        """Add the started workers' terms to *grads*, which hold the sum of
        the caller's block, in sample order; return their loss values in
        sample order.

        The running sum passes from *grads* through each worker's slot, in
        worker order, and back into *grads*, one ``("add",)`` request each,
        so it is ``((0 + c0) + c1) + ...`` as in process.  A worker is sent
        its ``("add",)`` as soon as the sum is in its slot, which the caller
        writes once the worker has loaded the last update's parameters from
        there, so a worker still computing its terms adds them to the sum
        without waiting for the caller.  A worker's exception is raised as it
        was raised there; a worker that ends without its terms raises
        ChildProcessError.
        """
        values, slots, total = [], self._workers.slots, None
        try:
            for k, a in self._active:
                what = f"for samples from {a} on"
                self._ready(k)
                if total is None:
                    for g, s in _pairs(grads, slots[k], 0, slots[k].size):
                        s[...] = g
                else:
                    slots[k][...] = total
                self._workers.ask(k, ("add",))
                values.extend(self._workers.answer(k, what))
                self._workers.answer(k, what)
                total = slots[k]
                self._summed = k
            if total is not None:
                for g, s in _pairs(grads, total, 0, total.size):
                    g[...] = s
        except BaseException:
            self.close()
            raise
        self._active = []
        return values

    def update(self, grads: list[np.ndarray]) -> None:
        """Step the parameters from the summed gradient *grads*: every
        worker steps its range in its own process while the caller steps
        its range, then the caller reads the workers' new values and sends
        each worker the values outside its range to load.  The optimizer is
        elementwise, so the bits are those of one step over all of
        *params*.  A worker that ends without its update raises
        ChildProcessError, which names the update.
        """
        self._check_workers()
        slots = self._workers.slots
        try:
            for k in range(len(self._workers)):
                own = self._own(k)
                self._ready(k)
                if k != self._summed:
                    for g, s in _pairs(grads, slots[k], *own):
                        s[...] = g
                self._workers.ask(k, ("update", own))
            self._summed = None
            if self._step is None:
                self._step = self._optimizer(_cut(self._params, 0, self._bounds[1]))
            self._step(_cut(grads, 0, self._bounds[1]))
            for k in range(len(self._workers)):
                own = self._own(k)
                self._workers.answer(k, f"updating parameters from {own[0]} on")
                for p, s in _pairs(self._params, slots[k], *own):
                    p[...] = s
            for k in range(len(self._workers)):
                own = self._own(k)
                for p, s in _outside(self._params, slots[k], *own):
                    s[...] = p
                self._workers.ask(k, ("load", own))
                self._loading.add(k)
        except BaseException:
            self.close()
            raise

    def predict_all(self) -> list:
        """``[predict(x) for x in evaluated]`` from the current parameters.

        The items are cut into contiguous blocks of near-equal counts, at
        most one per worker beyond the caller's and each at least
        ``MIN_ITEMS_PER_WORKER``.  Each worker maps one block but the
        first, which the caller maps with ``_in_map`` set, so nothing in it
        forks or starts threads.  The exception of the first failing block
        is raised, the one the list comprehension would raise; a worker
        that ends without its results raises ChildProcessError.
        """
        global _in_map
        self._check_workers()
        predict, evaluated = self._predict, self._evaluated
        n_blocks = min(self._eval_blocks, len(self._workers) + 1)
        if n_blocks == 1:
            return [predict(x) for x in evaluated]
        bounds = [len(evaluated) * k // n_blocks for k in range(n_blocks + 1)]
        try:
            for k in range(n_blocks - 1):
                self._workers.ask(k, ("predict", slice(bounds[k + 1], bounds[k + 2])))
            _in_map = True
            results = [predict(x) for x in evaluated[: bounds[1]]]
            for k in range(n_blocks - 1):
                self._ready(k)
                results.extend(self._workers.answer(k, f"mapping items from {bounds[k + 1]} on"))
            return results
        except BaseException:
            self.close()
            raise
        finally:
            _in_map = False

    def close(self) -> None:
        """Close every pipe, so that each worker reads EOF or fails its
        write and exits, then reap every worker."""
        self._active = []
        self._loading = set()
        self._workers.close()
