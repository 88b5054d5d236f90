"""map_in_order and GradientPool: forked work gives the in-process results,
errors and output, and leaves no child behind."""

import errno
import fcntl
import gc
import os
import pickle
import signal
import sys
import termios
import threading
import weakref

import numpy as np
import pytest

from echokit import checkpoint, convops, ef, lvd, parallel
from echokit.convops import conv_spatial
from echokit.datasets import build_ef_samples, build_lvd_samples, write_ef_dataset
from echokit.errors import DomainError, ShapeError
from echokit.nn import (
    Conv1d,
    Dense,
    GlobalMaxPool1d,
    ModelGraph,
    Swish,
    TrainConfig,
    fit,
    mse_value_and_grad,
)
from echokit.synth import EfDatasetSpec, LvdDatasetSpec, LvdSceneParams

from oracles import convolve_reference

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="forked workers need os.fork and os.sched_getaffinity",
)


def count_forks(monkeypatch, refuse_from=None):
    """Patch os.fork to record the pid of each child it forks, and to raise
    BlockingIOError from call number *refuse_from* on; returns the pids."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        if refuse_from is not None and len(pids) + 1 >= refuse_from:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def under_alarm(pids):
    """Yield *pids* to a test that runs under an alarm, so a shutdown that
    hangs (a worker holding another's pipe open) fails it instead of
    stalling the suite."""
    def hung(signum, frame):
        raise TimeoutError("the forked run did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Fork for any list of two or more items, as on a 2-CPU host, under an
    alarm; returns the pids of the children forked."""
    monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield from under_alarm(count_forks(monkeypatch))


@pytest.fixture(params=[2, 3], ids=["2cpus", "3cpus"])
def grad_forks(request, monkeypatch):
    """A gradient worker for every CPU beyond the caller's, on a 2- or 3-CPU
    host, at one sample each, under an alarm; returns the pids of the
    children forked."""
    monkeypatch.setattr(parallel, "MIN_VALUES_PER_GRAD_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    yield from under_alarm(count_forks(monkeypatch))


def refuse(monkeypatch, call, refuse_from):
    """Make os.*call* ("fork" or "pipe") raise from the call that fork
    number *refuse_from* needs on; returns the pids of the children forked.

    A pipe is refused only once refuse_from - 1 children exist, so the
    refusal does not depend on how many pipes a worker takes."""
    if call == "fork":
        return count_forks(monkeypatch, refuse_from)
    pids = count_forks(monkeypatch)
    real_pipe = os.pipe

    def refusing_pipe():
        if len(pids) + 1 >= refuse_from:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()

    monkeypatch.setattr(os, "pipe", refusing_pipe)
    return pids


def n_workers():
    """Gradient workers a pool forks on the patched host."""
    return len(os.sched_getaffinity(0)) - 1


def in_process(fn, *args):
    """*fn(*args)* with every map and gradient step held in process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "MIN_ITEMS_PER_WORKER", 10**9)
        mp.setattr(parallel, "MIN_VALUES_PER_GRAD_WORKER", 10**9)
        return fn(*args)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """This process's open file descriptors, or None where /proc/self/fd
    is missing, which makes a before-and-after comparison check nothing."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def square(x):
    return x * x


MB_FLOATS = 1 << 17  # float64 values in 1 MB, many pipe buffers' worth


def megabyte(x):
    """1 MB of float64 values that differ with *x*."""
    return np.random.default_rng(x).standard_normal(MB_FLOATS)


def wait_for_a_full_pipe(fds):
    """Return once one of the pipes among *fds* holds as many bytes as it can:
    its writer is then blocked inside a write."""
    while True:
        for fd in fds:
            try:
                capacity = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
                held = fcntl.ioctl(fd, termios.FIONREAD, b"\0\0\0\0")
            except OSError:  # not a pipe
                continue
            if int.from_bytes(held, sys.byteorder) >= capacity:
                return


def fail_from_block_1(x):
    if x == 4:
        raise DomainError(f"item {x} is out of range")
    if x == 7:  # a later failure, which sequential code never reaches
        raise ShapeError(f"item {x} has the wrong shape")
    return x


class TestForkedResults:
    def test_evaluate_mae_bit_equal_with_a_video_across_blocks(self, forks, tmp_path):
        # 3 videos of 2 beats: blocks [0, 3) and [3, 6) split video_0001
        write_ef_dataset(tmp_path, EfDatasetSpec(n_videos=3, n_beats=2, frame_dims=(8, 8),
                                                 period_frames=9, seed=1))
        samples = ef.load_ef_dataset(tmp_path)
        assert [s.video_id for s in samples[2:4]] == ["video_0001"] * 2
        model = ef.EfModel.build(ef.EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=3))
        expected = in_process(ef.evaluate_mae, model, samples)
        assert forks == []
        assert ef.evaluate_mae(model, samples) == expected
        assert len(forks) == 1
        assert_no_children()

    def test_evaluate_lvd_bit_equal(self, forks):
        samples = build_lvd_samples(LvdDatasetSpec(
            n_frames=7, seed=2,
            scene=LvdSceneParams(frame_dims=(16, 16), ivs_range=(2.0, 4.0),
                                 wall_range=(2.0, 4.0), cavity_range=(4.0, 6.0),
                                 center_jitter=1.0),
        ))
        model = lvd.LvdModel.build(lvd.LvdModelConfig(
            frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=0,
        ))
        expected = in_process(lvd.evaluate_lvd, model, samples)
        assert lvd.evaluate_lvd(model, samples) == expected
        model.graph.layers[-1].w[...] = 0.0  # every point at one spot: all degenerate
        expected = in_process(lvd.evaluate_lvd, model, samples)
        assert [d["sample"] for d in expected.degenerate] == list(range(7))
        assert lvd.evaluate_lvd(model, samples) == expected
        assert len(forks) == 2
        assert_no_children()

    def test_patched_prediction_reaches_workers(self, forks, monkeypatch):
        samples = [ef.EfSample(clip=None, ef_true=float(t)) for t in range(40, 50)]
        monkeypatch.setattr(ef, "predict_ef", lambda model, clip: 50.0)
        assert ef.evaluate_mae(None, samples) == 5.5
        assert len(forks) == 1

    def test_results_larger_than_a_pipe_buffer(self, forks):
        fds = open_fds()
        results = parallel.map_in_order(megabyte, range(6))
        assert len(forks) == 1
        assert [r.tobytes() for r in results] == [megabyte(x).tobytes() for x in range(6)]
        assert_no_children()
        assert open_fds() == fds

    def test_results_in_item_order(self, forks):
        fds = open_fds()
        assert parallel.map_in_order(square, range(11)) == [x * x for x in range(11)]
        assert len(forks) == 1
        assert_no_children()
        assert open_fds() == fds


class TestForkedErrors:
    def test_first_failing_block_raises_as_sequential(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        items = list(range(9))  # blocks [0, 3), [3, 6), [6, 9)
        with pytest.raises(DomainError) as sequential:
            [fail_from_block_1(x) for x in items]
        with pytest.raises(DomainError) as forked:
            parallel.map_in_order(fail_from_block_1, items)
        assert str(forked.value) == str(sequential.value) == "item 4 is out of range"
        assert len(forks) == 2
        assert_no_children()

    def test_error_in_callers_block_reaps_workers(self, forks):
        def fail_first(x):
            if x == 0:
                raise DomainError("first item")
            return x

        fds = open_fds()
        with pytest.raises(DomainError, match="first item"):
            parallel.map_in_order(fail_first, range(6))
        assert len(forks) == 1
        assert_no_children()
        assert open_fds() == fds

    def test_worker_ending_without_a_result(self, forks):
        def die_in_block_1(x):
            if x == 4:
                os._exit(3)
            return x

        with pytest.raises(ChildProcessError, match="items from 3 on ended without a result"):
            parallel.map_in_order(die_in_block_1, range(6))
        assert_no_children()

    @pytest.mark.skipif(not (hasattr(fcntl, "F_GETPIPE_SZ") and open_fds()),
                        reason="needs F_GETPIPE_SZ and /proc/self/fd to see a full pipe")
    def test_worker_killed_inside_a_reply_larger_than_a_pipe_buffer(self, forks):
        caller, fds = os.getpid(), open_fds()

        def kill_worker_once_blocked(x):
            if os.getpid() == caller and x == 0:
                wait_for_a_full_pipe([int(fd) for fd in set(open_fds()) - set(fds)])
                os.kill(forks[0], signal.SIGKILL)
            return megabyte(x)

        with pytest.raises(ChildProcessError, match="items from 2 on ended without a result"):
            parallel.map_in_order(kill_worker_once_blocked, range(4))
        assert len(forks) == 1
        assert_no_children()
        assert open_fds() == fds

    def test_result_that_does_not_pickle(self, forks):
        def unpicklable_in_block_1(x):
            return (lambda: x) if x == 4 else x

        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle local object"):
            parallel.map_in_order(unpicklable_in_block_1, range(6))
        assert len(forks) == 1
        assert_no_children()

    def test_planted_prediction_error_in_block_1(self, forks, monkeypatch):
        samples = [ef.EfSample(clip=object(), ef_true=50.0) for _ in range(6)]
        bad_clip = samples[4].clip

        def predict(model, clip):
            if clip is bad_clip:
                raise DomainError("model produced a non-finite prediction")
            return 50.0

        monkeypatch.setattr(ef, "predict_ef", predict)
        with pytest.raises(DomainError, match="non-finite prediction"):
            ef.evaluate_mae(None, samples)
        assert len(forks) == 1
        assert_no_children()


def test_nothing_printed_twice(forks, capfd, monkeypatch):
    stdout = open(os.dup(1), "w")  # block-buffered, as stdout into a pipe or file
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        print("before")  # still in the buffer when the map forks

        def report(x):
            print(f"item {x}")
            return x

        assert parallel.map_in_order(report, range(6)) == list(range(6))
        print("after")
    finally:
        stdout.close()
    lines = capfd.readouterr().out.splitlines()
    assert sorted(lines) == sorted(["before", "after"] + [f"item {x}" for x in range(6)])
    assert len(forks) == 1


def fork_not_allowed():
    raise AssertionError("os.fork called")


class TestInProcess:
    """Each case in which the map must not fork, with os.fork unusable."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork_not_allowed)

    def test_one_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parallel.map_in_order(square, range(8)) == [x * x for x in range(8)]

    def test_too_few_items(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 32)
        assert parallel.map_in_order(square, range(63)) == [x * x for x in range(63)]

    def test_second_thread_alive(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert parallel.map_in_order(square, range(8)) == [x * x for x in range(8)]
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_inside_a_worker(self, monkeypatch):
        monkeypatch.setattr(parallel, "_in_map", True)  # the state a worker inherits
        assert parallel.map_in_order(square, range(8)) == [x * x for x in range(8)]

    def test_no_fork_on_this_platform(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert parallel.map_in_order(square, range(8)) == [x * x for x in range(8)]

    def test_training_inside_a_worker(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_VALUES_PER_GRAD_WORKER", 1)
        monkeypatch.setattr(parallel, "_in_map", True)
        tiny_run("mse")


def test_nested_map_runs_in_process(forks):
    def inner(x):
        return parallel._in_map, parallel.map_in_order(square, range(x))

    assert parallel.map_in_order(inner, range(6)) == [
        (True, [y * y for y in range(x)]) for x in range(6)
    ]
    assert len(forks) == 1
    assert not parallel._in_map
    assert_no_children()


def test_refused_fork_maps_the_rest_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for refused in ("fork", "pipe"):
        with monkeypatch.context() as mp:
            pids = refuse(mp, refused, refuse_from=2)
            assert parallel.map_in_order(square, range(9)) == [x * x for x in range(9)]
        assert len(pids) == 1
        assert_no_children()


def test_refused_fork_raises_the_first_failing_items_error(monkeypatch):
    # 9 items on 3 CPUs: block [6, 9) gets no worker, and items 7 and 8 fail
    def fail_in_the_last_block(x):
        if x >= 7:
            raise DomainError(f"item {x} is out of range")
        return x

    monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for refused in ("fork", "pipe"):
        with monkeypatch.context() as mp:
            pids = refuse(mp, refused, refuse_from=2)
            with pytest.raises(DomainError, match="item 7 is out of range"):
                parallel.map_in_order(fail_in_the_last_block, range(9))
        assert len(pids) == 1
        assert_no_children()


# Training: forked gradient steps give in-process fit's history, best epoch
# and parameter bytes.


def run_record(graph, result):
    """What a training run must reproduce: history, best epoch and MAE, parameter bytes."""
    return ([(h.epoch, h.train_mae, h.val_mae) for h in result.history],
            result.best_epoch, result.best_val_mae,
            b"".join(p.tobytes() for p in graph.params()))


def ef_run(loss, out=None):
    """The run record of an EF fit, and its params.ctr bytes if *out* is given."""
    # 16 training samples in batches of 6: 6, 6 and a ragged 4
    samples = build_ef_samples(EfDatasetSpec(n_videos=10, frame_dims=(12, 12), n_beats=2, seed=3))
    config = TrainConfig(learning_rate=3e-3, batch_size=6, epochs=2, seed=5, loss=loss)
    model = ef.EfModel.build(ef.EfModelConfig(frame_shape=(12, 12), encoder_dim=8, seed=5))
    model, result = ef.train_ef(model, samples, config)
    assert len(result.train) % config.batch_size == 4
    return run_record(model.graph, result) + ((params_ctr(model, "ef", out),) if out else ())


def lvd_run(out=None):
    """The run record of an LVD fit, and its params.ctr bytes if *out* is given."""
    # 16 training frames in batches of 5: 5, 5, 5 and a ragged 1
    samples = build_lvd_samples(LvdDatasetSpec(
        n_frames=20, scene=LvdSceneParams.for_frame((32, 32)), seed=6,
    ))
    config = TrainConfig(learning_rate=3e-3, batch_size=5, epochs=2, seed=6)
    model = lvd.LvdModel.build(lvd.LvdModelConfig(frame_shape=(32, 32), channels=(4, 8, 8),
                                                  hidden=16, seed=6))
    model, result = lvd.train_lvd(model, samples, config, coord_coef=0.5)
    assert len(result.train) % config.batch_size == 1
    return run_record(model.graph, result) + ((params_ctr(model, "lvd", out),) if out else ())


def ef_16_params(out):
    """The params.ctr bytes of an EF fit at the benchmark's frame size and
    batch: 16 training clips of 16x16 and 17 to 21 frames, in batches of 8."""
    samples = build_ef_samples(EfDatasetSpec(n_videos=20, seed=3))
    config = TrainConfig(learning_rate=3e-3, batch_size=8, epochs=2, seed=5)
    model = ef.EfModel.build(ef.EfModelConfig(encoder_dim=16, seed=5))
    model, result = ef.train_ef(model, samples, config)
    assert len(result.train) == 16
    assert {s.clip.sub_video.shape[:2] for s in samples} == {(16, 16)}
    return params_ctr(model, "ef", out)


def lvd_params(out, frame, batch_size):
    """The params.ctr bytes of an LVD fit on 16 training frames of
    *frame* x *frame*."""
    samples = build_lvd_samples(LvdDatasetSpec(
        n_frames=20, scene=LvdSceneParams.for_frame((frame, frame)), seed=6,
    ))
    config = TrainConfig(learning_rate=3e-3, batch_size=batch_size, epochs=2, seed=6)
    model = lvd.LvdModel.build(lvd.LvdModelConfig(frame_shape=(frame, frame), seed=6))
    model, result = lvd.train_lvd(model, samples, config, coord_coef=0.5)
    assert len(result.train) == 16
    return params_ctr(model, "lvd", out)


def params_ctr(model, kind, out) -> bytes:
    checkpoint.save_checkpoint(out, kind, model.config, model.graph)
    return (out / "params.ctr").read_bytes()


N_PAIRS, FIT_SEED = 6, 4
TINY_VALUES = 10  # input values of one tiny_run pair


def tiny_score(pairs, preds) -> float:
    """Mean absolute error of one prediction per pair."""
    return float(np.mean([abs(pred - target[0]) for (_, target), pred in zip(pairs, preds)]))


def tiny_run(loss, n_pairs=N_PAIRS, batch_size=N_PAIRS, predict=None):
    """fit on a small Conv1d model; the targets number the pairs.  Each
    epoch scores *predict*'s predictions of the pairs, by default the
    model's own."""
    rng = np.random.default_rng(8)
    pairs = [(rng.standard_normal((5, 2)), np.array([float(k)])) for k in range(n_pairs)]
    graph = ModelGraph([Conv1d(2, 3, 3, padding="same", rng=rng), Swish(),
                        GlobalMaxPool1d(), Dense(3, 1, rng=rng)])
    config = TrainConfig(learning_rate=1e-2, batch_size=batch_size, epochs=3, seed=FIT_SEED)
    if predict is None:
        def predict(pair):
            return float(graph.forward(pair[0])[0])
    result = fit(graph, pairs, loss, predict, tiny_score, pairs, [], config)
    return run_record(graph, result)


def planted(positions, plant):
    """An MSE loss that returns *plant(target)* instead for the samples at
    *positions* of the first batch; from 3 on, workers compute them on 2
    and 3 CPUs."""
    order = np.random.default_rng(FIT_SEED + 1).permutation(N_PAIRS)
    marked = {float(order[p]) for p in positions}

    def loss(pred, target):
        if target[0] in marked:
            return plant(target[0])
        return mse_value_and_grad(pred, target)

    return loss


class TestForkedTraining:
    @pytest.mark.parametrize("loss", ["mae", "mse"])
    def test_ef_bit_equal(self, grad_forks, loss):
        expected = in_process(ef_run, loss)
        assert grad_forks == []
        assert ef_run(loss) == expected
        assert len(grad_forks) == n_workers()
        assert_no_children()

    def test_lvd_objective_bit_equal(self, grad_forks):
        expected = in_process(lvd_run)
        assert lvd_run() == expected
        assert len(grad_forks) == n_workers()
        assert_no_children()

    def test_ragged_last_batch_bit_equal(self, grad_forks):
        # 7 pairs in batches of 3: 3, 3 and 1 on every CPU count
        expected = in_process(tiny_run, "mse", 7, 3)
        assert tiny_run("mse", 7, 3) == expected
        assert len(grad_forks) == n_workers()
        assert_no_children()

    def test_batch_of_one_block_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pids = count_forks(monkeypatch)
        tiny_run("mse", 8, 8)  # 80 values: below two blocks of MIN_VALUES_PER_GRAD_WORKER
        assert pids == []
        monkeypatch.setattr(parallel, "MIN_VALUES_PER_GRAD_WORKER", 4 * TINY_VALUES)
        tiny_run("mse", 8, 8)
        assert len(pids) == 1
        assert_no_children()

    def test_ef_batch_of_8_clips_forks_one_worker(self, usable_cpus, monkeypatch, tmp_path):
        # 2 clips of 16x16x17 or more hold 8,192 values: the batch splits 4 + 4
        usable_cpus(2)
        expected = in_process(ef_16_params, tmp_path / "in_process")
        pids = count_forks(monkeypatch)
        assert ef_16_params(tmp_path / "forked") == expected
        assert len(pids) == 1
        assert_no_children()

    @pytest.mark.parametrize("batch_size, n_forks", [(8, 0), (16, 1)])
    def test_lvd_32x32_forks_at_8_frames_a_block(self, usable_cpus, monkeypatch, tmp_path,
                                                 batch_size, n_forks):
        # 8 frames of 32x32 hold 8,192 values, 4 frames too few to fork for
        usable_cpus(2)
        expected = in_process(lvd_params, tmp_path / "in_process", 32, batch_size)
        pids = count_forks(monkeypatch)
        assert lvd_params(tmp_path / "forked", 32, batch_size) == expected
        assert len(pids) == n_forks
        assert_no_children()

    @pytest.mark.parametrize("refuse_from, refused", [(1, "fork"), (2, "fork"), (1, "pipe"), (2, "pipe")],
                             ids=["1", "2", "1-pipe", "2-pipe"])
    def test_refused_fork_trains_with_the_workers_it_got(self, monkeypatch, refuse_from, refused):
        monkeypatch.setattr(parallel, "MIN_VALUES_PER_GRAD_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        expected = in_process(tiny_run, "mse")
        pids = refuse(monkeypatch, refused, refuse_from)
        assert tiny_run("mse") == expected
        assert len(pids) == refuse_from - 1
        assert_no_children()


    def test_closed_pool_freed_without_the_cycle_collector(self, grad_forks):
        # A pool in a reference cycle would keep its workers' slots mapped
        # until a full collection, and peak RSS would grow with every fit.
        gc.disable()
        try:
            with parallel.GradientPool(None, [], term=lambda item, n: 0.0, items=[0, 1],
                                       sizes=[1, 1], params=[np.zeros(2)], grads=[np.zeros(2)],
                                       batch_size=2) as pool:
                freed = weakref.ref(pool)
            del pool
            assert freed() is None
        finally:
            gc.enable()
        assert len(grad_forks) == 1
        assert_no_children()


class TestForkedTrainingErrors:
    def test_worker_exception_raised_as_in_process(self, grad_forks):
        def out_of_range(target):
            raise DomainError(f"target {target:g} is out of range")

        loss = planted([3, 5], out_of_range)  # 3 comes first in sample order
        with pytest.raises(DomainError) as sequential:
            in_process(tiny_run, loss)
        with pytest.raises(DomainError) as forked:
            tiny_run(loss)
        assert str(forked.value) == str(sequential.value)
        assert len(grad_forks) == n_workers()
        assert_no_children()

    def test_error_in_callers_block_reaps_workers(self, grad_forks):
        def out_of_range(target):
            raise DomainError(f"target {target:g} is out of range")

        loss = planted([0, 4], out_of_range)  # 0 is in the caller's block
        with pytest.raises(DomainError) as sequential:
            in_process(tiny_run, loss)
        with pytest.raises(DomainError) as forked:
            tiny_run(loss)
        assert str(forked.value) == str(sequential.value)
        assert len(grad_forks) == n_workers()
        assert_no_children()

    def test_nan_loss_in_a_worker_block(self, grad_forks):
        loss = planted([4], lambda target: (float("nan"), np.zeros(1)))
        message = "training loss is nan at epoch 0, batch 0"
        with pytest.raises(DomainError, match=message):
            in_process(tiny_run, loss)
        with pytest.raises(DomainError, match=message):
            tiny_run(loss)
        assert len(grad_forks) == n_workers()
        assert_no_children()

    def test_worker_killed_mid_step(self, grad_forks):
        caller = os.getpid()

        def die(target):
            assert os.getpid() != caller, "the planted sample ran in the calling process"
            os.kill(os.getpid(), signal.SIGKILL)

        fds = open_fds()
        with pytest.raises(ChildProcessError):
            tiny_run(planted([3], die))
        assert_no_children()
        assert open_fds() == fds

    def test_normal_return_reaps_workers(self, grad_forks):
        fds = open_fds()
        tiny_run("mse")
        assert len(grad_forks) == n_workers()
        assert_no_children()
        assert open_fds() == fds


# Evaluation on the gradient pool: each epoch's predictions run on the
# workers fit already forked.


@pytest.fixture
def eval_forks(grad_forks, monkeypatch):
    """grad_forks, with the evaluated items also cut into one block per CPU."""
    monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
    return grad_forks


def raise_for(targets, error=DomainError):
    """A tiny_run prediction that raises *error* for the pairs numbered in
    *targets*: from 3 on, workers predict them on 2 and 3 CPUs."""
    def predict(pair):
        if pair[1][0] in targets:
            raise error(f"pair {pair[1][0]:g} cannot be predicted")
        return 0.0

    return predict


class TestEvaluationOnThePool:
    @pytest.mark.parametrize("run", [lambda out: ef_run("mae", out), lvd_run],
                             ids=["ef", "lvd"])
    def test_history_best_epoch_and_params_bit_equal(self, eval_forks, run, tmp_path):
        expected = in_process(run, tmp_path / "in_process")
        assert eval_forks == []
        assert run(tmp_path / "forked") == expected
        assert len(eval_forks) == n_workers()
        assert_no_children()

    def test_only_the_pools_workers_fork(self, grad_forks):
        # 70 evaluated pairs make more than two blocks of MIN_ITEMS_PER_WORKER,
        # and tiny_run trains 3 epochs: no epoch forks again.
        assert 70 > 2 * parallel.MIN_ITEMS_PER_WORKER
        expected = in_process(tiny_run, "mse", 70, 35)
        assert tiny_run("mse", 70, 35) == expected
        assert len(grad_forks) == n_workers()
        assert_no_children()

    @pytest.mark.parametrize("targets", [(3.0, 5.0), (0.0, 4.0)], ids=["worker", "caller"])
    def test_predict_error_raised_as_in_process(self, eval_forks, targets):
        with pytest.raises(DomainError) as sequential:
            in_process(tiny_run, "mse", N_PAIRS, N_PAIRS, raise_for(targets))
        with pytest.raises(DomainError) as forked:
            tiny_run("mse", predict=raise_for(targets))
        assert str(forked.value) == str(sequential.value) == f"pair {targets[0]:g} cannot be predicted"
        assert len(eval_forks) == n_workers()
        assert_no_children()

    def test_worker_killed_during_the_evaluation(self, eval_forks):
        caller = os.getpid()

        def die(pair):
            if pair[1][0] == 4.0:
                assert os.getpid() != caller, "pair 4 was predicted in the calling process"
                os.kill(os.getpid(), signal.SIGKILL)
            return 0.0

        fds = open_fds()
        with pytest.raises(ChildProcessError, match="mapping items from"):
            tiny_run("mse", predict=die)
        assert_no_children()
        assert open_fds() == fds

    def test_patched_predict_ef_reaches_the_workers(self, eval_forks, monkeypatch):
        monkeypatch.setattr(ef, "predict_ef", lambda model, clip: 50.0)
        samples = build_ef_samples(EfDatasetSpec(n_videos=10, frame_dims=(12, 12), n_beats=2,
                                                 seed=3))
        config = TrainConfig(learning_rate=3e-3, batch_size=6, epochs=2, seed=5)
        model = ef.EfModel.build(ef.EfModelConfig(frame_shape=(12, 12), encoder_dim=8, seed=5))
        _, result = ef.train_ef(model, samples, config)
        expected = (ef.baseline_mae(result.train, 50.0), ef.baseline_mae(result.val, 50.0))
        assert [(h.train_mae, h.val_mae) for h in result.history] == [expected] * 2
        assert len(eval_forks) == n_workers()
        assert_no_children()


# numpy's OpenBLAS on one thread while workers live.

needs_openblas = pytest.mark.skipif(parallel._blas_threads() is None,
                                    reason="numpy's OpenBLAS thread calls were not found")


@pytest.fixture
def blas_at_2():
    """numpy's OpenBLAS on 2 threads for the test; its count is restored after."""
    found = parallel._blas_threads(2)
    yield
    parallel._blas_threads(found)


def blas_threads_term(item, n):
    """A gradient term that reports, as its loss value, the BLAS thread
    count where it runs."""
    return float(parallel._blas_threads())


@needs_openblas
class TestBlasPin:
    def test_map_worker_and_caller_on_one_thread(self, forks, blas_at_2):
        assert parallel.map_in_order(lambda x: parallel._blas_threads(), range(2)) == [1, 1]
        assert len(forks) == 1
        assert parallel._blas_threads() == 2
        assert_no_children()

    def test_gradient_workers_and_a_nested_map(self, grad_forks, blas_at_2, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
        items, grads = list(range(n_workers() + 1)), [np.zeros(1)]
        with parallel.GradientPool(None, [], term=blas_threads_term, items=items,
                                   sizes=[1] * len(items), params=[np.zeros(1)], grads=grads,
                                   batch_size=len(items)) as pool:
            assert parallel._blas_threads() == 1
            assert pool.start(items, len(items)) == 1
            assert pool.add_terms(grads) == [1.0] * n_workers()
            assert parallel.map_in_order(square, range(4)) == [0, 1, 4, 9]
            assert parallel._blas_threads() == 1
        assert parallel._blas_threads() == 2
        assert len(grad_forks) == 2 * n_workers()
        assert_no_children()

    def test_count_restored_after_a_step_that_raises(self, grad_forks, blas_at_2):
        def fail_in_a_worker(item, n):
            if item:
                raise DomainError(f"item {item} is out of range")
            return 0.0

        items, grads = list(range(n_workers() + 1)), [np.zeros(1)]
        with parallel.GradientPool(None, [], term=fail_in_a_worker, items=items,
                                   sizes=[1] * len(items), params=[np.zeros(1)], grads=grads,
                                   batch_size=len(items)) as pool:
            pool.start(items, len(items))
            with pytest.raises(DomainError, match="item 1 is out of range"):
                pool.add_terms(grads)
            assert parallel._blas_threads() == 2
        assert parallel._blas_threads() == 2
        assert_no_children()

    @pytest.mark.parametrize("missing", ["symbol", "library"])
    def test_missing_thread_calls_change_nothing(self, grad_forks, blas_at_2, monkeypatch,
                                                 missing):
        def load():
            if missing == "library":
                raise OSError("cannot open shared object file")
            return object()  # a library without the thread calls

        expected = in_process(tiny_run, "mse")
        with monkeypatch.context() as mp:
            mp.setattr(parallel, "_openblas", load)
            assert parallel._blas_threads(1) is None
            assert tiny_run("mse") == expected
        assert len(grad_forks) == n_workers()
        assert parallel._blas_threads() == 2
        assert_no_children()


@needs_openblas
@pytest.mark.parametrize("train", [ef_16_params, lambda out: lvd_params(out, 64, 16)],
                         ids=["ef", "lvd"])
def test_params_bytes_equal_at_1_and_2_blas_threads(train, tmp_path):
    found = parallel._blas_threads()
    try:
        params = []
        for threads in (1, 2):
            parallel._blas_threads(threads)
            params.append(in_process(train, tmp_path / f"threads_{threads}"))
    finally:
        parallel._blas_threads(found)
    assert params[0] == params[1]


# Threaded runs: the caller's run 0 and one short-lived thread per other run.

RUNS_OF_7 = [(0, 2), (2, 4), (4, 7)]  # 7 pieces over 3 CPUs


class TestThreadedRuns:
    @pytest.fixture(autouse=True)
    def three_cpus(self, usable_cpus):
        usable_cpus(3)

    def test_runs_cover_the_pieces(self, thread_starts):
        where = {}
        parallel.threaded_runs(lambda a, b: where.__setitem__((a, b), threading.get_ident()), 7)
        assert sorted(where) == RUNS_OF_7
        here = threading.get_ident()
        assert [where[run] == here for run in RUNS_OF_7] == [True, False, False]
        assert len(thread_starts) == 2
        assert not any(thread.is_alive() for thread in thread_starts)

    @pytest.mark.parametrize("failing", [(1, 2), (0, 2), (0, 1), (2,)])
    def test_first_failing_run_raises_as_serial(self, thread_starts, failing):
        # Every failing run but the last waits until the last has raised.
        last_failed = threading.Event()

        def sweep(a, b):
            run = [r for r, _ in RUNS_OF_7].index(a)
            if run not in failing:
                return
            if run == failing[-1]:
                last_failed.set()
            else:
                assert last_failed.wait(10.0)
            raise DomainError(f"run {run} failed")

        with pytest.raises(DomainError, match=f"run {failing[0]} failed"):
            parallel.threaded_runs(sweep, 7)
        assert len(thread_starts) == 2
        assert not any(thread.is_alive() for thread in thread_starts)

    @pytest.mark.parametrize("refuse_from", [1, 2])
    def test_refused_thread_runs_in_the_caller(self, monkeypatch, refuse_from):
        started = []
        real_start = threading.Thread.start

        def start(thread):
            if len(started) + 1 >= refuse_from:
                raise RuntimeError("can't start new thread")
            real_start(thread)
            started.append(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        where = {}
        parallel.threaded_runs(lambda a, b: where.__setitem__((a, b), threading.get_ident()), 7)
        here = [run for run, ident in where.items() if ident == threading.get_ident()]
        assert sorted(where) == RUNS_OF_7
        assert sorted(here) == [RUNS_OF_7[0], *RUNS_OF_7[refuse_from:]]
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("state", ["one_cpu", "in_map", "second_thread"])
    def test_one_run_in_the_caller(self, monkeypatch, usable_cpus, state):
        if state == "one_cpu":
            usable_cpus(1)
        elif state == "in_map":
            monkeypatch.setattr(parallel, "_in_map", True)  # the state a worker inherits
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        if state == "second_thread":
            thread.start()
        calls = []
        try:
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", thread_not_allowed)
                parallel.threaded_runs(lambda a, b: calls.append((a, b)), 7)
        finally:
            release.set()
            if state == "second_thread":
                thread.join(timeout=10.0)
        assert calls == [(0, 7)] and not thread.is_alive()


def thread_not_allowed(thread):
    raise AssertionError("Thread.start called")


def conv_case(monkeypatch):
    """A video and spatial kernel that conv_spatial sweeps in 7 slabs, and
    the output bytes of the unblocked reference."""
    rng = np.random.default_rng(31)
    video, kernel = rng.standard_normal((13, 6, 9)), rng.standard_normal((5, 3))
    monkeypatch.setattr(convops, "SLAB_BYTES", 2 * video[0].nbytes)
    want = convolve_reference(video, kernel[:, :, None], "same").tobytes()
    return lambda: conv_spatial(video, kernel), want


class TestThreadsAndForks:
    def test_map_forks_right_after_a_threaded_sweep(self, forks, thread_starts, monkeypatch):
        convolve, want = conv_case(monkeypatch)
        assert convolve().tobytes() == want
        assert len(thread_starts) == 1
        assert parallel.map_in_order(square, range(8)) == [x * x for x in range(8)]
        assert len(forks) == 1
        assert_no_children()

    def test_sweep_in_a_forked_map_stays_on_one_thread(self, forks, thread_starts, monkeypatch):
        convolve, want = conv_case(monkeypatch)

        def item(x):
            before = len(thread_starts)
            same = convolve().tobytes() == want
            return parallel._in_map, len(thread_starts) - before, same

        assert parallel.map_in_order(item, range(4)) == [(True, 0, True)] * 4
        assert len(forks) == 1 and thread_starts == []
        assert_no_children()
