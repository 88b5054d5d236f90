"""map_in_order and GradientPool: forked work gives the in-process results,
errors and output, and leaves no child behind."""

import errno
import os
import signal
import sys
import threading

import numpy as np
import pytest

from echokit import ef, lvd, parallel
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


@pytest.fixture
def forks(monkeypatch):
    """Fork for any list of two or more items, as on a 2-CPU host; returns
    the pids of the children forked."""
    monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return count_forks(monkeypatch)


@pytest.fixture(params=[2, 3], ids=["2cpus", "3cpus"])
def grad_forks(request, monkeypatch):
    """A gradient worker for every CPU beyond the caller's, on a 2- or 3-CPU
    host, at one sample each; returns the pids of the children forked.

    The test runs under an alarm, so a shutdown that hangs (a worker holding
    another's pipe open) fails it instead of stalling the suite.
    """
    monkeypatch.setattr(parallel, "MIN_SAMPLES_PER_GRAD_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))

    def hung(signum, frame):
        raise TimeoutError("the forked run did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield count_forks(monkeypatch)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def n_workers():
    """Gradient workers a pool forks on the patched host."""
    return len(os.sched_getaffinity(0)) - 1


def in_process(fn, *args):
    """*fn(*args)* with every map and gradient step held in process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "MIN_ITEMS_PER_WORKER", 10**9)
        mp.setattr(parallel, "MIN_SAMPLES_PER_GRAD_WORKER", 10**9)
        return fn(*args)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(x):
    return x * x


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

    def test_results_in_item_order(self, forks):
        assert parallel.map_in_order(square, range(11)) == [x * x for x in range(11)]
        assert len(forks) == 1
        assert_no_children()


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

        with pytest.raises(DomainError, match="first item"):
            parallel.map_in_order(fail_first, range(6))
        assert len(forks) == 1
        assert_no_children()

    def test_worker_ending_without_a_result(self, forks):
        def die_in_block_1(x):
            if x == 4:
                os._exit(3)
            return x

        with pytest.raises(ChildProcessError, match="items from 3 on ended without a result"):
            parallel.map_in_order(die_in_block_1, range(6))
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
        monkeypatch.setattr(parallel, "MIN_SAMPLES_PER_GRAD_WORKER", 1)
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
    pids = count_forks(monkeypatch, refuse_from=2)
    assert parallel.map_in_order(square, range(9)) == [x * x for x in range(9)]
    assert len(pids) == 1
    assert_no_children()


# Training: forked gradient steps give in-process fit's history, best epoch
# and parameter bytes.


def run_record(graph, result):
    """What a training run must reproduce: history, best epoch and MAE, parameter bytes."""
    return ([(h.epoch, h.train_mae, h.val_mae) for h in result.history],
            result.best_epoch, result.best_val_mae,
            b"".join(p.tobytes() for p in graph.params()))


def ef_run(loss):
    # 16 training samples in batches of 6: 6, 6 and a ragged 4
    samples = build_ef_samples(EfDatasetSpec(n_videos=10, frame_dims=(12, 12), n_beats=2, seed=3))
    config = TrainConfig(learning_rate=3e-3, batch_size=6, epochs=2, seed=5, loss=loss)
    model = ef.EfModel.build(ef.EfModelConfig(frame_shape=(12, 12), encoder_dim=8, seed=5))
    model, result = ef.train_ef(model, samples, config)
    assert len(result.train) % config.batch_size == 4
    return run_record(model.graph, result)


def lvd_run():
    # 16 training frames in batches of 5: 5, 5, 5 and a ragged 1
    samples = build_lvd_samples(LvdDatasetSpec(
        n_frames=20, scene=LvdSceneParams.for_frame((32, 32)), seed=6,
    ))
    config = TrainConfig(learning_rate=3e-3, batch_size=5, epochs=2, seed=6)
    model = lvd.LvdModel.build(lvd.LvdModelConfig(frame_shape=(32, 32), channels=(4, 8, 8),
                                                  hidden=16, seed=6))
    model, result = lvd.train_lvd(model, samples, config, coord_coef=0.5)
    assert len(result.train) % config.batch_size == 1
    return run_record(model.graph, result)


N_PAIRS, FIT_SEED = 6, 4


def tiny_run(loss, n_pairs=N_PAIRS, batch_size=N_PAIRS):
    """fit on a small Conv1d model; the targets number the pairs."""
    rng = np.random.default_rng(8)
    pairs = [(rng.standard_normal((5, 2)), np.array([float(k)])) for k in range(n_pairs)]
    graph = ModelGraph([Conv1d(2, 3, 3, padding="same", rng=rng), Swish(),
                        GlobalMaxPool1d(), Dense(3, 1, rng=rng)])
    config = TrainConfig(learning_rate=1e-2, batch_size=batch_size, epochs=3, seed=FIT_SEED)
    result = fit(graph, pairs, loss, lambda part: 0.0, pairs, [], config)
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
        tiny_run("mse", 8, 8)  # below two blocks of MIN_SAMPLES_PER_GRAD_WORKER
        assert pids == []
        monkeypatch.setattr(parallel, "MIN_SAMPLES_PER_GRAD_WORKER", 4)
        tiny_run("mse", 8, 8)
        assert len(pids) == 1
        assert_no_children()

    @pytest.mark.parametrize("refuse_from", [1, 2])
    def test_refused_fork_trains_with_the_workers_it_got(self, monkeypatch, refuse_from):
        monkeypatch.setattr(parallel, "MIN_SAMPLES_PER_GRAD_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        expected = in_process(tiny_run, "mse")
        pids = count_forks(monkeypatch, refuse_from)
        assert tiny_run("mse") == expected
        assert len(pids) == refuse_from - 1
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

        with pytest.raises(ChildProcessError):
            tiny_run(planted([3], die))
        assert_no_children()

    def test_normal_return_reaps_workers(self, grad_forks):
        tiny_run("mse")
        assert len(grad_forks) == n_workers()
        assert_no_children()
