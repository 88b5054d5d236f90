"""map_in_order: forked blocks give the in-process results, errors and output."""

import os
import sys
import threading

import pytest

from echokit import ef, lvd, parallel
from echokit.datasets import build_lvd_samples, write_ef_dataset
from echokit.errors import DomainError, ShapeError
from echokit.synth import EfDatasetSpec, LvdDatasetSpec, LvdSceneParams

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="forked workers need os.fork and os.sched_getaffinity",
)


@pytest.fixture
def forks(monkeypatch):
    """Fork for any list of two or more items, as on a 2-CPU host; returns
    the pids of the children forked."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(parallel, "MIN_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def in_process(fn, *args):
    """*fn(*args)* with the map held in process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "MIN_ITEMS_PER_WORKER", 10**9)
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


def test_nested_map_runs_in_process(forks):
    def inner(x):
        return parallel._in_map, parallel.map_in_order(square, range(x))

    assert parallel.map_in_order(inner, range(6)) == [
        (True, [y * y for y in range(x)]) for x in range(6)
    ]
    assert len(forks) == 1
    assert not parallel._in_map
    assert_no_children()
