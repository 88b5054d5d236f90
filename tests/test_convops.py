import sys
import threading
import warnings

import numpy as np
import pytest

from echokit import convops, parallel
from echokit.convops import (
    OpCounter,
    SeparableKernel,
    conv3d_full,
    conv_factored,
    conv_spatial,
    conv_temporal,
    flop_model,
    kron_kernel,
)
from echokit.errors import ConfigurationError, ShapeError, ValidationError
from echokit.nn import DepthwiseSeparable2d

from oracles import (
    conv1d_loops,
    conv2d_loops,
    conv3d_loops,
    convolve_reference,
    depthwise_separable_loops,
)


def delta_kernel(shape):
    k = np.zeros(shape)
    k[tuple(d // 2 for d in shape)] = 1.0
    return k


class TestConv3dFull:
    def test_delta_identity(self):
        v = np.random.default_rng(0).standard_normal((4, 4, 4))
        out = conv3d_full(v, delta_kernel((3, 3, 3)), "same")
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_all_ones_valid(self):
        out = conv3d_full(np.ones((3, 3, 3)), np.ones((3, 3, 3)), "valid")
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(27.0)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_matches_loop_oracle(self, padding):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((6, 6, 6))
        k = rng.standard_normal((3, 3, 3))
        got = conv3d_full(v, k, padding)
        want = conv3d_loops(v, k, padding)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_valid_output_dims(self):
        out = conv3d_full(np.zeros((6, 5, 7)), np.zeros((3, 2, 4)), "valid")
        assert out.shape == (4, 4, 4)

    def test_even_kernel_same_rejected(self):
        with pytest.raises(ConfigurationError):
            conv3d_full(np.zeros((4, 4, 4)), np.zeros((2, 3, 3)), "same")

    def test_oversized_kernel_valid_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_full(np.zeros((2, 2, 2)), np.zeros((3, 3, 3)), "valid")

    def test_nonfinite_rejected(self):
        v = np.zeros((3, 3, 3))
        v[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            conv3d_full(v, np.ones((1, 1, 1)), "same")

    def test_linearity(self):
        rng = np.random.default_rng(3)
        v1 = rng.standard_normal((5, 5, 5))
        v2 = rng.standard_normal((5, 5, 5))
        k = rng.standard_normal((3, 3, 3))
        a, b = 2.5, -1.25
        lhs = conv3d_full(a * v1 + b * v2, k, "same")
        rhs = a * conv3d_full(v1, k, "same") + b * conv3d_full(v2, k, "same")
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestKronKernel:
    def test_scalar(self):
        k = kron_kernel(SeparableKernel(np.array([[1.0]]), np.array([1.0])))
        assert k.shape == (1, 1, 1)
        assert k[0, 0, 0] == 1.0

    def test_explicit_2x2x2(self):
        sep = SeparableKernel(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([10.0, 20.0]))
        k = kron_kernel(sep)
        np.testing.assert_array_equal(k[:, :, 0], [[10, 20], [30, 40]])
        np.testing.assert_array_equal(k[:, :, 1], [[20, 40], [60, 80]])

    def test_sum_product_property(self):
        rng = np.random.default_rng(11)
        sep = SeparableKernel(rng.standard_normal((3, 3)), rng.standard_normal(3))
        assert kron_kernel(sep).sum() == pytest.approx(
            sep.spatial.sum() * sep.temporal.sum()
        )


class TestConvSpatial:
    def test_delta_identity_every_frame(self):
        v = np.random.default_rng(1).standard_normal((5, 5, 3))
        out = conv_spatial(v, delta_kernel((3, 3)), "same")
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_single_frame_equals_full_with_unit_temporal(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((5, 5, 1))
        ks = rng.standard_normal((3, 3))
        spatial_out = conv_spatial(v, ks, "same")
        full_out = conv3d_full(v, kron_kernel(SeparableKernel(ks, np.array([1.0]))), "same")
        np.testing.assert_allclose(spatial_out, full_out, atol=1e-12)

    def test_frame_matches_2d_oracle(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((5, 5, 4))
        ks = rng.standard_normal((3, 3))
        out = conv_spatial(v, ks, "same")
        np.testing.assert_allclose(out[:, :, 2], conv2d_loops(v[:, :, 2], ks, "same"), atol=1e-12)


class TestConvTemporal:
    def test_unit_kernel_identity(self):
        v = np.random.default_rng(5).standard_normal((3, 3, 6))
        np.testing.assert_allclose(conv_temporal(v, np.array([1.0]), "same"), v)

    def test_averaging_constant_in_time(self):
        v = np.tile(np.random.default_rng(6).standard_normal((3, 3))[:, :, None], (1, 1, 5))
        out = conv_temporal(v, np.array([0.5, 0.5]), "valid")
        assert out.shape == (3, 3, 4)
        np.testing.assert_allclose(out, v[:, :, :4], atol=1e-15)

    def test_pixel_series_matches_1d_oracle(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 4, 9))
        kt = rng.standard_normal(3)
        out = conv_temporal(v, kt, "same")
        np.testing.assert_allclose(out[1, 2, :], conv1d_loops(v[1, 2, :], kt, "same"), atol=1e-12)


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stage, unit_axis", [(conv_spatial, 2), (conv_temporal, (0, 1))],
                         ids=["spatial", "temporal"])
def test_stage_is_full_convolution_on_unit_axis_kernel(stage, unit_axis, padding):
    rng = np.random.default_rng(25)
    video = rng.standard_normal((7, 6, 9))
    kernel = rng.standard_normal((5, 3) if stage is conv_spatial else (3,))
    counter, full_counter = OpCounter(), OpCounter()
    got = stage(video, kernel, padding, counter)
    want = conv3d_full(video, np.expand_dims(kernel, unit_axis), padding, full_counter)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert (counter.multiplies, counter.adds) == (full_counter.multiplies, full_counter.adds)


class TestConvFactored:
    def test_equivalence_8x8x8(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((8, 8, 8))
        sep = SeparableKernel(rng.standard_normal((3, 3)), rng.standard_normal(3))
        full = conv3d_full(v, kron_kernel(sep), "same")
        fact = conv_factored(v, sep, "same")
        rel = np.max(np.abs(full - fact)) / np.max(np.abs(full))
        assert rel <= 1e-10

    def test_delta_identity(self):
        v = np.random.default_rng(10).standard_normal((5, 5, 5))
        sep = SeparableKernel(delta_kernel((3, 3)), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(conv_factored(v, sep, "same"), v, atol=1e-15)

    def test_counter_ratio_343_56(self):
        # 7*7*7 = 343 multiplies per element for the full form versus
        # 7*7 + 7 = 56 for the factored form.
        rng = np.random.default_rng(12)
        v = rng.standard_normal((9, 9, 9))
        sep = SeparableKernel(rng.standard_normal((7, 7)), rng.standard_normal(7))
        c_full, c_fact = OpCounter(), OpCounter()
        conv3d_full(v, kron_kernel(sep), "same", c_full)
        conv_factored(v, sep, "same", c_fact)
        n = v.size
        assert c_full.multiplies == 343 * n
        assert c_fact.multiplies == 56 * n
        assert c_full.multiplies * 56 == c_fact.multiplies * 343


# Each form with a kernel five rows tall, so it spans several slabs.
SLAB_OPS = {
    "spatial": (conv_spatial, (5, 3)),
    "temporal": (conv_temporal, (3,)),
    "full": (conv3d_full, (5, 3, 3)),
}


def reference(op, video, kernel, padding, counter=None):
    """*op*'s output through oracles.convolve_reference, stage by stage;
    a stage is the full form on its unit-axis kernel."""
    if op is conv_factored:
        spatial = reference(conv_spatial, video, kernel.spatial, padding, counter)
        return reference(conv_temporal, spatial, kernel.temporal, padding, counter)
    unit_axis = {conv_spatial: 2, conv_temporal: (0, 1), conv3d_full: ()}[op]
    return convolve_reference(video, np.expand_dims(kernel, unit_axis), padding, counter)


def reference_and_swept(monkeypatch, op, video, kernel, padding, slab_bytes=None):
    """Outputs and counters of *op* through the unblocked reference and
    through the slab sweep; *slab_bytes* of None keeps SLAB_BYTES."""
    ref_counter = OpCounter()
    expected = reference(op, video, kernel, padding, ref_counter)
    if slab_bytes is not None:
        monkeypatch.setattr(convops, "SLAB_BYTES", slab_bytes(expected[0].nbytes))
    counter = OpCounter()
    got = op(video, kernel, padding, counter)
    return expected, ref_counter, got, counter


def assert_same_bytes(expected, ref_counter, got, counter):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert (counter.multiplies, counter.adds) == (ref_counter.multiplies, ref_counter.adds)


class TestSlabSweep:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("name", sorted(SLAB_OPS))
    @pytest.mark.parametrize("slab_rows", [2, 3])
    def test_matches_unblocked_reference(self, monkeypatch, name, padding, slab_rows):
        # 11 output rows in "same" and 7 in "valid" for the 5-row kernels:
        # several slabs, a shorter last one, and a kernel taller than a slab.
        op, kernel_dims = SLAB_OPS[name]
        rng = np.random.default_rng(21)
        video = rng.standard_normal((11, 6, 9))
        result = reference_and_swept(monkeypatch, op, video, rng.standard_normal(kernel_dims),
                                     padding, lambda row: slab_rows * row)
        rows = result[0].shape[0]
        assert rows > slab_rows and rows % slab_rows
        assert_same_bytes(*result)

    @pytest.mark.parametrize("name", sorted(SLAB_OPS))
    def test_slab_below_one_row_takes_one_row(self, monkeypatch, name):
        op, kernel_dims = SLAB_OPS[name]
        rng = np.random.default_rng(22)
        video = rng.standard_normal((7, 4, 5))
        assert_same_bytes(*reference_and_swept(
            monkeypatch, op, video, rng.standard_normal(kernel_dims), "same", lambda row: 1))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("name", sorted(SLAB_OPS))
    def test_one_row_output(self, monkeypatch, name, padding):
        op, kernel_dims = SLAB_OPS[name]
        rng = np.random.default_rng(23)
        nx = 1 if padding == "same" or name == "temporal" else kernel_dims[0]
        video = rng.standard_normal((nx, 6, 9))
        result = reference_and_swept(monkeypatch, op, video, rng.standard_normal(kernel_dims),
                                     padding, lambda row: 2 * row)
        assert result[0].shape[0] == 1
        assert_same_bytes(*result)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_default_slab_size_on_a_multi_slab_video(self, monkeypatch, padding):
        rng = np.random.default_rng(24)
        video = rng.standard_normal((50, 64, 64))
        assert video.nbytes > 2 * convops.SLAB_BYTES
        sep = SeparableKernel(rng.standard_normal((3, 3)), rng.standard_normal(3))
        assert_same_bytes(*reference_and_swept(monkeypatch, conv_factored, video, sep, padding))
        assert_same_bytes(*reference_and_swept(
            monkeypatch, conv3d_full, video, kron_kernel(sep), padding))

    @pytest.mark.parametrize("name", sorted(SLAB_OPS))
    def test_empty_kernel_rejected(self, name):
        op, kernel_dims = SLAB_OPS[name]
        with pytest.raises(ShapeError, match=">= 1"):
            op(np.ones((4, 4, 4)), np.ones((0, *kernel_dims[1:])), "valid")


# Each form's kernel; the spatial stage of "factored" is five rows tall too.
THREADED_KERNELS = {"full": (5, 3, 3), "spatial": (5, 3), "temporal": (3,), "factored": (5, 3, 3)}


def threaded_case(name, padding, n_slabs):
    """*name*'s op, a video whose output has 2 * n_slabs - 1 rows, a kernel,
    and the slab size of two rows of the op's widest stage output: n_slabs
    slabs in every stage, the last of one row."""
    rng = np.random.default_rng(n_slabs)
    dims = THREADED_KERNELS[name]
    mx, mt = (1 if name == "temporal" else 5), dims[-1]
    rows, nt = 2 * n_slabs - 1, 9
    video = rng.standard_normal((rows + (mx - 1 if padding == "valid" else 0), 6, nt))
    if name == "factored":
        kernel = SeparableKernel(rng.standard_normal(dims[:2]), rng.standard_normal(mt))
        out_nt = nt - mt + 1 if padding == "valid" else nt
        # the spatial stage's rows hold nt values where the output's hold out_nt
        return conv_factored, video, kernel, lambda row: 2 * (row // out_nt) * nt
    return SLAB_OPS[name][0], video, rng.standard_normal(dims), lambda row: 2 * row


def flop_model_of(name, video_dims, padding):
    """flop_model's count for *name*; a stage is the full form on its unit-axis kernel."""
    unit_axis = {"spatial": (5, 3, 1), "temporal": (1, 1, 3)}
    kernel_dims = unit_axis.get(name, THREADED_KERNELS[name])
    return flop_model(video_dims, kernel_dims, "factored" if name == "factored" else "full",
                      padding)


def count_sweeps(monkeypatch):
    """Record the slab count of each sweep that goes to parallel.threaded_runs."""
    calls = []
    real = parallel.threaded_runs

    def spy(fn, n_pieces):
        calls.append(n_pieces)
        return real(fn, n_pieces)

    monkeypatch.setattr(parallel, "threaded_runs", spy)
    return calls


class TestThreadedSweep:
    """Two or more slabs are swept in contiguous runs, one per usable CPU:
    the bytes and counts of the unblocked reference, and one thread started
    per run beyond the caller's."""

    @pytest.mark.parametrize("cpus", [2, 3], ids=["2cpus", "3cpus"])
    @pytest.mark.parametrize("n_slabs", [2, 3, 7])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("name", sorted(THREADED_KERNELS))
    def test_matches_reference_and_flop_model(self, monkeypatch, thread_starts, usable_cpus,
                                              name, padding, n_slabs, cpus):
        # 3 slabs over 2 CPUs and 7 over 2 or 3 split unevenly.
        usable_cpus(cpus)
        op, video, kernel, slab_bytes = threaded_case(name, padding, n_slabs)
        sweeps = count_sweeps(monkeypatch)
        result = reference_and_swept(monkeypatch, op, video, kernel, padding, slab_bytes)
        assert_same_bytes(*result)
        assert result[3].multiplies == flop_model_of(name, video.shape, padding)
        stages = 2 if name == "factored" else 1
        assert sweeps == [n_slabs] * stages
        assert len(thread_starts) == stages * (min(cpus, n_slabs) - 1)
        assert not any(thread.is_alive() for thread in thread_starts)

    @pytest.mark.parametrize("name", sorted(THREADED_KERNELS))
    def test_one_slab_makes_no_threaded_call(self, monkeypatch, thread_starts, usable_cpus,
                                             name):
        usable_cpus(2)
        op, video, kernel, _ = threaded_case(name, "same", 4)
        sweeps = count_sweeps(monkeypatch)
        assert_same_bytes(*reference_and_swept(monkeypatch, op, video, kernel, "same"))
        assert sweeps == [] and thread_starts == []

    @pytest.mark.parametrize("cpus", [2, 3], ids=["2cpus", "3cpus"])
    def test_refused_thread_sweeps_in_the_caller(self, monkeypatch, usable_cpus, cpus):
        def refuse(self):
            raise RuntimeError("can't start new thread")

        usable_cpus(cpus)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        op, video, kernel, slab_bytes = threaded_case("full", "same", 7)
        assert_same_bytes(*reference_and_swept(monkeypatch, op, video, kernel, "same",
                                               slab_bytes))

    def test_more_runs_than_cores_under_fast_switching(self, monkeypatch, thread_starts,
                                                       usable_cpus):
        # 23 one-row slabs over 8 "CPUs", with a thread switch every microsecond:
        # a run that wrote another's rows or lost a tap would change the bytes.
        usable_cpus(8)
        op, video, kernel, _ = threaded_case("full", "same", 12)
        expected, ref_counter, _, _ = reference_and_swept(monkeypatch, op, video, kernel, "same")
        monkeypatch.setattr(convops, "SLAB_BYTES", expected[0].nbytes)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                counter = OpCounter()
                assert_same_bytes(expected, ref_counter, op(video, kernel, "same", counter),
                                  counter)
        finally:
            sys.setswitchinterval(previous)
        assert len(thread_starts) == 10 * 7

    @pytest.mark.parametrize("slab_rows", [None, 1], ids=["1slab", "9slabs"])
    def test_callers_errstate_reaches_every_run(self, monkeypatch, thread_starts, usable_cpus,
                                                slab_rows):
        # Only the last row overflows: with 9 slabs over 3 CPUs, in a thread's run.
        usable_cpus(3)
        video = np.ones((9, 4, 5))
        video[-1] = 1e300
        if slab_rows:
            monkeypatch.setattr(convops, "SLAB_BYTES", slab_rows * video[0].nbytes)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            conv3d_full(video, np.full((1, 1, 1), 1e10), "same")
        assert len(thread_starts) == (2 if slab_rows else 0)
        assert not any(thread.is_alive() for thread in thread_starts)
        with np.errstate(over="ignore"):
            assert np.isinf(conv3d_full(video, np.full((1, 1, 1), 1e10), "same")[-1]).all()


# Each form's kernel shape, and the video columns that get the large (or
# tiny) value; the kernel's first tap gets the other one.  No kept output
# multiplies the two, but the positions past each output row that the flat
# windows compute and drop do.
DROPPED_CASES = {
    "spatial": (conv_spatial, (1, 3), [(slice(None), -1)]),
    "temporal": (conv_temporal, (3,), [(..., -1)]),
    "full": (conv3d_full, (1, 3, 3), [(slice(None), -1), (..., -1)]),
}


class TestDroppedPositions:
    """Positions that a slab computes and drops never warn or raise; kept
    ones warn and raise under the caller's errstate."""

    @pytest.mark.parametrize("tiny", [False, True], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("name", sorted(DROPPED_CASES))
    def test_stay_silent(self, name, padding, tiny):
        op, kernel_dims, columns = DROPPED_CASES[name]
        value, tap = (1e-300, 1e-10) if tiny else (1e300, 1e10)
        video = np.ones((6, 5, 8))
        for column in columns:
            video[column] = value
        kernel = np.ones(kernel_dims)
        kernel.flat[0] = tap
        want = reference(op, video, kernel, padding)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = op(video, kernel, padding)
            with np.errstate(all="raise"):
                trapped = op(video, kernel, padding)
        assert np.isfinite(got).all()
        assert got.tobytes() == trapped.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(DROPPED_CASES))
    def test_kept_underflow_warns_and_raises(self, name):
        op, kernel_dims, _ = DROPPED_CASES[name]
        video, kernel = np.full((6, 5, 8), 1e-300), np.full(kernel_dims, 1e-10)
        with np.errstate(under="warn"), pytest.warns(RuntimeWarning, match="underflow"):
            op(video, kernel, "same")
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            op(video, kernel, "same")


# (video dims, spatial kernel dims, padding) for the forms whose kernel has no
# temporal extent: nt = 1 and 2, ny = 1, one-row outputs, and one-row and
# one-column kernels.  With nt = 1 a padded plane holds one value, so a tap's
# stride ties with the output's and every slab takes the tap loop.
PLANE_SHAPES = {
    "nt1_same": ((9, 6, 1), (3, 3), "same"),
    "nt1_valid": ((9, 6, 1), (3, 5), "valid"),
    "nt2_same": ((9, 6, 2), (5, 3), "same"),
    "nt2_valid": ((9, 6, 2), (3, 3), "valid"),
    "ny1_same": ((9, 1, 5), (3, 1), "same"),
    "ny1_valid": ((9, 1, 5), (5, 1), "valid"),
    "one_row_same": ((1, 6, 4), (3, 5), "same"),
    "one_row_valid": ((3, 6, 4), (3, 5), "valid"),
    "row_kernel": ((7, 6, 3), (1, 5), "same"),
    "column_kernel": ((7, 6, 3), (5, 1), "valid"),
    "one_tap": ((7, 5, 3), (1, 1), "same"),
}


def plane_kernel_op(name, kernel, nt):
    """The form *name* and its kernel argument, for a 2-D spatial *kernel*
    and videos nt frames long."""
    if name == "factored":
        temporal = [0.5, -1.5, 2.0] if nt >= 3 else [-0.75]
        return conv_factored, SeparableKernel(kernel, np.array(temporal))
    if name == "full":
        return conv3d_full, kernel[:, :, None]
    return conv_spatial, kernel


def count_einsum_slabs(monkeypatch):
    """Record the output length of each slab that convops runs through np.einsum."""
    calls = []
    real = convops._einsum_taps

    def spy(out, *args):
        calls.append(len(out))
        return real(out, *args)

    monkeypatch.setattr(convops, "_einsum_taps", spy)
    return calls


class TestEinsumSlabs:
    """A slab whose kernel has no temporal extent sums all its taps in one
    np.einsum call, with the tap loop's bytes, warnings and raises."""

    @pytest.mark.parametrize("slab_rows", [None, 1, 2], ids=["1slab", "1row", "2rows"])
    @pytest.mark.parametrize("shape", sorted(PLANE_SHAPES))
    @pytest.mark.parametrize("name", ["spatial", "factored", "full"])
    def test_matches_reference(self, monkeypatch, name, shape, slab_rows):
        video_dims, kernel_dims, padding = PLANE_SHAPES[shape]
        rng = np.random.default_rng(31)
        video = rng.standard_normal(video_dims)
        op, kernel = plane_kernel_op(name, rng.standard_normal(kernel_dims), video_dims[2])
        if slab_rows:
            (_, ny, nt), my = video_dims, kernel_dims[1]
            out_ny = ny if padding == "same" else ny - my + 1
            monkeypatch.setattr(convops, "SLAB_BYTES", slab_rows * out_ny * nt * 8)
        slabs = count_einsum_slabs(monkeypatch)
        result = reference_and_swept(monkeypatch, op, video, kernel, padding)
        assert_same_bytes(*result)
        assert bool(slabs) == (video_dims[2] > 1 and convops._einsum_rounds_separately())

    @pytest.mark.parametrize("slab_rows", [None, 2], ids=["1slab", "2rows"])
    @pytest.mark.parametrize("name", ["spatial", "full"])
    def test_zero_region_under_negative_taps_keeps_minus_zero(self, monkeypatch, name,
                                                              slab_rows):
        # einsum starts each sum at +0.0; the tap loop starts at the first
        # product, -0.0 here, and so does every later sum in the zero rows.
        rng = np.random.default_rng(32)
        video = rng.standard_normal((9, 7, 4))
        video[3:6] = 0.0
        op, kernel = plane_kernel_op(name, -rng.uniform(0.5, 1.0, (3, 3)), 4)
        if slab_rows:
            monkeypatch.setattr(convops, "SLAB_BYTES", slab_rows * video[0].nbytes)
        slabs = count_einsum_slabs(monkeypatch)
        want = reference(op, video, kernel, "same")
        got = op(video, kernel, "same")
        assert (want[4] == 0).all() and np.signbit(want[4]).all()
        assert got.tobytes() == want.tobytes()
        assert bool(slabs) == convops._einsum_rounds_separately()

    @pytest.mark.parametrize("kind, taps", [("over", [1e10, 1.0, 1.0]),
                                            ("invalid", [1e10, -1e10, 1.0])],
                             ids=["overflow", "inf_minus_inf"])
    @pytest.mark.parametrize("name", ["spatial", "full"])
    def test_kept_faults_warn_and_raise(self, monkeypatch, name, kind, taps):
        # Row 2 is 1e300: its kept products overflow, and with taps of both
        # signs their sums are inf - inf.
        video = np.ones((6, 5, 4))
        video[2] = 1e300
        op, kernel = plane_kernel_op(name, np.array([taps]), 4)
        slabs = count_einsum_slabs(monkeypatch)
        with np.errstate(all="ignore"):
            want = reference(op, video, kernel, "same")
            got = op(video, kernel, "same")
        assert got.tobytes() == want.tobytes() and not np.isfinite(got[2]).all()
        match = {"over": "overflow", "invalid": "invalid"}[kind]
        with np.errstate(all="ignore", **{kind: "warn"}):
            with pytest.warns(RuntimeWarning, match=match):
                op(video, kernel, "same")
        with np.errstate(all="ignore", **{kind: "raise"}):
            with pytest.raises(FloatingPointError, match=match):
                op(video, kernel, "same")
        assert len(slabs) == 3 * convops._einsum_rounds_separately()


class TestEinsumProbe:
    """Slabs run through np.einsum only where a probe, run once per process,
    shows that it rounds each product and each sum as the tap loop does."""

    @pytest.fixture(autouse=True)
    def fresh_verdict(self):
        convops._einsum_rounds_separately.cache_clear()
        yield
        convops._einsum_rounds_separately.cache_clear()

    def test_one_ulp_off_is_refused_and_every_slab_loops(self, monkeypatch):
        real = np.einsum
        sums = []

        def one_ulp_off(*operands, out, **kwargs):
            # a stand-in for a build whose einsum fuses each multiply and add
            sums.append(out.size)
            real(*operands, out=out, **kwargs)
            return np.nextafter(out, np.inf, out=out)

        monkeypatch.setattr(np, "einsum", one_ulp_off)
        rng = np.random.default_rng(33)
        video, kernel = rng.standard_normal((9, 6, 4)), rng.standard_normal((3, 3))
        monkeypatch.setattr(convops, "SLAB_BYTES", 2 * video[0].nbytes)
        want = convolve_reference(video, kernel[:, :, None], "same")
        assert conv_spatial(video, kernel, "same").tobytes() == want.tobytes()
        assert conv3d_full(video, kernel[:, :, None], "same").tobytes() == want.tobytes()
        assert len(sums) == 1 and not convops._einsum_rounds_separately()

    def test_verdict_is_computed_once_per_process(self, monkeypatch):
        rng = np.random.default_rng(34)
        video, kernel = rng.standard_normal((9, 6, 4)), rng.standard_normal((3, 3))
        monkeypatch.setattr(convops, "SLAB_BYTES", 2 * video[0].nbytes)
        for _ in range(3):
            conv_spatial(video, kernel, "same")
            conv3d_full(video, kernel[:, :, None], "valid")
        info = convops._einsum_rounds_separately.cache_info()
        assert (info.misses, info.hits) == (1, 5)


# Shape, then the widths of its trailing axes; zero widths, unequal widths
# and widths for fewer axes than the array has.
ZERO_PAD_CASES = {
    "rank2": ((5, 3), (2, 0)),
    "rank3_unequal": ((4, 5, 2), (1, 2, 0)),
    "rank3_last_axis_only": ((2, 3, 4), (3,)),
    "rank4_zero": ((2, 3, 4, 2), (0, 0, 0)),
    "rank5": ((2, 1, 3, 4, 2), (1, 2, 0)),
    "rank5_every_axis": ((1, 2, 3, 2, 3), (1, 0, 2, 1, 1)),
}


@pytest.mark.parametrize("shape, widths", list(ZERO_PAD_CASES.values()), ids=list(ZERO_PAD_CASES))
def test_zero_pad_matches_np_pad(shape, widths):
    x = np.random.default_rng(26).standard_normal(shape)
    x.reshape(-1)[:4] = [-0.0, np.nan, np.inf, -np.inf]
    lead = x.ndim - len(widths)
    want = np.pad(x, [(0, 0)] * lead + [(w, w) for w in widths])
    got = convops.zero_pad(x, widths)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def depthwise_separable(x, depthwise, pointwise):
    """The "same"-padded DepthwiseSeparable2d layer with these weights, zero bias."""
    c_in, k = depthwise.shape[:2]
    layer = DepthwiseSeparable2d(c_in, pointwise.shape[1], k)
    layer.depthwise[...] = depthwise
    layer.pointwise[...] = pointwise
    return layer.forward(x, {})


class TestDepthwiseSeparable:
    def test_single_channel_identity(self):
        x = np.random.default_rng(13).standard_normal((4, 4, 1))
        out = depthwise_separable(x, delta_kernel((3, 3))[None, :, :], np.array([[1.0]]))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_pointwise_channel_sum(self):
        x = np.random.default_rng(14).standard_normal((4, 4, 2))
        dw = np.stack([delta_kernel((3, 3))] * 2)
        out = depthwise_separable(x, dw, np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(out[:, :, 0], x.sum(axis=2), atol=1e-14)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 6, 3))
        dw = rng.standard_normal((3, 3, 3))
        pw = rng.standard_normal((3, 2))
        got = depthwise_separable(x, dw, pw)
        want = depthwise_separable_loops(x, dw, pw, "same")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            DepthwiseSeparable2d(3, 1, 3).forward(np.zeros((4, 4, 2)), {})


class TestFlopModel:
    def test_full_64_cubed(self):
        assert flop_model((64, 64, 64), (7, 7, 7), "full", "same") == 89_915_392

    def test_factored_64_cubed(self):
        assert flop_model((64, 64, 64), (7, 7, 7), "factored", "same") == 14_680_064

    def test_ratio_property_same_padding(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            mx, my, mt = rng.choice([1, 3, 5, 7], size=3)
            dims = tuple(int(d) for d in rng.integers(8, 20, size=3))
            full = flop_model(dims, (mx, my, mt), "full", "same")
            fact = flop_model(dims, (mx, my, mt), "factored", "same")
            assert full * (mx * my + mt) == fact * (mx * my * mt)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("mode", ["full", "factored"])
    def test_matches_measured_counts(self, mode, padding):
        rng = np.random.default_rng(17)
        for _ in range(5):
            kdims = tuple(int(k) for k in rng.choice([1, 3, 5], size=3))
            vdims = tuple(int(d) for d in rng.integers(5, 10, size=3))
            video = rng.standard_normal(vdims)
            sep = SeparableKernel(
                rng.standard_normal(kdims[:2]), rng.standard_normal(kdims[2])
            )
            counter = OpCounter()
            if mode == "full":
                conv3d_full(video, kron_kernel(sep), padding, counter)
            else:
                conv_factored(video, sep, padding, counter)
            assert counter.multiplies == flop_model(vdims, kdims, mode, padding)

    def test_factored_strictly_cheaper(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            mx, my, mt = rng.choice([3, 5, 7], size=3)
            dims = tuple(int(d) for d in rng.integers(8, 16, size=3))
            assert flop_model(dims, (mx, my, mt), "factored", "same") < flop_model(
                dims, (mx, my, mt), "full", "same"
            )


class TestFactorizationProperty:
    def test_factored_equals_full_over_random_instances(self):
        # 200 seeded draws over both paddings, kernels up to 7x7x7,
        # videos up to 16^3; worst relative error must stay below 1e-10.
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(200):
            mx, my, mt = (int(k) for k in rng.choice([1, 3, 5, 7], size=3))
            nx = int(rng.integers(mx, 17))
            ny = int(rng.integers(my, 17))
            nt = int(rng.integers(mt, 17))
            padding = "same" if trial % 2 == 0 else "valid"
            v = rng.standard_normal((nx, ny, nt))
            sep = SeparableKernel(rng.standard_normal((mx, my)), rng.standard_normal(mt))
            full = conv3d_full(v, kron_kernel(sep), padding)
            fact = conv_factored(v, sep, padding)
            scale = max(np.max(np.abs(full)), np.max(np.abs(fact)), 1e-300)
            worst = max(worst, np.max(np.abs(full - fact)) / scale)
        assert worst <= 1e-10


class TestOpCounter:
    def test_monotone_and_resettable(self):
        c = OpCounter()
        c.add(5, 4)
        c.add(2, 1)
        assert (c.multiplies, c.adds) == (7, 5)
        c.reset()
        assert (c.multiplies, c.adds) == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OpCounter().add(-1, 0)

    def test_dot_product_add_count(self):
        c = OpCounter()
        conv3d_full(np.ones((3, 3, 3)), np.ones((3, 3, 3)), "valid", c)
        assert c.multiplies == 27
        assert c.adds == 26
