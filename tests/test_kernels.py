"""Bit-identical equivalence suite for the kernel backends.

Every available backend (numba, cext, numpy) must produce *exactly* the
same bits as the pure-NumPy reference — ``np.array_equal``, never
``allclose`` — across edge shapes: empty batches, single neurons, single
replicas, non-contiguous views, float32 and float64 state.  The golden
fixtures in ``tests/golden/kernels_golden.npz`` additionally pin the
learning-rule outputs to the values the reference produced when first
recorded, so a refactor that drifts the math by one ulp fails loudly.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.loihi.microcode import parse_rule

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "kernels_golden.npz"

AVAILABLE = kernels.available_backends()
COMPILED = tuple(b for b in AVAILABLE if b != "numpy")

FLOATS = (np.float64, np.float32)


def _run_on(backend, fn):
    with kernels.forced_backend(backend):
        return fn()


def _assert_backends_identical(fn):
    """``fn()`` (returning a tuple of arrays) is bitwise backend-invariant."""
    ref = _run_on("numpy", fn)
    for backend in AVAILABLE:
        got = _run_on(backend, fn)
        assert len(got) == len(ref)
        for i, (r, g) in enumerate(zip(ref, got)):
            assert g.dtype == r.dtype, (backend, i)
            assert g.shape == r.shape, (backend, i)
            assert np.array_equal(g, r), \
                f"{backend} output {i} differs from numpy reference"


def _noncontig(arr):
    """Embed ``arr`` in a larger buffer so the view is non-contiguous."""
    if arr.ndim == 1:
        base = np.zeros(arr.shape[0] * 2, dtype=arr.dtype)
        view = base[::2]
    else:
        base = np.zeros((arr.shape[0], arr.shape[1] * 2), dtype=arr.dtype)
        view = base[:, ::2]
    view[...] = arr
    assert not view.flags.c_contiguous or view.size <= 1
    return view


# ----------------------------------------------------------------------
# Cross-backend bit identity
# ----------------------------------------------------------------------

class TestIFStep:
    SHAPES = [(0,), (1,), (7,), (0, 4), (1, 5), (3, 17)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("soft_reset", [True, False])
    def test_multistep_identity(self, shape, dtype, soft_reset):
        rng = np.random.default_rng(7)
        drives = rng.uniform(-0.5, 1.5, (6,) + shape)

        def run():
            v = np.zeros(shape, dtype=dtype)
            refrac = np.zeros(shape, dtype=np.int64)
            spikes = [kernels.if_step(v, refrac, d.astype(dtype), 0.75,
                                      soft_reset=soft_reset, refractory=2)
                      for d in drives]
            return (v, refrac, *spikes)

        _assert_backends_identical(run)

    def test_grid_exact_drive(self):
        """A drive exactly on the 1/T grid must spike identically."""
        def run():
            v = np.zeros(8)
            refrac = np.zeros(8, dtype=np.int64)
            spikes = [kernels.if_step(v, refrac, np.full(8, 0.25), 1.0)
                      for _ in range(8)]
            return (v, *spikes)

        _assert_backends_identical(run)

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_noncontiguous_state(self, dtype):
        rng = np.random.default_rng(11)
        v0 = rng.uniform(0, 1, (4, 6)).astype(dtype)

        def run():
            v = _noncontig(v0.copy())
            refrac = np.zeros((4, 6), dtype=np.int64)
            s = kernels.if_step(v, refrac, np.full((4, 6), 0.4, dtype=dtype),
                                0.75)
            return (np.ascontiguousarray(v), s)

        _assert_backends_identical(run)


class TestCubaStep:
    CONFIGS = [
        # (decay_u, decay_v, soft_reset, refractory, floor, non_spiking)
        (4096, 0, True, 0, True, False),      # paper's IF configuration
        (512, 128, True, 2, True, False),     # generic CUBA LIF
        (512, 128, False, 0, False, False),   # hard reset, signed membrane
        (4096, 0, True, 0, True, True),       # compare-only aux compartment
    ]

    @pytest.mark.parametrize("shape", [(0,), (1,), (6,), (3, 9)])
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_multistep_identity(self, shape, cfg):
        decay_u, decay_v, soft, refr, floor, non_spiking = cfg
        rng = np.random.default_rng(13)
        syn = rng.integers(-4000, 9000, (5,) + shape)
        bias = rng.integers(0, 2000, shape)

        def run():
            u = np.zeros(shape, dtype=np.int64)
            v = np.zeros(shape, dtype=np.int64)
            refrac = np.zeros(shape, dtype=np.int64)
            fired = [kernels.cuba_step(u, v, refrac, bias, s, decay_u,
                                       decay_v, 256 << 6, soft_reset=soft,
                                       refractory=refr, floor_at_zero=floor,
                                       non_spiking=non_spiking)
                     for s in syn]
            return (u, v, refrac, *fired)

        _assert_backends_identical(run)

    def test_noncontiguous_state(self):
        rng = np.random.default_rng(17)
        u0 = rng.integers(0, 5000, (3, 8))
        v0 = rng.integers(0, 20000, (3, 8))

        def run():
            u = _noncontig(u0.copy())
            v = _noncontig(v0.copy())
            refrac = np.zeros((3, 8), dtype=np.int64)
            fired = kernels.cuba_step(u, v, refrac, 0, 6000, 512, 128,
                                      256 << 6)
            return (np.ascontiguousarray(u), np.ascontiguousarray(v), fired)

        _assert_backends_identical(run)


class TestTraceUpdate:
    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (1, 6), (4, 11)])
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("impulse,decay", [(1, 1.0), (16, 0.7),
                                               (127, 0.5)])
    def test_multistep_identity(self, shape, dtype, impulse, decay):
        rng = np.random.default_rng(19)
        spikes = rng.random((6,) + shape) < 0.4

        def run():
            values = np.zeros(shape, dtype=dtype)
            for s in spikes:
                kernels.trace_update(values, s, impulse, decay, 127)
            return (values,)

        _assert_backends_identical(run)

    def test_noncontiguous_state(self):
        rng = np.random.default_rng(23)
        v0 = rng.uniform(0, 100, (3, 10))

        def run():
            values = _noncontig(v0.copy())
            kernels.trace_update(values, v0 > 50, 16, 0.9, 127)
            return (np.ascontiguousarray(values),)

        _assert_backends_identical(run)


class TestDeltaW:
    @pytest.mark.parametrize("n_pre,n_post", [(0, 4), (4, 0), (1, 1),
                                              (31, 17)])
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_eq7_identity(self, n_pre, n_post, dtype):
        rng = np.random.default_rng(29)
        h_hat = rng.random(n_post).astype(dtype)
        h = rng.random(n_post).astype(dtype)
        pre = rng.random(n_pre).astype(dtype)

        _assert_backends_identical(
            lambda: (kernels.delta_w(h_hat, h, pre, 0.1),))

    @pytest.mark.parametrize("B", [0, 1, 2, 16])
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_eq7_batch_identity(self, B, dtype):
        rng = np.random.default_rng(31)
        h_hat = rng.random((B, 13)).astype(dtype)
        h = rng.random((B, 13)).astype(dtype)
        pre = rng.random((B, 9)).astype(dtype)

        _assert_backends_identical(
            lambda: (kernels.delta_w_batch(h_hat, h, pre, 0.1, mean=False),))
        if B > 0:
            _assert_backends_identical(
                lambda: (kernels.delta_w_batch(h_hat, h, pre, 0.1,
                                               mean=True),))

    def test_empty_batch_mean_raises_on_every_backend(self):
        empty = np.zeros((0, 5))
        for backend in AVAILABLE:
            with kernels.forced_backend(backend):
                with pytest.raises(ValueError, match="empty batch"):
                    kernels.delta_w_batch(empty, empty, np.zeros((0, 3)),
                                          0.1, mean=True)

    @pytest.mark.parametrize("n_pre,n_post", [(0, 4), (1, 1), (31, 17)])
    def test_eq12_identity(self, n_pre, n_post):
        rng = np.random.default_rng(37)
        h_hat = rng.random(n_post)
        z = rng.random(n_post) * 2
        pre = rng.random(n_pre)

        _assert_backends_identical(
            lambda: (kernels.delta_w_loihi(h_hat, z, pre, 0.25),))


class TestSumOfProducts:
    RULES = ["dt = y1",
             "dw = 2^-2 * y1 * x1 - 2^-3 * t * x1",
             "dw = 2^-4 * y1 * (x1 + 2) - 2^-6 * t * w + 3"]

    @pytest.mark.parametrize("rule_text", RULES)
    @pytest.mark.parametrize("R,S,D", [(None, 1, 1), (None, 12, 7),
                                       (1, 5, 4), (3, 12, 7)])
    def test_identity(self, rule_text, R, S, D):
        rng = np.random.default_rng(41)
        pre_shape = (S,) if R is None else (R, S)
        post_shape = (D,) if R is None else (R, D)
        syn_shape = (S, D) if R is None else (R, S, D)
        x0 = (rng.random(pre_shape) < 0.5).astype(np.int64)
        x1 = rng.integers(0, 128, pre_shape)
        y0 = (rng.random(post_shape) < 0.5).astype(np.int64)
        y1 = rng.integers(0, 128, post_shape)
        tag = rng.integers(-255, 256, syn_shape)
        w = rng.integers(-127, 128, syn_shape)
        rule = parse_rule(rule_text)

        _assert_backends_identical(
            lambda: (kernels.sum_of_products(rule, x0, x1, y0, y1, tag, w),))


# ----------------------------------------------------------------------
# Golden regression fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return np.load(GOLDEN)


@pytest.mark.parametrize("backend", AVAILABLE)
class TestGoldenFixtures:
    """Every backend must reproduce the recorded reference outputs exactly."""

    def test_eq7(self, golden, backend):
        with kernels.forced_backend(backend):
            dw = kernels.delta_w(golden["eq7_h_hat"], golden["eq7_h"],
                                 golden["eq7_pre"], float(golden["eq7_eta"]))
        assert np.array_equal(dw, golden["eq7_dw"])

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_eq7_batch(self, golden, backend, reduction):
        with kernels.forced_backend(backend):
            dw = kernels.delta_w_batch(
                golden["eq7b_h_hat"], golden["eq7b_h"], golden["eq7b_pre"],
                float(golden["eq7b_eta"]), mean=(reduction == "mean"))
        assert np.array_equal(dw, golden[f"eq7b_dw_{reduction}"])

    def test_eq12(self, golden, backend):
        with kernels.forced_backend(backend):
            dw = kernels.delta_w_loihi(golden["eq12_h_hat"], golden["eq12_z"],
                                       golden["eq12_pre"],
                                       float(golden["eq12_eta"]))
        assert np.array_equal(dw, golden["eq12_dw"])

    @pytest.mark.parametrize("case", ["sop1", "sopR"])
    def test_microcode(self, golden, backend, case):
        rules = [parse_rule(str(t)) for t in golden["rules"]]
        with kernels.forced_backend(backend):
            for k, rule in enumerate(rules):
                dz = kernels.sum_of_products(
                    rule, golden[f"{case}_x0"], golden[f"{case}_x1"],
                    golden[f"{case}_y0"], golden[f"{case}_y1"],
                    golden[f"{case}_t"], golden[f"{case}_w"])
                assert np.array_equal(dz, golden[f"{case}_dz{k}"]), \
                    f"rule {k} drifted from the golden fixture"


# ----------------------------------------------------------------------
# Bound kernels: identical to the unbound ones, re-resolved on change
# ----------------------------------------------------------------------

def _assert_identical(got, ref):
    assert len(got) == len(ref)
    for i, (g, r) in enumerate(zip(got, ref)):
        assert g.dtype == r.dtype and g.shape == r.shape, i
        assert np.array_equal(g, r), f"bound output {i} differs"


def _assert_fresh(spikes):
    """Every step returned its own array, not a view of a shared buffer."""
    for a, b in zip(spikes, spikes[1:]):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("backend", AVAILABLE)
class TestBoundKernels:
    @pytest.mark.parametrize("shape", [(0,), (1,), (6,), (3, 9)])
    @pytest.mark.parametrize("cfg", TestCubaStep.CONFIGS)
    def test_cuba_step(self, backend, shape, cfg):
        decay_u, decay_v, soft, refr, floor, non_spiking = cfg
        rng = np.random.default_rng(13)
        syn = rng.integers(-4000, 9000, (5,) + shape)
        bias = rng.integers(0, 2000, shape)
        kw = dict(soft_reset=soft, refractory=refr, floor_at_zero=floor,
                  non_spiking=non_spiking)

        def run(bound):
            u, v, refrac = (np.zeros(shape, dtype=np.int64)
                            for _ in range(3))
            if bound:
                step = kernels.bind_cuba_step(u, v, refrac, bias.copy(),
                                              decay_u, decay_v, 256 << 6,
                                              **kw)
                fired = [step(s) for s in syn]
            else:
                fired = [kernels.cuba_step(u, v, refrac, bias, s, decay_u,
                                           decay_v, 256 << 6, **kw)
                         for s in syn]
            return (u, v, refrac, *fired)

        with kernels.forced_backend(backend):
            got = run(bound=True)
            _assert_identical(got, run(bound=False))
        _assert_fresh(got[3:])

    @pytest.mark.parametrize("shape", TestIFStep.SHAPES)
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("soft_reset,refractory",
                             [(True, 0), (False, 0), (True, 2)])
    def test_if_step(self, backend, shape, dtype, soft_reset, refractory):
        rng = np.random.default_rng(7)
        drives = rng.uniform(-0.5, 1.5, (6,) + shape)

        def run(bound):
            v = np.zeros(shape, dtype=dtype)
            refrac = np.zeros(shape, dtype=np.int64)
            kw = dict(soft_reset=soft_reset, refractory=refractory)
            if bound:
                step = kernels.bind_if_step(v, refrac, 0.75, **kw)
                spikes = [step(d) for d in drives]  # float64 -> dtype cast
            else:
                spikes = [kernels.if_step(v, refrac, d, 0.75, **kw)
                          for d in drives]
            return (v, refrac, *spikes)

        with kernels.forced_backend(backend):
            got = run(bound=True)
            _assert_identical(got, run(bound=False))
        _assert_fresh(got[2:])

    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (1, 6), (4, 11)])
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("impulse,decay", [(1, 1.0), (16, 0.7),
                                               (127, 0.5)])
    def test_trace_update(self, backend, shape, dtype, impulse, decay):
        spikes = np.random.default_rng(19).random((6,) + shape) < 0.4

        def run(bound):
            values = np.zeros(shape, dtype=dtype)
            step = kernels.bind_trace_update(values, impulse, decay, 127)
            for s in spikes:
                if bound:
                    assert step(s) is None
                else:
                    kernels.trace_update(values, s, impulse, decay, 127)
            return (values,)

        with kernels.forced_backend(backend):
            _assert_identical(run(bound=True), run(bound=False))

    def test_operand_broadcast_and_cast_like_unbound(self, backend):
        """Scalars and (n,) rows broadcast; floats truncate as asarray."""
        def run(bound):
            u, v, refrac = (np.zeros((2, 4), dtype=np.int64)
                            for _ in range(3))
            bias = np.zeros((2, 4), dtype=np.int64)
            operands = (7000, np.arange(4) * 3000, np.full(4, 9000.9))
            if bound:
                step = kernels.bind_cuba_step(u, v, refrac, bias, 512, 128,
                                              256 << 6)
                fired = [step(x) for x in operands]
            else:
                fired = [kernels.cuba_step(u, v, refrac, bias, x, 512, 128,
                                           256 << 6) for x in operands]
            return (u, v, *fired)

        with kernels.forced_backend(backend):
            _assert_identical(run(bound=True), run(bound=False))


class TestBindValidation:
    def test_rejects_views_dtypes_and_shape_mismatch(self):
        v = np.zeros((3, 8))
        refrac = np.zeros((3, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.bind_if_step(v[:, ::2], refrac[:, ::2], 1.0)
        with pytest.raises(TypeError, match="dtype"):
            kernels.bind_if_step(v.astype(np.int64), refrac, 1.0)
        with pytest.raises(ValueError, match="shape"):
            kernels.bind_if_step(v, refrac[:2], 1.0)
        with pytest.raises(TypeError, match="dtype"):
            kernels.bind_cuba_step(refrac, refrac.copy(), refrac.copy(),
                                   v, 4096, 0, 64)
        with pytest.raises(TypeError):
            kernels.bind_trace_update([0.0, 1.0], 1, 1.0, 127)

    def test_bound_to_is_an_identity_check(self):
        values = np.zeros(4)
        step = kernels.bind_trace_update(values, 1, 1.0, 127)
        assert step.bound_to(values)
        assert not step.bound_to(values.copy())
        assert not step.bound_to(values, values)

    def test_bound_calls_are_profiled_under_the_kernel_name(self):
        from repro import obs
        values = np.zeros(4)
        step = kernels.bind_trace_update(values, 1, 1.0, 127)
        before = obs.kernel_profiler.snapshot().get(
            "trace_update", {"calls": 0})["calls"]
        sample = obs.kernel_profiler.sample
        obs.kernel_profiler.sample = 1
        try:
            for _ in range(3):
                step(np.ones(4, dtype=bool))
        finally:
            obs.kernel_profiler.sample = sample
        after = obs.kernel_profiler.snapshot()["trace_update"]["calls"]
        assert after - before == 3


# ----------------------------------------------------------------------
# Event-driven synaptic delivery
# ----------------------------------------------------------------------

#: The largest ``weight_scale`` the on-chip builder can produce
#: (``ScaleScheme`` at the top of the threshold range).
MAX_WEIGHT_SCALE = 132104

#: (spike shape, weight shape) of the three delivery layouts.
DELIVERY_LAYOUTS = {
    "single": ((9,), (9, 5)),
    "shared": ((3, 9), (9, 5)),
    "per_replica": ((3, 9), (3, 9, 5)),
}


def _dense_delivery(out, weight, spikes, weight_scale):
    """The dense formula ``ConnectionGroup.propagate`` used to run, and the
    old ``syn_events`` rule's spike count."""
    pre = spikes.astype(np.int64)
    if weight.ndim == 3:
        contrib = np.einsum("rs,rsd->rd", pre, weight)
    else:
        contrib = pre @ weight
    return out + contrib * weight_scale, int(spikes.sum())


def _delivery_case(layout, pattern, steps=3, seed=23):
    spike_shape, weight_shape = DELIVERY_LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    weight = rng.integers(-127, 128, weight_shape)
    weight[..., 0] = 127
    weight[..., 1] = -127
    if pattern == "none":
        spikes = np.zeros((steps,) + spike_shape, dtype=bool)
    elif pattern == "all":
        spikes = np.ones((steps,) + spike_shape, dtype=bool)
    else:
        spikes = rng.random((steps,) + spike_shape) < 0.4
    out_shape = spike_shape[:-1] + weight_shape[-1:]
    out0 = rng.integers(-5000, 5000, out_shape)
    return weight, spikes, out0


def test_max_weight_scale_is_the_builders():
    from repro.onchip.builder import ScaleScheme
    assert ScaleScheme(vth_mant=1 << 17).weight_scale == MAX_WEIGHT_SCALE


@pytest.mark.parametrize("backend", AVAILABLE)
class TestSpikeDeliver:
    @pytest.mark.parametrize("layout", sorted(DELIVERY_LAYOUTS))
    @pytest.mark.parametrize("pattern", ["none", "all", "random"])
    @pytest.mark.parametrize("bound", [False, True])
    def test_matches_dense_reference(self, backend, layout, pattern, bound):
        weight, spikes, out0 = _delivery_case(layout, pattern)
        out, expected = out0.copy(), out0.copy()
        with kernels.forced_backend(backend):
            step = kernels.bind_spike_deliver(out, weight, MAX_WEIGHT_SCALE)
            for s in spikes:
                if bound:
                    count = step(s)
                else:
                    count = kernels.spike_deliver(out, weight, s,
                                                  MAX_WEIGHT_SCALE)
                expected, ref_count = _dense_delivery(
                    expected, weight, s, MAX_WEIGHT_SCALE)
                assert count == ref_count
                assert np.array_equal(out, expected)

    def test_worst_case_is_exact(self, backend):
        """127 x the largest scale x every source neuron fits int64."""
        n_src = 256
        weight = np.full((n_src, 4), 127)
        weight[:, 1] = -127
        out = np.zeros((2, 4), dtype=np.int64)
        with kernels.forced_backend(backend):
            step = kernels.bind_spike_deliver(out, weight, MAX_WEIGHT_SCALE)
            assert step(np.ones((2, n_src), dtype=bool)) == 2 * n_src
        peak = 127 * MAX_WEIGHT_SCALE * n_src
        assert out.tolist() == [[peak, -peak, peak, peak]] * 2

    def test_unbound_accepts_views_and_casts(self, backend):
        weight, spikes, out0 = _delivery_case("shared", "random")
        expected, _ = _dense_delivery(out0, weight, spikes[0], 64)
        out = _noncontig(out0)
        with kernels.forced_backend(backend):
            kernels.spike_deliver(out, weight.astype(np.int8),
                                  spikes[0].astype(np.int64), 64)
        assert np.array_equal(out, expected)


class TestSpikeDeliverValidation:
    def test_rejects_layouts_that_do_not_fit(self):
        out = np.zeros((3, 5), dtype=np.int64)
        with pytest.raises(ValueError, match="fit"):
            kernels.bind_spike_deliver(out, np.zeros((9, 4), np.int64), 1)
        with pytest.raises(ValueError, match="fit"):
            kernels.bind_spike_deliver(out, np.zeros((2, 9, 5), np.int64), 1)
        with pytest.raises(ValueError, match="expected"):
            kernels.bind_spike_deliver(np.zeros(5, np.int64),
                                       np.zeros((3, 9, 5), np.int64), 1)
        with pytest.raises(ValueError, match="expected"):
            kernels.spike_deliver(out, np.zeros(5, np.int64),
                                  np.zeros(9, bool), 1)

    def test_bound_arrays_must_be_contiguous_int64(self):
        weight = np.zeros((9, 5), dtype=np.int64)
        out = np.zeros((3, 10), dtype=np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.bind_spike_deliver(out[:, ::2], weight, 1)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.bind_spike_deliver(out[:, :5].copy(),
                                       np.asfortranarray(weight), 1)
        with pytest.raises(TypeError, match="dtype"):
            kernels.bind_spike_deliver(out[:, :5].copy(),
                                       weight.astype(np.int32), 1)

    def test_bound_calls_are_profiled_as_spike_deliver(self):
        from repro import obs
        out = np.zeros(5, dtype=np.int64)
        step = kernels.bind_spike_deliver(out, np.ones((9, 5), np.int64), 1)
        before = obs.kernel_profiler.snapshot().get(
            "spike_deliver", {"calls": 0})["calls"]
        sample = obs.kernel_profiler.sample
        obs.kernel_profiler.sample = 1
        try:
            for _ in range(3):
                step(np.ones(9, dtype=bool))
        finally:
            obs.kernel_profiler.sample = sample
        after = obs.kernel_profiler.snapshot()["spike_deliver"]["calls"]
        assert after - before == 3


# ----------------------------------------------------------------------
# One online EMSTDP phase (if_phase)
# ----------------------------------------------------------------------

SPIKE_GOLDEN = Path(__file__).parent / "golden" / "spike_golden.npz"


def _phase_case(dims, dfa, bias, inputs, seed=31):
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.8, (dims[k] + bias, dims[k + 1]))
               for k in range(len(dims) - 1)]
    feedback = [rng.uniform(-1.0, 1.0, (dims[-1] if dfa else dims[k + 2],
                                        dims[k + 1]))
                for k in range(len(dims) - 2)]
    x = {"random": rng.random(dims[0]), "zeros": np.zeros(dims[0]),
         "ones": np.ones(dims[0])}[inputs]
    return weights, feedback, x


def _two_phases(dims, weights, feedback, x, *, dfa, bias, gate_output,
                gate_hidden, class_mask, label=1, T=12):
    """Phase 1 then phase 2, as the network runs them; counts and v."""
    v = [np.zeros(n) for n in dims]
    c1 = kernels.if_phase(v, x, weights, T, bias=bias)
    target = np.zeros(dims[-1])
    target[label] = 1.0
    c2 = kernels.if_phase(
        v, x, weights, T, bias=bias, target=target * class_mask,
        class_mask=class_mask, feedback=feedback, dfa=dfa, error_gain=1.5,
        hidden_error_gain=0.75,
        out_gate=c1[-1] > 0 if gate_output else None,
        hidden_gates=[c > 0 for c in c1[1:-1]] if gate_hidden else None)
    return (*c1, *c2, *v)


class TestIfPhase:
    @pytest.mark.parametrize("dims", [(12, 7, 4), (12, 7, 5, 4)])
    @pytest.mark.parametrize("dfa", [False, True])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("gate_output", [False, True])
    @pytest.mark.parametrize("gate_hidden", [True, False])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("inputs", ["random", "zeros", "ones"])
    def test_backends_match_numpy(self, dims, dfa, bias, gate_output,
                                  gate_hidden, masked, inputs):
        weights, feedback, x = _phase_case(dims, dfa, bias, inputs)
        class_mask = np.ones(dims[-1], dtype=bool)
        if masked:
            class_mask[[0, 3]] = False
        _assert_backends_identical(lambda: _two_phases(
            dims, weights, feedback, x, dfa=dfa, bias=bias,
            gate_output=gate_output, gate_hidden=gate_hidden,
            class_mask=class_mask))

    @pytest.mark.parametrize("n_post", [1, 2, 9])
    def test_numpy_drive_is_the_ordered_loop(self, n_post):
        """Rows of spiking neurons in ascending index, bias row last;
        single-column rows are where ``np.add.reduce`` would go pairwise."""
        from repro.core.kernels import _numpy
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_pre = int(rng.integers(1, 300))
            w = rng.standard_normal((n_pre + 1, n_post)) \
                * rng.choice([1.0, 1e-8, 1e8], size=(n_pre + 1, 1))
            spikes = rng.random(n_pre) < rng.random()
            signed = rng.choice([-1.0, 0.0, 1.0], size=n_pre + 1)
            syn, err = np.zeros(n_post), np.zeros(n_post)
            for i in range(n_pre):
                if spikes[i]:
                    syn += w[i]
            syn += w[n_pre]
            for i in range(n_pre + 1):
                if signed[i] != 0.0:
                    err += signed[i] * w[i]
            assert np.array_equal(_numpy._synaptic_drive(w, spikes, True), syn)
            assert np.array_equal(_numpy._error_drive(w, signed, 0.3),
                                  0.3 * err)

    @pytest.mark.parametrize("backend", AVAILABLE)
    @pytest.mark.parametrize("key", ["fa3", "dfa3", "fa4", "dfa4"])
    def test_golden_online_training(self, backend, key):
        """8 online samples reproduce the rates and weights recorded with
        the per-step IFLayer loop the kernel replaced."""
        sys.path.insert(0, str(SPIKE_GOLDEN.parent))
        try:
            from generate_spike import CASES, config
        finally:
            sys.path.remove(str(SPIKE_GOLDEN.parent))
        from repro.core.network import EMSTDPNetwork
        golden = np.load(SPIKE_GOLDEN)
        _, dims, feedback = next(c for c in CASES if c[0] == key)
        net = EMSTDPNetwork(dims, config(feedback))
        state = net.state_dict()
        state["weights"] = [golden[f"{key}_w0_{i}"]
                            for i in range(len(dims) - 1)]
        state["feedback_weights"] = [golden[f"{key}_b_{i}"]
                                     for i in range(len(dims) - 2)]
        net.load_state_dict(state)
        with kernels.forced_backend(backend):
            results = [net.train_sample(x, int(y))
                       for x, y in zip(golden["x"], golden["y"])]
        for layer in range(len(dims)):
            for name, field in (("h", "h"), ("hhat", "h_hat")):
                got = np.stack([r[field][layer] for r in results])
                assert np.array_equal(got, golden[f"{key}_{name}_{layer}"]), \
                    (name, layer)
        for i, w in enumerate(net.weights):
            assert np.array_equal(w, golden[f"{key}_w_{i}"]), i

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_strided_membranes_are_updated_in_place(self, backend):
        dims = (12, 7, 4)
        weights, _, x = _phase_case(dims, False, True, "random")
        with kernels.forced_backend(backend):
            v = [np.zeros(n) for n in dims]
            ref = kernels.if_phase(v, x, weights, 9)
            views = [_noncontig(np.zeros(n)) for n in dims]
            got = kernels.if_phase(views, x, weights, 9)
        for a, b in zip(ref + v, got + views):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", AVAILABLE)
class TestIfPhaseValidation:
    """Every shape is checked before a pointer reaches a compiled loop."""

    def _net(self):
        from repro.core.config import EMSTDPConfig
        from repro.core.network import EMSTDPNetwork
        return EMSTDPNetwork((12, 7, 4), EMSTDPConfig(
            dynamics="spike", phase_length=8, feedback="fa"))

    @pytest.mark.parametrize("n_in", [11, 13, 0])
    def test_wrong_length_input_raises(self, backend, n_in):
        net = self._net()
        with kernels.forced_backend(backend):
            with pytest.raises(ValueError, match="input drive"):
                net.train_sample(np.full(n_in, 0.5), 1)
            with pytest.raises(ValueError, match="input drive"):
                net.predict(np.full(n_in, 0.5))

    def test_out_of_range_label_raises(self, backend):
        net = self._net()
        with kernels.forced_backend(backend):
            for label in (-1, 4):
                with pytest.raises(ValueError, match="out of range"):
                    net.train_sample(np.full(12, 0.5), label)

    def test_rejects_shapes_that_do_not_fit(self, backend):
        dims = (12, 7, 5, 4)
        weights, feedback, x = _phase_case(dims, False, True, "random")
        v = [np.zeros(n) for n in dims]
        target = np.eye(4)[1]
        bad_w = [weights[0], weights[1][:-1], weights[2]]
        bad_fb = [feedback[0], feedback[1].T]
        cases = [
            (dict(weights=bad_w), "weights\\[1\\]"),
            (dict(weights=weights[:2]), "weight blocks"),
            (dict(bias=False), "weights\\[0\\]"),
            (dict(target=np.ones(3), feedback=feedback), "target"),
            (dict(target=target, feedback=bad_fb), "feedback\\[1\\]"),
            (dict(target=target, feedback=feedback, dfa=True),
             "feedback\\[0\\]"),
            (dict(target=target, feedback=feedback[:1]), "feedback blocks"),
            (dict(target=target, feedback=feedback, out_gate=np.ones(5)),
             "out_gate"),
            (dict(target=target, feedback=feedback,
                  hidden_gates=[np.ones(7), np.ones(4)]), "hidden_gates"),
            (dict(target=target, feedback=feedback,
                  class_mask=np.ones(2)), "class_mask"),
            (dict(feedback=feedback), "phase-2 target"),
        ]
        with kernels.forced_backend(backend):
            for overrides, match in cases:
                args = dict(weights=weights, bias=True)
                args.update(overrides)
                w = args.pop("weights")
                with pytest.raises(ValueError, match=match):
                    kernels.if_phase(v, x, w, 8, **args)
            with pytest.raises(TypeError, match="dtype"):
                kernels.if_phase([a.astype(np.float32) for a in v], x,
                                 weights, 8)
            with pytest.raises(ValueError, match="1-D"):
                kernels.if_phase([np.zeros((1, 12))] + v[1:], x, weights, 8)
        assert all(not a.any() for a in v)  # nothing ran


def _spy_numpy(monkeypatch, name):
    """Count calls to the NumPy backend's ``name`` kernel."""
    from repro.core.kernels import _numpy
    calls = []
    real = getattr(_numpy, name)

    def spy(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(_numpy, name, spy)
    return calls


class TestBoundOwners:
    """Owners of bound state re-bind when an array or the backend changes."""

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend")
    def test_backend_change_reaches_a_bound_group(self, monkeypatch):
        from repro.loihi import CompartmentGroup, if_prototype
        calls = _spy_numpy(monkeypatch, "cuba_step")
        group = CompartmentGroup(5, if_prototype(), replicas=2)
        group.set_bias(np.full(5, 7000))
        with kernels.forced_backend(COMPILED[0]):
            group.step(np.zeros((2, 5), dtype=np.int64))
            assert calls == []
            with kernels.forced_backend("numpy"):
                group.step(np.zeros((2, 5), dtype=np.int64))
                assert calls == [1]
            group.step(np.zeros((2, 5), dtype=np.int64))
            assert calls == [1]

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_set_bias_rebinds(self, backend):
        from repro.loihi import CompartmentGroup, if_prototype
        proto = if_prototype(vth_mant=100)
        rng = np.random.default_rng(3)
        syn = rng.integers(0, 4000, (6, 3, 4))
        biases = [np.full(4, 1000), rng.integers(0, 9000, (3, 4))]
        with kernels.forced_backend(backend):
            group = CompartmentGroup(4, proto, replicas=3)
            u, v, refrac = (np.zeros((3, 4), dtype=np.int64)
                            for _ in range(3))
            for k, s in enumerate(syn):
                if k % 3 == 0:
                    bias = biases[(k // 3) % 2]
                    group.set_bias(bias)
                ref = kernels.cuba_step(u, v, refrac, bias, s, proto.decay_u,
                                        proto.decay_v, proto.vth)
                assert np.array_equal(group.step(s), ref)
                assert np.array_equal(group.v, v)
            assert group._kernel.bound_to(group.u, group.v, group._refrac,
                                          group.bias)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_trace_and_if_layer_rebind_on_replaced_state(self, backend):
        from repro.core.neuron import IFLayer
        from repro.loihi.traces import counter_trace
        with kernels.forced_backend(backend):
            trace = counter_trace(3)
            trace.update(np.ones(3, dtype=bool))
            trace.values = np.full(3, 10.0)
            trace.update(np.ones(3, dtype=bool))
            assert np.array_equal(trace.values, np.full(3, 11.0))
            layer = IFLayer(2)
            layer.step(np.full(2, 0.5))
            layer.v = np.full(2, 0.75)
            assert np.array_equal(layer.step(np.full(2, 0.5)), [True, True])
            assert np.array_equal(layer.v, np.full(2, 0.25))

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_delivery_rebinds_after_set_weights_and_learning(self, backend):
        from repro.loihi import Network, Runtime, if_prototype, parse_rule
        proto = if_prototype()
        net = Network()
        a = net.create_group(4, proto, "a")
        b = net.create_group(3, proto, "b")
        w0 = np.array([[90, 10, 0], [80, 20, -5], [70, 30, 5], [60, 40, 1]])
        conn = net.connect(a, b, w0, 64, plastic=True, learning_rule="r")
        rt = Runtime(net, stochastic_rounding=False)
        rt.register_rule("r", {"end": [parse_rule("dw = 2^0 * y1 * x1")]})
        rt.set_bias("a", np.full(4, proto.vth))  # a fires every step

        def delivered():
            rt.run(1)  # b.u is the current delivered this step (decay 4096)
            return b.u.tolist()

        with kernels.forced_backend(backend):
            rt.run(1)
            assert delivered() == (w0.sum(axis=0) * 64).tolist()
            conn.set_weights(w0[::-1] // 2)
            assert delivered() == ((w0 // 2).sum(axis=0) * 64).tolist()
            before = conn.weight_mant
            rt.learning_epoch("end")
            assert conn.weight_mant is not before
            assert not np.array_equal(conn.weight_mant, before)
            assert delivered() == (conn.weight_mant.sum(axis=0)
                                   * 64).tolist()
            assert conn._kernel.bound_to(conn._kernel.state[0],
                                         conn.weight_mant)

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend")
    def test_runtime_under_forced_numpy_runs_dense_delivery(self,
                                                            monkeypatch):
        calls = _spy_numpy(monkeypatch, "spike_deliver")
        trainer = self._trainer()
        x = np.linspace(0.2, 0.9, 8)
        with kernels.forced_backend(COMPILED[0]):
            ref = trainer.infer(x)
            assert calls == []
            with kernels.forced_backend("numpy"):
                assert np.array_equal(trainer.infer(x), ref)
                assert calls
            n = len(calls)
            trainer.infer(x)
            assert len(calls) == n

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_replicated_twin_delivers_through_its_own_bindings(self,
                                                               backend):
        from conftest import make_blobs
        xs, _ = make_blobs(8, 3, 6, seed=4)
        with kernels.forced_backend(backend):
            trainer = self._trainer()
            seq = np.stack([trainer.infer(x) for x in xs])
            assert np.array_equal(trainer.infer_batch(xs), seq)
            twin, _ = trainer._twins[len(xs)]
            mine = {c.name: c for c in trainer.model.network.connections}
            bound = 0
            for theirs in twin.network.connections:
                k = theirs._kernel
                if k is None:  # never saw a spike
                    continue
                bound += 1
                out, weight = k.state
                assert weight is theirs.weight_mant
                assert out.shape == theirs.dst.state_shape
                ours = mine[theirs.name]._kernel
                if ours is not None:
                    assert not any(np.shares_memory(p, q)
                                   for p in k.state for q in ours.state)
            assert bound

    @staticmethod
    def _trainer(seed=1):
        from repro.core import EMSTDPNetwork, loihi_default_config
        from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network
        dims = (8, 12, 3)
        cfg = loihi_default_config(seed=seed, phase_length=16,
                                   feedback="dfa")
        ref = EMSTDPNetwork(dims, cfg)
        model = build_emstdp_network(
            dims, cfg, initial_weights=[w.copy() for w in ref.weights],
            feedback_weights=[b.copy() for b in ref.feedback_weights])
        return LoihiEMSTDPTrainer(model)

    @staticmethod
    def _replay(trainer, xs, ys):
        out = []
        for x, y in zip(xs, ys):
            res = trainer.train_sample(x, int(y))
            out.append(np.append(res["h_out"], trainer.runtime.stats.spikes))
        out.extend(c.weight_mant.copy()
                   for c in trainer.model.plastic_connections)
        return out

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_chip_trainer_replay_matches_numpy(self, backend):
        from conftest import make_blobs
        xs, ys = make_blobs(8, 3, 6, seed=0)
        with kernels.forced_backend(backend):
            got = self._replay(self._trainer(), xs, ys)
        with kernels.forced_backend("numpy"):
            ref = self._replay(self._trainer(), xs, ys)
        _assert_identical(got, ref)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_load_state_dict_and_replicate_rebind(self, backend):
        from conftest import make_blobs
        xs, ys = make_blobs(8, 3, 8, seed=2)
        with kernels.forced_backend(backend):
            src = self._trainer(seed=1)
            self._replay(src, xs[:4], ys[:4])
            dst = self._trainer(seed=5)
            self._replay(dst, xs[4:], ys[4:])  # bindings exist, now stale
            dst.load_state_dict(src.state_dict())
            for x in xs:  # inference is deterministic given the weights
                assert np.array_equal(dst.infer(x), src.infer(x))
            twin = src.model.replicate(3)
            for mine, theirs in zip(src.model.network.groups,
                                    twin.network.groups):
                k = theirs._bound_kernel()
                assert k.bound_to(theirs.u, theirs.v, theirs._refrac,
                                  theirs.bias)
                assert not any(np.shares_memory(a, b) for a in k.state
                               for b in mine._bound_kernel().state)
            seq = np.stack([src.infer(x) for x in xs])
            assert np.array_equal(src.infer_batch(xs), seq)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

@pytest.fixture
def restore_backend():
    # Restore the module state directly: this teardown runs before
    # monkeypatch undoes its loader patches, so select_backend() could
    # not re-import the previously active backend here.
    previous_name, previous_impl = kernels._active_name, kernels._active_impl
    yield
    kernels._active_name, kernels._active_impl = previous_name, previous_impl
    kernels._generation += 1  # what select_backend does for bound kernels


class TestBackendSelection:
    def test_active_backend_is_known(self):
        assert kernels.backend_name() in kernels.BACKENDS
        assert "numpy" in AVAILABLE  # the fallback always loads

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.select_backend("fortran")

    def test_explicitly_requested_unavailable_backend_raises(
            self, monkeypatch, restore_backend):
        def boom():
            raise ImportError("numba is not installed")
        monkeypatch.setitem(kernels._LOADERS, "numba", boom)
        with pytest.raises(ImportError, match="requested explicitly"):
            kernels.select_backend("numba")

    def test_autodetect_degrades_to_numpy_with_single_warning(
            self, monkeypatch, restore_backend):
        def boom():
            raise ImportError("unavailable in this test")
        monkeypatch.setitem(kernels._LOADERS, "numba", boom)
        monkeypatch.setitem(kernels._LOADERS, "cext", boom)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            name = kernels.select_backend(None)
        assert name == "numpy"
        assert kernels.backend_name() == "numpy"
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "falling back to pure-NumPy" in str(relevant[0].message)

    def test_forced_backend_restores_previous(self):
        before = kernels.backend_name()
        with kernels.forced_backend("numpy"):
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before


class TestEnvOverride:
    """The REPRO_KERNEL_BACKEND variable is honored at import time."""

    def _import_with_env(self, value):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO / "src"),
                   REPRO_KERNEL_BACKEND=value)
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.core import kernels; print(kernels.backend_name())"],
            capture_output=True, text=True, env=env)

    def test_env_override_wins(self):
        proc = self._import_with_env("numpy")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_unknown_env_value_fails_import_with_clear_error(self):
        proc = self._import_with_env("cuda")
        assert proc.returncode != 0
        assert "unknown kernel backend 'cuda'" in proc.stderr
        assert "REPRO_KERNEL_BACKEND" in proc.stderr

    @pytest.mark.parametrize("backend", COMPILED)
    def test_compiled_backends_selectable_via_env(self, backend):
        proc = self._import_with_env(backend)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == backend
