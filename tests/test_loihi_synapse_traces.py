"""Unit tests for synaptic connections and trace counters."""

import numpy as np
import pytest

from repro.core import kernels
from repro.loihi import (ConnectionGroup, TraceConfig, TraceState,
                         counter_trace, if_prototype)
from repro.loihi.compartment import CompartmentGroup


def groups(n_src=3, n_dst=2):
    return (CompartmentGroup(n_src, if_prototype(), name="a"),
            CompartmentGroup(n_dst, if_prototype(), name="b"))


class TestConnectionGroup:
    def test_propagate_scales_mantissa(self):
        src, dst = groups()
        w = np.array([[10, 0], [0, 20], [5, 5]])
        conn = ConnectionGroup(src, dst, w, weight_scale=64)
        spikes = np.array([True, False, True])
        out = conn.propagate(spikes)
        assert out.tolist() == [(10 + 5) * 64, 5 * 64]

    def test_no_spikes_no_events(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.ones((3, 2)), 64)
        conn.propagate(np.zeros(3, dtype=bool))
        assert conn.syn_events == 0

    def test_syn_event_counting(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.ones((3, 2)), 64)
        conn.propagate(np.array([True, True, False]))
        assert conn.syn_events == 2 * 2  # 2 spikes x fan-out 2

    def test_weight_range_enforced(self):
        src, dst = groups()
        with pytest.raises(ValueError):
            ConnectionGroup(src, dst, np.full((3, 2), 200), 64)

    def test_shape_enforced(self):
        src, dst = groups()
        with pytest.raises(ValueError):
            ConnectionGroup(src, dst, np.ones((2, 3)), 64)

    def test_plastic_allocates_tag_and_traces(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.zeros((3, 2)), 64, plastic=True)
        assert conn.tag.shape == (3, 2)
        assert conn.pre_trace.n == 3
        assert conn.post_trace.n == 2

    def test_static_has_no_learning_state(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.zeros((3, 2)), 64)
        assert conn.tag is None
        assert conn.pre_trace is None

    def test_set_weights_clips(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.zeros((3, 2)), 64)
        conn.set_weights(np.full((3, 2), 300))
        assert (conn.weight_mant == 127).all()


def replicated(plastic, replicas=3, n_src=5, n_dst=4, seed=8):
    rng = np.random.default_rng(seed)
    src = CompartmentGroup(n_src, if_prototype(), name="a",
                           replicas=replicas)
    dst = CompartmentGroup(n_dst, if_prototype(), name="b",
                           replicas=replicas)
    conn = ConnectionGroup(src, dst, rng.integers(-127, 128, (n_src, n_dst)),
                           64, plastic=plastic)
    if plastic:  # let the replicas' weights diverge, as learning does
        conn.set_weights(rng.integers(-127, 128, (replicas, n_src, n_dst)))
    return conn, rng.random((replicas, n_src)) < 0.5


@pytest.mark.parametrize("backend", kernels.available_backends())
class TestDeliveryIntoBuffers:
    """``propagate(spikes, out=...)``: the runtime's accumulate form."""

    @pytest.mark.parametrize("plastic", [False, True])
    def test_replicated_matches_dense_formula(self, backend, plastic):
        conn, spikes = replicated(plastic)
        pre = spikes.astype(np.int64)
        if plastic:
            dense = np.einsum("rs,rsd->rd", pre, conn.weight_mant) * 64
        else:
            dense = pre @ conn.weight_mant * 64
        out = np.full((3, 4), 7, dtype=np.int64)
        with kernels.forced_backend(backend):
            assert np.array_equal(conn.propagate(spikes), dense)
            assert conn.propagate(spikes, out=out) is out
        assert np.array_equal(out, dense + 7)
        # The old rule: presynaptic spikes x fan-out, per call.
        assert conn.syn_events == 2 * int(spikes.sum()) * 4

    def test_connections_accumulate_into_one_buffer(self, backend):
        src, dst = groups()
        first = ConnectionGroup(src, dst, np.array([[10, 0], [0, 20],
                                                    [5, 5]]), 64)
        second = ConnectionGroup(src, dst, np.full((3, 2), -3), 2)
        spikes = np.array([True, False, True])
        out = np.zeros(2, dtype=np.int64)
        with kernels.forced_backend(backend):
            for _ in range(2):
                out.fill(0)
                first.propagate(spikes, out=out)
                second.propagate(spikes, out=out)
                assert out.tolist() == [15 * 64 - 12, 5 * 64 - 12]
        assert first.syn_events == second.syn_events == 2 * 2 * 2


class TestTraces:
    def test_counter_counts(self):
        tr = counter_trace(2)
        tr.update(np.array([True, False]))
        tr.update(np.array([True, True]))
        assert tr.read().tolist() == [2, 1]

    def test_saturation_at_127(self):
        tr = counter_trace(1)
        for _ in range(200):
            tr.update(np.array([True]))
        assert tr.read()[0] == 127

    def test_decaying_trace(self):
        tr = TraceState(1, TraceConfig(impulse=16, decay=0.5))
        tr.update(np.array([True]))
        tr.update(np.array([False]))
        assert tr.read()[0] == 8

    def test_reset(self):
        tr = counter_trace(1)
        tr.update(np.array([True]))
        tr.reset()
        assert tr.read()[0] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(impulse=-1)
        with pytest.raises(ValueError):
            TraceConfig(decay=1.5)

    def test_shape_check(self):
        tr = counter_trace(2)
        with pytest.raises(ValueError):
            tr.update(np.array([True]))
