"""Integration tests: EMSTDP on the chip simulator."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import EMSTDPNetwork, kernels, loihi_default_config
from repro.onchip import (LoihiEMSTDPTrainer, ScaleScheme,
                          build_emstdp_network, eta_exponent)

from conftest import make_blobs


def small_model(feedback="dfa", T=32, **cfg_overrides):
    cfg = loihi_default_config(seed=1, phase_length=T, feedback=feedback,
                               **cfg_overrides)
    ref = EMSTDPNetwork((8, 16, 3), cfg)
    model = build_emstdp_network(
        (8, 16, 3), cfg,
        initial_weights=[w.copy() for w in ref.weights],
        feedback_weights=[b.copy() for b in ref.feedback_weights])
    return ref, model


class TestScaleScheme:
    def test_roundtrip(self):
        s = ScaleScheme()
        w = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        back = s.from_mant(s.to_mant(w))
        assert np.max(np.abs(back - w)) <= s.step / 2 + 1e-9

    def test_unit_weight_delivers_threshold(self):
        s = ScaleScheme()
        mant = s.unit_weight_mant(1.0)
        assert abs(mant * s.weight_scale - s.vth) <= s.weight_scale

    def test_rate_to_bias_range(self):
        s = ScaleScheme()
        assert s.rate_to_bias(np.array([0.0]))[0] == 0
        assert s.rate_to_bias(np.array([1.0]))[0] == s.vth
        assert s.rate_to_bias(np.array([2.0]))[0] == s.vth  # clipped

    def test_eta_exponent_paper_settings(self):
        # eta=2^-3, clip=2, T=64 -> 0.125*127/(2*4096) ~= 2^-9
        assert eta_exponent(2.0 ** -3, 2.0, 64) == -9


class TestBuilder:
    def test_dfa_has_no_standalone_error_relays(self):
        _, model = small_model("dfa")
        names = [g.name for g in model.network.groups]
        # dendrites exist but colocate with their forward layer
        dend = model.network.group("dfa0_pos")
        assert dend.colocate == "fwd1"

    def test_fa_has_standalone_error_relays(self):
        _, model = small_model("fa")
        relay = model.network.group("err0_pos")
        assert relay.colocate is None

    def test_dfa_uses_fewer_cores_than_fa(self):
        _, mf = small_model("fa")
        _, md = small_model("dfa")
        tf = LoihiEMSTDPTrainer(mf, neurons_per_core=4)
        td = LoihiEMSTDPTrainer(md, neurons_per_core=4)
        assert td.mapping.cores_used < tf.mapping.cores_used

    def test_inference_only_network_smaller(self):
        cfg = loihi_default_config(seed=1, phase_length=32)
        full = build_emstdp_network((8, 16, 3), cfg)
        inf = build_emstdp_network((8, 16, 3), cfg, include_error_path=False)
        assert inf.network.n_compartments() < full.network.n_compartments()
        assert inf.label_name is None

    def test_weight_shape_validation(self):
        cfg = loihi_default_config(seed=1)
        with pytest.raises(ValueError):
            build_emstdp_network((8, 16, 3), cfg,
                                 initial_weights=[np.zeros((3, 3)),
                                                  np.zeros((17, 3))])

    def test_frontend_layers(self):
        cfg = loihi_default_config(seed=1, phase_length=16)
        mat = np.eye(8) * 0.5
        model = build_emstdp_network(
            (8, 6, 3), cfg, frontend_layers=[(mat, None)])
        assert model.input_name == "frontend0"
        assert model.network.group("frontend1").n == 8

    def test_frontend_dim_mismatch(self):
        cfg = loihi_default_config(seed=1)
        with pytest.raises(ValueError):
            build_emstdp_network((4, 6, 3), cfg,
                                 frontend_layers=[(np.eye(8), None)])


class TestTrainer:
    def test_learns_blobs(self):
        xs, ys = make_blobs(8, 3, 400, seed=0)
        tx, ty = make_blobs(8, 3, 80, seed=1)
        _, model = small_model("dfa")
        trainer = LoihiEMSTDPTrainer(model)
        before = trainer.evaluate(tx, ty)
        trainer.train_stream(xs, ys)
        trainer.train_stream(xs, ys)
        after = trainer.evaluate(tx, ty)
        assert after > before
        assert after >= 0.8

    def test_weights_stay_int8(self):
        xs, ys = make_blobs(8, 3, 50, seed=0)
        _, model = small_model("dfa")
        trainer = LoihiEMSTDPTrainer(model)
        trainer.train_stream(xs, ys)
        for conn in model.plastic_connections:
            assert np.abs(conn.weight_mant).max() <= 127
            assert conn.weight_mant.dtype.kind == "i"

    def test_inference_only_network_rejects_training(self):
        cfg = loihi_default_config(seed=1, phase_length=16)
        model = build_emstdp_network((8, 16, 3), cfg,
                                     include_error_path=False)
        trainer = LoihiEMSTDPTrainer(model)
        with pytest.raises(RuntimeError):
            trainer.train_sample(np.zeros(8), 0)

    def test_inference_matches_reference(self):
        """Phase-1 rates on chip track the FP reference's rate solution."""
        ref, model = small_model("dfa", T=64)
        trainer = LoihiEMSTDPTrainer(model)
        rng = np.random.default_rng(0)
        agree = 0
        for _ in range(10):
            x = rng.uniform(0, 1, 8)
            agree += int(trainer.predict(x) == ref.predict(x))
        assert agree >= 8

    def test_class_mask(self):
        xs, ys = make_blobs(8, 3, 10, seed=0)
        _, model = small_model("dfa")
        trainer = LoihiEMSTDPTrainer(model)
        trainer.set_class_mask([0, 2])
        with pytest.raises(ValueError):
            trainer.train_sample(xs[0], 1)
        preds = {trainer.predict(x) for x in xs}
        assert 1 not in preds
        trainer.clear_class_mask()
        trainer.train_sample(xs[0], 1)  # no raise

    def test_energy_report_requires_samples(self):
        _, model = small_model("dfa", T=16)
        trainer = LoihiEMSTDPTrainer(model)
        with pytest.raises(ValueError):
            trainer.energy_report()

    def test_energy_report_after_training(self):
        xs, ys = make_blobs(8, 3, 5, seed=0)
        _, model = small_model("dfa", T=16)
        trainer = LoihiEMSTDPTrainer(model, neurons_per_core=8)
        trainer.train_stream(xs, ys)
        rep = trainer.energy_report()
        assert rep.fps > 0
        assert rep.power_w > 0
        assert rep.cores_used == trainer.mapping.cores_used

    def test_io_is_one_bias_write_per_sample(self):
        """Section III-D: the host programs biases once per sample; no
        spike streaming is involved in the runtime loop."""
        _, model = small_model("dfa", T=16)
        trainer = LoihiEMSTDPTrainer(model)
        writes = []
        original = trainer.runtime.set_bias

        def counting(name, bias):
            writes.append(name)
            return original(name, bias)

        trainer.runtime.set_bias = counting
        trainer.train_sample(np.full(8, 0.5), 1)
        assert sorted(writes) == ["fwd0", "label"]


CHIP_GOLDEN = Path(__file__).parent / "golden" / "chip_golden.npz"


def _chip_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_chip", CHIP_GOLDEN.with_name("generate_chip.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("feedback", ["fa", "dfa"])
def test_chip_golden(backend, feedback):
    """Sequential and replicated inference, online and minibatch training
    and the RunStats counters reproduce the recorded fixture exactly."""
    gen = _chip_generator()
    golden = np.load(CHIP_GOLDEN)
    n = len(gen.DIMS)
    w0 = [golden[f"{feedback}_w0_{i}"] for i in range(n - 1)]
    b0 = [golden[f"{feedback}_b_{i}"] for i in range(n - 2)]
    with kernels.forced_backend(backend):
        trainer = gen.trainer(feedback, w0, b0)
        try:
            got = gen.record(trainer, golden["x"], golden["y"])
        finally:
            trainer.close()
    for key, value in got.items():
        assert np.array_equal(value, golden[f"{feedback}_{key}"]), key
