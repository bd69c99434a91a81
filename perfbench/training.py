"""The two training workloads: on-chip online learning and the FP spike engine.

``chip_online`` trains the simulated chip strictly online with
``LoihiEMSTDPTrainer.fit_batch(update_mode="online")`` and evaluates through
the replicated ``ShardedRuntime`` (``evaluate_batch``).  ``fp_spike`` runs the
full-precision EMSTDP spike backend: ``train_stream`` and ``evaluate_batch``.
Evaluation chunks are interleaved with the training sub-passes, and full
passes over the test set follow the training (see ``_measure``).  Both use
the ``offline_accuracy`` defaults: ``mnist_like`` 16x16 images on a
256-100-10 network with DFA feedback and T=64.

The work is fixed for a given ``--seed`` and ``--seconds`` (sample counts
scale with ``--seconds``), so ``test_acc``, the chip's ``RunStats`` and the
weights repeat exactly.  A traced run repeats the same job with timing
wrappers installed and reports per-layer busy and self time.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import kernels
from repro.core.config import full_precision_config, loihi_default_config
from repro.core.learning import WeightUpdater
from repro.core.network import EMSTDPNetwork
from repro.core.neuron import IFLayer
from repro.data.loaders import load_dataset
from repro.loihi.compartment import CompartmentGroup
from repro.loihi.runtime import Runtime, ShardedRuntime
from repro.loihi.synapse import ConnectionGroup
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

from common import Outcome, Spans, median, pct, peak_rss_mb, timed_setups

SIDE = 16
HIDDEN = (100,)
N_CLASSES = 10
#: Training samples replayed under the NumPy kernels for the output check.
REPLAY = 3
#: Training runs in this many equal sub-passes with evaluation chunks
#: between them (see ``_measure``).
TRAIN_PASSES = 12
#: Full passes over the test set after training; they must agree.
FINAL_EVALS = 2
#: Width of the chip's replicated evaluation twin.
REPLICAS = 16
KERNELS = ("if_step", "cuba_step", "trace_update", "delta_w",
           "delta_w_batch", "sum_of_products")

Data = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def make_data(seed: int, n_train: int, n_test: int) -> Data:
    train, test = load_dataset("mnist_like", n_train=n_train, n_test=n_test,
                               side=SIDE, seed=seed)
    return train.flat(), train.labels, test.flat(), test.labels


def digest(arrays: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class ChipJob:
    """Online in-hardware learning on the simulated chip."""

    name = "chip_online"
    train_per_s = 15  # training samples per second of --seconds
    test_per_s = 32
    eval_chunk = 64  # samples per timed evaluate_batch call
    eval_between = 1  # chunks evaluated after each training sub-pass
    warm_eval = 32  # samples evaluated before timing

    def build(self, seed: int, n_in: int) -> LoihiEMSTDPTrainer:
        # The offline_accuracy chip defaults (learning rate 2^-5, error
        # gain 2, 10 neurons/core, 16-wide replicated evaluation).
        cfg = loihi_default_config(seed=seed, feedback="dfa",
                                   learning_rate=2.0 ** -5, error_gain=2.0)
        model = build_emstdp_network((n_in,) + HIDDEN + (N_CLASSES,), cfg)
        trainer = LoihiEMSTDPTrainer(model, neurons_per_core=10,
                                     batch_replicas=REPLICAS)
        # The trainer builds its replicated evaluation twin (replicate,
        # mapping compile, ShardedRuntime) on the first evaluate_batch;
        # build it here so set-up covers it.
        trainer._twin(REPLICAS)
        return trainer

    def train_one(self, trainer, x, y) -> None:
        trainer.fit_batch(x, y, update_mode="online")

    def evaluate(self, trainer, X, y) -> float:
        return trainer.evaluate_batch(X, y)

    def close(self, trainer) -> None:
        trainer.close()

    def exact(self, trainer) -> Dict[str, object]:
        stats = trainer.runtime.stats
        report = trainer.energy_report()
        return {
            "sim.steps": stats.steps, "sim.spikes": stats.spikes,
            "sim.syn_events": stats.syn_events,
            "sim.learning_epochs": stats.learning_epochs,
            "sim.fps": float(report.fps),
            "sim.mj_per_sample": float(report.energy_per_sample_mj),
            "weights": digest([c.weight_mant
                               for c in trainer.model.plastic_connections]),
        }

    def replay(self, trainer, xs, ys) -> List[np.ndarray]:
        """Per-sample output spike counts and chip spike totals, then the
        final weights."""
        out = []
        for x, y in zip(xs, ys):
            res = trainer.train_sample(x, int(y))
            out.append(np.append(res["h_out"], trainer.runtime.stats.spikes))
        out.extend(c.weight_mant for c in trainer.model.plastic_connections)
        return out

    def span_targets(self):
        host_io = ("set_bias", "enable", "disable", "reset_traces",
                   "reset_tags", "reset_membranes", "reset_state")
        return ([(Runtime, "step", "loihi.runtime.step"),
                 (ShardedRuntime, "step", "loihi.sharded.step"),
                 (ConnectionGroup, "propagate", "loihi.synapse.propagate"),
                 (CompartmentGroup, "step", "loihi.compartment.step"),
                 (ConnectionGroup, "update_traces",
                  "loihi.synapse.update_traces"),
                 (Runtime, "learning_epoch", "loihi.runtime.learning_epoch"),
                 (LoihiEMSTDPTrainer, "fit_batch", "onchip.trainer"),
                 (LoihiEMSTDPTrainer, "evaluate_batch", "onchip.trainer")]
                + [(Runtime, m, "loihi.runtime.host_io") for m in host_io])

    def layers(self, spans: Spans, exact: Dict[str, object]
               ) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in ("loihi.runtime.step", "loihi.sharded.step",
                     "loihi.synapse.propagate", "loihi.compartment.step",
                     "loihi.synapse.update_traces",
                     "loihi.runtime.learning_epoch"):
            out[f"{name}.calls"] = spans.calls(name)
            out[f"{name}.busy_s"] = spans.busy_s(name)
        out["loihi.runtime.step.self_s"] = spans.self_s("loihi.runtime.step")
        out["loihi.runtime.host_io.busy_s"] = spans.busy_s(
            "loihi.runtime.host_io")
        out["onchip.trainer.self_s"] = spans.self_s("onchip.trainer")
        stepping = (spans.busy_s("loihi.runtime.step")
                    + spans.busy_s("loihi.sharded.step"))
        out["loihi.host_ns_per_syn_event"] = (
            stepping * 1e9 / max(int(exact["sim.syn_events"]), 1))
        for key in ("sim.steps", "sim.spikes", "sim.syn_events",
                    "sim.learning_epochs", "sim.fps", "sim.mj_per_sample"):
            out[key] = float(exact[key])
        return out


class SpikeJob:
    """The full-precision EMSTDP spike backend (Table I's FP column)."""

    name = "fp_spike"
    train_per_s = 60
    test_per_s = 40
    eval_chunk = None  # the whole test set per timed call
    eval_between = 2
    warm_eval = 256  # one full evaluate_batch chunk

    def build(self, seed: int, n_in: int) -> EMSTDPNetwork:
        return EMSTDPNetwork((n_in,) + HIDDEN + (N_CLASSES,),
                             full_precision_config(seed=seed,
                                                   dynamics="spike"))

    def train_one(self, net, x, y) -> None:
        net.train_stream(x, y)

    def evaluate(self, net, X, y) -> float:
        return net.evaluate_batch(X, y)

    def close(self, net) -> None:
        pass

    def exact(self, net) -> Dict[str, object]:
        return {"weights": digest(net.weights)}

    def replay(self, net, xs, ys) -> List[np.ndarray]:
        """Per-sample phase-1 and phase-2 spike rates, then the weights."""
        out: List[np.ndarray] = []
        for x, y in zip(xs, ys):
            res = net.train_sample(x, int(y))
            out.extend(res["h"])
            out.extend(res["h_hat"])
        out.extend(w.copy() for w in net.weights)
        return out

    def span_targets(self):
        return [(EMSTDPNetwork, "train_sample", "core.network.train_sample"),
                (EMSTDPNetwork, "evaluate_batch",
                 "core.network.evaluate_batch"),
                (IFLayer, "step", "core.neuron.if_layer_step"),
                (WeightUpdater, "apply", "core.learning.apply")]

    def layers(self, spans: Spans, exact: Dict[str, object]
               ) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in ("core.network.train_sample", "core.neuron.if_layer_step",
                     "core.learning.apply"):
            out[f"{name}.calls"] = spans.calls(name)
            out[f"{name}.busy_s"] = spans.busy_s(name)
        out["core.network.train_sample.self_s"] = spans.self_s(
            "core.network.train_sample")
        out["core.network.evaluate_batch.busy_s"] = spans.busy_s(
            "core.network.evaluate_batch")
        return out


def _measure(job, model, data: Data) -> Dict[str, object]:
    """The timed job: online training sample by sample, then evaluation.

    Training runs in ``TRAIN_PASSES`` sub-passes with ``job.eval_between``
    evaluation chunks of the network as trained so far after each, so both
    rates are sampled across the whole run rather than in two separate
    stretches of it.  ``FINAL_EVALS`` full passes over the test set follow;
    ``accs`` holds their accuracies.  Returns every training sample's time
    and the evaluated sample count with its total time.
    """
    xs, ys, xte, yte = data
    clock = time.perf_counter
    chunk = job.eval_chunk or len(xte)
    chunks = itertools.cycle(range(0, len(xte), chunk))  # interleaved
    train_s: List[float] = []
    eval_s: List[float] = []
    evaluated = 0

    def evaluate(lo: int) -> int:
        nonlocal evaluated
        xc, yc = xte[lo:lo + chunk], yte[lo:lo + chunk]
        t0 = clock()
        correct = round(job.evaluate(model, xc, yc) * len(xc))
        eval_s.append(clock() - t0)
        evaluated += len(xc)
        return correct

    for part in np.array_split(np.arange(len(xs)), TRAIN_PASSES):
        if not len(part):
            continue
        for i in part:
            t0 = clock()
            job.train_one(model, xs[i:i + 1], ys[i:i + 1])
            train_s.append(clock() - t0)
        for _ in range(job.eval_between):
            evaluate(next(chunks))
    starts = range(0, len(xte), chunk)
    accs = [sum(evaluate(lo) for lo in starts) / len(xte)
            for _ in range(FINAL_EVALS)]
    return {"train_s": train_s, "evaluated": evaluated,
            "eval_total_s": sum(eval_s), "accs": accs,
            "wall_s": sum(train_s) + sum(eval_s)}


def _replay_check(job, seed: int, data: Data, out: Outcome) -> None:
    """Replay a training prefix under the NumPy kernels: every output must
    be bit-identical to the default kernel backend's."""
    xs, ys = data[0][:REPLAY], data[1][:REPLAY]

    def replay() -> List[np.ndarray]:
        model = job.build(seed, xs.shape[1])
        try:
            return job.replay(model, xs, ys)
        finally:
            job.close(model)

    reference = replay()
    with kernels.forced_backend("numpy"):
        numpy_run = replay()
    same = len(reference) == len(numpy_run) and all(
        np.array_equal(a, b) for a, b in zip(reference, numpy_run))
    out.check(same, f"{job.name}: {kernels.backend_name()} kernels differ "
                    f"from numpy on a {REPLAY}-sample replay", ops=REPLAY)


def _warm(job) -> None:
    """Run every code path at the evaluation's batch shape once, so
    imports, kernel libraries, BLAS threads and lazy state are ready
    before anything is timed."""
    xs, ys, xte, yte = make_data(0, 2, 16)
    reps = -(-job.warm_eval // len(xte))
    xte, yte = np.tile(xte, (reps, 1)), np.tile(yte, reps)
    model = job.build(0, xs.shape[1])
    try:
        _measure(job, model, (xs, ys, xte[:job.warm_eval],
                              yte[:job.warm_eval]))
    finally:
        job.close(model)


def run(job, seed: int, seconds: int, trace: bool) -> Outcome:
    n_train = job.train_per_s * seconds
    n_test = job.test_per_s * seconds
    _warm(job)

    def setup():
        data = make_data(seed, n_train, n_test)
        return data, job.build(seed, data[0].shape[1])

    out = Outcome()
    (data, model), setup_s = timed_setups(
        setup, discard=lambda result: job.close(result[1]))
    try:
        m = _measure(job, model, data)
        exact = job.exact(model)
    finally:
        job.close(model)
    exact["test_acc"] = m["accs"][0]
    out.exact = exact
    for acc in m["accs"][1:]:
        out.check(acc == m["accs"][0],
                  f"{job.name}: a repeated evaluation pass disagrees")
    train_s = m["train_s"]
    out.metrics = {
        "setup_s": setup_s,
        "train_sps": n_train / sum(train_s),
        "eval_sps": m["evaluated"] / m["eval_total_s"],
    }
    out.extra = {"op_ms.p50": median(train_s) * 1e3,
                 "op_ms.p90": pct(train_s, 90) * 1e3, "samples": n_train}
    if trace:
        out.layers = _traced(job, setup, exact, m["wall_s"], out)
    _replay_check(job, seed, data, out)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


def _traced(job, setup, exact: Dict[str, object], untraced_wall_s: float,
            out: Outcome) -> Dict[str, float]:
    """Repeat the job with span wrappers on; per-layer metrics."""
    data, model = setup()
    before = obs.kernel_profiler.snapshot()
    try:
        with Spans().install(job.span_targets()) as spans:
            m = _measure(job, model, data)
        traced_exact = job.exact(model)
    finally:
        job.close(model)
    kernel_delta = obs.kernel_profiler.delta(before)
    traced_exact["test_acc"] = m["accs"][0]
    out.check(traced_exact == exact,
              f"{job.name}: traced run diverged from the untraced run")
    layers = job.layers(spans, traced_exact)
    for name in KERNELS:
        stat, key = kernel_delta.get(name, {}), f"core.kernels.{name}"
        layers[f"{key}.calls"] = float(stat.get("calls", 0))
        layers[f"{key}.mean_us"] = float(stat.get("mean_us", 0.0))
    layers["test_acc"] = float(exact["test_acc"])
    layers["trace.overhead_frac"] = m["wall_s"] / untraced_wall_s - 1.0
    layers["trace.unattributed_frac"] = 1.0 - spans.root_s / m["wall_s"]
    return layers
