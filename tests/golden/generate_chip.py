"""Regenerate the golden on-chip trainer fixture (``chip_golden.npz``).

The fixture pins what :class:`~repro.onchip.LoihiEMSTDPTrainer` computes on
two small networks, dims ``(16, 12, 3)`` with FA and DFA feedback,
``T = 16``, replica width 4:

* ``infer`` and ``infer_batch`` output rates before any training;
* per-sample phase-1 output rates of 8 online ``train_sample`` calls and
  the weights after them;
* ``infer_batch`` rates after online training;
* the weights after one ``fit_batch(update_mode="minibatch")`` call over
  8 more samples (two 4-replica chunks), then ``infer`` and
  ``infer_batch`` rates;
* the canonical ``RunStats`` counters (``steps``, ``spikes``,
  ``syn_events``, ``learning_epochs``) after every stage.

``tests/test_onchip.py::test_chip_golden`` replays the same sequence under
every kernel backend and asserts exact equality, so a change to the chip
runtime that moves one spike, one synaptic event or one weight fails.
The values were recorded with the runtime that still stepped the whole
error path and updated traces during inference and broadcast every plastic
weight block into per-replica copies.  Run from the repo root (only when
the chip semantics intentionally change,
never to paper over a failing test)::

    PYTHONPATH=src python tests/golden/generate_chip.py

Inputs, labels and the initial forward and feedback weights are stored
alongside the outputs, so the test does not depend on RNG reproducibility
across NumPy versions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.core import EMSTDPNetwork, loihi_default_config
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

OUT = Path(__file__).with_name("chip_golden.npz")

DIMS = (16, 12, 3)
T = 16
REPLICAS = 4
N_SAMPLES = 8
FEEDBACK = ("fa", "dfa")
STATS = ("steps", "spikes", "syn_events", "learning_epochs")


def config(feedback: str):
    return loihi_default_config(seed=7, phase_length=T, feedback=feedback)


def trainer(feedback: str, w0, b0) -> LoihiEMSTDPTrainer:
    """The trainer the fixture was recorded with, from stored weights."""
    model = build_emstdp_network(
        DIMS, config(feedback), initial_weights=[w.copy() for w in w0],
        feedback_weights=[b.copy() for b in b0])
    return LoihiEMSTDPTrainer(model, batch_replicas=REPLICAS)


def stats(tr: LoihiEMSTDPTrainer) -> np.ndarray:
    s = tr.runtime.stats
    return np.array([getattr(s, k) for k in STATS], dtype=np.int64)


def weights(tr: LoihiEMSTDPTrainer):
    return [c.weight_mant.copy() for c in tr.model.plastic_connections]


def record(tr: LoihiEMSTDPTrainer, xs, ys) -> Dict[str, np.ndarray]:
    """Run the pinned sequence; every output keyed by stage."""
    online, mini = slice(0, N_SAMPLES), slice(N_SAMPLES, 2 * N_SAMPLES)
    out: Dict[str, np.ndarray] = {}
    out["infer"] = np.stack([tr.infer(x) for x in xs[online]])
    out["stats_infer"] = stats(tr)
    out["infer_batch"] = tr.infer_batch(xs[online])
    out["stats_infer_batch"] = stats(tr)
    out["train_h_out"] = np.stack(
        [tr.train_sample(x, int(y))["h_out"]
         for x, y in zip(xs[online], ys[online])])
    out["stats_train"] = stats(tr)
    for i, w in enumerate(weights(tr)):
        out[f"w_online_{i}"] = w
    out["infer_batch_trained"] = tr.infer_batch(xs[mini])
    out["stats_infer_batch_trained"] = stats(tr)
    tr.fit_batch(xs[mini], ys[mini], update_mode="minibatch")
    out["stats_minibatch"] = stats(tr)
    for i, w in enumerate(weights(tr)):
        out[f"w_minibatch_{i}"] = w
    out["infer_final"] = np.stack([tr.infer(x) for x in xs[online]])
    out["infer_batch_final"] = tr.infer_batch(xs[online])
    out["stats_final"] = stats(tr)
    return out


def main() -> None:
    rng = np.random.default_rng(3)
    xs = rng.random((2 * N_SAMPLES, DIMS[0]))
    ys = rng.integers(0, DIMS[-1], 2 * N_SAMPLES)
    data = {"x": xs, "y": ys}
    for feedback in FEEDBACK:
        ref = EMSTDPNetwork(DIMS, config(feedback))
        for i, w in enumerate(ref.weights):
            data[f"{feedback}_w0_{i}"] = w.copy()
        for i, b in enumerate(ref.feedback_weights):
            data[f"{feedback}_b_{i}"] = b.copy()
        tr = trainer(feedback, ref.weights, ref.feedback_weights)
        try:
            for key, value in record(tr, xs, ys).items():
                data[f"{feedback}_{key}"] = value
        finally:
            tr.close()
    np.savez(OUT, **data)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
