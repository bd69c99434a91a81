"""Regenerate the golden spike-presentation fixture (``spike_golden.npz``).

The fixture pins the full-precision spike backend's online training — the
phase-1 rates ``h``, the phase-2 rates ``h_hat`` of every sample and the
final weights after 8 online samples — for four networks: dims
``(64, 20, 10)`` and ``(64, 20, 12, 10)``, each with FA and DFA feedback,
``T = 16``.  ``tests/test_kernels.py::TestIfPhase`` replays the same
samples from the same initial weights under every kernel backend and
asserts exact equality, so a change to the per-sample spike path that
moves a single spike fails loudly.

The values were recorded with the per-step ``IFLayer`` loop that preceded
the ``if_phase`` kernel.  Run from the repo root (only when the reference
semantics intentionally change, never to paper over a failing test)::

    PYTHONPATH=src python tests/golden/generate_spike.py

Inputs, labels, initial forward weights and feedback weights are stored
alongside the outputs, so the test does not depend on RNG reproducibility
across NumPy versions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.config import full_precision_config
from repro.core.network import EMSTDPNetwork
from repro.data.loaders import load_dataset

OUT = Path(__file__).with_name("spike_golden.npz")

#: (key, dims, feedback) of every pinned network.
CASES = (
    ("fa3", (64, 20, 10), "fa"),
    ("dfa3", (64, 20, 10), "dfa"),
    ("fa4", (64, 20, 12, 10), "fa"),
    ("dfa4", (64, 20, 12, 10), "dfa"),
)
N_SAMPLES = 8
T = 16


def config(feedback: str):
    return full_precision_config(phase_length=T, dynamics="spike",
                                 feedback=feedback, seed=11)


def main() -> None:
    train, _ = load_dataset("mnist_like", n_train=N_SAMPLES, n_test=1,
                            side=8, seed=5)
    xs, ys = train.flat(), train.labels
    data = {"x": xs, "y": ys}
    for key, dims, feedback in CASES:
        net = EMSTDPNetwork(dims, config(feedback))
        for i, w in enumerate(net.weights):
            data[f"{key}_w0_{i}"] = w.copy()
        for i, b in enumerate(net.feedback_weights):
            data[f"{key}_b_{i}"] = b.copy()
        hs, h_hats = [], []
        for x, y in zip(xs, ys):
            res = net.train_sample(x, int(y))
            hs.append(res["h"])
            h_hats.append(res["h_hat"])
        for layer in range(len(dims)):
            data[f"{key}_h_{layer}"] = np.stack([h[layer] for h in hs])
            data[f"{key}_hhat_{layer}"] = np.stack([h[layer] for h in h_hats])
        for i, w in enumerate(net.weights):
            data[f"{key}_w_{i}"] = w.copy()
    np.savez(OUT, **data)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
