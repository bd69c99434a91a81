"""Batch-parallel chip runtime: replicas/sec vs. sequential Runtime stepping.

Not a paper figure — the engineering benchmark behind the batch-parallel
sharded Loihi runtime.  The sequential path steps one network replica per
call (per-sample Python dispatch through every group and connection of the
two-phase presentation); the batched path replicates the network ``R``
times (``build_emstdp_network(..., replicas=R)``) and advances all replicas
in one vectorized pass per timestep through a :class:`ShardedRuntime`.

Measured here, DFA feedback, dims (64, 64, 10), T = 32:

* inference: ``infer`` loop vs ``infer_batch`` at 32 replicas — the
  acceptance gate is >= 4x samples/sec;
* training: ``train_sample`` loop vs ``fit_batch(update_mode="minibatch")``
  at 32 replicas;
* equivalence: every benchmark run re-asserts that batched learning is
  bit-identical (weights and output spike counts) to sequential
  per-replica execution, and that batched inference on the trained
  weights equals sequential ``infer``, before timing anything — a fast
  batched runtime that drifted from the chip semantics would be
  worthless.

``bench_loihi_smoke`` is the <60s CI variant: smaller sample budget, same
assertions.
"""

import time

import numpy as np

from repro.core import loihi_default_config
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

from _bench_utils import make_blobs, write_bench_json

DIMS = (64, 64, 10)
T = 32
REPLICAS = 32


def _config(seed=1):
    return loihi_default_config(seed=seed, phase_length=T, feedback="dfa")


def _trainer(batch_replicas):
    model = build_emstdp_network(DIMS, _config())
    return LoihiEMSTDPTrainer(model, neurons_per_core=32,
                              batch_replicas=batch_replicas)


def _samples_per_sec(fn, n_samples: int) -> float:
    t0 = time.perf_counter()
    fn()
    return n_samples / (time.perf_counter() - t0)


def _assert_bit_identical(replicas: int = 4) -> None:
    """Batched learning == sequential per-replica execution, bit for bit,
    and batched inference on the trained weights == sequential ``infer``."""
    from repro.onchip.trainer import host_reduce_rng

    cfg = _config()
    xs, ys = make_blobs(DIMS[0], DIMS[-1], replicas, seed=5)
    batched = _trainer(replicas)
    w0 = [c.weight_mant.copy() for c in batched.model.plastic_connections]
    batched.fit_batch(xs, ys, update_mode="minibatch")
    twin_model, twin_rt = batched._twin(replicas)
    counts = twin_rt.spike_counts(twin_model.output_name)
    deltas = [np.zeros_like(w, dtype=np.int64) for w in w0]
    for r in range(replicas):
        seq = LoihiEMSTDPTrainer(
            build_emstdp_network(DIMS, cfg),
            rng=np.random.default_rng((cfg.seed + 1, r)))
        seq.train_sample(xs[r], int(ys[r]))
        seq_counts = seq.runtime.spike_counts(seq.model.output_name)
        assert np.array_equal(seq_counts, counts[r]), \
            f"replica {r}: batched spike counts differ from sequential"
        for i, conn in enumerate(seq.model.plastic_connections):
            deltas[i] += conn.weight_mant - w0[i]
    host = host_reduce_rng(cfg.seed)
    for i, conn in enumerate(batched.model.plastic_connections):
        mean = deltas[i] / replicas
        floor = np.floor(mean)
        add = floor + (host.random(mean.shape) < (mean - floor))
        expect = np.clip(w0[i] + add, -127, 127)
        assert np.array_equal(conn.weight_mant, expect.astype(np.int64)), \
            f"connection {i}: batched mean-of-deltas write-back differs"
    assert np.array_equal(batched.infer_batch(xs),
                          np.stack([batched.infer(x) for x in xs])), \
        "batched inference differs from sequential infer"


def _infer_throughput(n_samples: int):
    xs, _ = make_blobs(DIMS[0], DIMS[-1], n_samples, seed=0)
    seq = _trainer(batch_replicas=1)      # sequential Runtime stepping
    bat = _trainer(batch_replicas=REPLICAS)
    seq_sps = _samples_per_sec(lambda: [seq.infer(x) for x in xs], n_samples)
    bat_sps = _samples_per_sec(lambda: bat.infer_batch(xs), n_samples)
    return seq_sps, bat_sps


def _train_throughput(n_samples: int):
    xs, ys = make_blobs(DIMS[0], DIMS[-1], n_samples, seed=1)
    seq = _trainer(batch_replicas=1)
    bat = _trainer(batch_replicas=REPLICAS)

    def run_seq():
        for x, y in zip(xs, ys):
            seq.train_sample(x, int(y))

    seq_sps = _samples_per_sec(run_seq, n_samples)
    bat_sps = _samples_per_sec(
        lambda: bat.fit_batch(xs, ys, update_mode="minibatch"), n_samples)
    return seq_sps, bat_sps


def _report(kind, seq_sps, bat_sps):
    speedup = bat_sps / seq_sps
    print(f"{kind:9s}  sequential {seq_sps:7.1f} sps   "
          f"batched({REPLICAS:3d}) {bat_sps:7.1f} sps   "
          f"speedup {speedup:5.1f}x")
    return speedup


def _run(n_train: int, n_infer: int, variant):
    print()
    print(f"batch-parallel chip runtime — DFA, dims {DIMS}, T={T}, "
          f"{REPLICAS} replicas")
    _assert_bit_identical()
    print("equivalence: batched learning bit-identical to sequential "
          "per-replica execution ✓")
    infer_seq, infer_bat = _infer_throughput(n_infer)
    train_seq, train_bat = _train_throughput(n_train)
    infer_speedup = _report("inference", infer_seq, infer_bat)
    train_speedup = _report("training", train_seq, train_bat)
    payload = {
        "dims": list(DIMS),
        "T": T,
        "replicas": REPLICAS,
        "n_train": n_train,
        "n_infer": n_infer,
        "bit_identical": True,
        "infer_sequential_sps": round(infer_seq, 1),
        "infer_batched_sps": round(infer_bat, 1),
        "infer_speedup": round(infer_speedup, 2),
        "train_sequential_sps": round(train_seq, 1),
        "train_batched_sps": round(train_bat, 1),
        "train_speedup": round(train_speedup, 2),
    }
    if variant:
        payload["variant"] = variant
    write_bench_json("loihi_runtime", payload)
    return infer_speedup, train_speedup


def bench_loihi_smoke(benchmark):
    """CI gate: the acceptance assertions on a small sample budget."""
    infer_speedup, train_speedup = benchmark.pedantic(
        lambda: _run(n_train=96, n_infer=192, variant="smoke"),
        rounds=1, iterations=1)
    assert infer_speedup >= 4.0, \
        f"batched inference speedup {infer_speedup:.1f}x < 4x " \
        f"at {REPLICAS} replicas"
    assert train_speedup >= 2.0, \
        f"batched training speedup {train_speedup:.1f}x < 2x " \
        f"at {REPLICAS} replicas"


def bench_loihi_runtime(benchmark):
    """Full measurement (longer run, tighter timing noise)."""
    infer_speedup, train_speedup = benchmark.pedantic(
        lambda: _run(n_train=256, n_infer=512, variant=None),
        rounds=1, iterations=1)
    assert infer_speedup >= 4.0
    assert train_speedup >= 2.0
