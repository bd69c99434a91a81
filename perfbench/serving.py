"""``serve_cluster``: closed-loop clients against a one-worker cluster.

A rate-backend EMSTDP network (256-100-10 on ``mnist_like`` 16x16) is
trained, checkpointed and served by ``ClusterService`` over one spawned
worker process.  Two client threads each send one request, wait for the
reply and send the next -- a closed loop, like a host feeding sensor
frames.  A fresh request is a test image with seeded pixel jitter, so its
digest is new and the worker's cache misses; about one request in four
repeats one of the last 256 inputs, which the cache answers.

Every reply is compared with the model's offline ``predict_batch`` on the
same input; refused, failed and wrong replies count as failed operations.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.cluster import ClusterService, Supervisor, WorkerSpec
from repro.core.config import full_precision_config
from repro.core.network import EMSTDPNetwork
from repro.persist import save_checkpoint
from repro.serve.errors import Overloaded

from common import Outcome, median, pct, peak_rss_mb, timed_setups
from training import HIDDEN, N_CLASSES, make_data

CLIENTS = 2
TRAIN_PER_S = 60
#: Passes over the training set before the net is served.
EPOCHS = 6
#: Distinct test images that fresh requests jitter.
POOL = 400
REPEAT_SHARE = 0.25
#: Repeats pick among this many most recent fresh inputs.
RECENT = 256
#: Requests reserved in the schedule; far above what a run can send.
MAX_REQUESTS = 400_000
WARM_REQUESTS = 64
#: ``test_acc`` is the served accuracy on this many fresh inputs per
#: second of ``--seconds``, the first ones the schedule sends.
ACC_PER_S = 100


class Requests:
    """The seeded request stream: ``index(j)`` is the input request ``j``
    sends, ``input(k)`` builds input ``k`` on demand."""

    def __init__(self, seed: int, images: np.ndarray):
        self.seed = seed
        self.images = images
        rng = np.random.default_rng((seed, 1))
        repeat = rng.random(MAX_REQUESTS) < REPEAT_SHARE
        back = rng.integers(0, RECENT, MAX_REQUESTS)
        fresh_before = np.cumsum(~repeat) - (~repeat)
        repeat &= fresh_before > 0
        self._index = np.where(
            repeat, fresh_before - 1 - back % np.maximum(
                np.minimum(fresh_before, RECENT), 1),
            fresh_before)

    def index(self, j: int) -> int:
        return int(self._index[j])

    def input(self, k: int) -> np.ndarray:
        jitter = np.random.default_rng((self.seed, 2, k)).normal(
            0.0, 0.02, self.images.shape[1])
        return np.clip(self.images[k % len(self.images)] + jitter, 0.0, 1.0)


def _boot(net, stem: Path) -> ClusterService:
    save_checkpoint(net, stem)
    spec = WorkerSpec(source=str(stem), store_root=str(stem.parent))
    supervisor = Supervisor(spec, n_workers=1, heartbeat_timeout_s=30.0)
    supervisor.start()
    return ClusterService(supervisor)


def _stop(service: ClusterService) -> bool:
    try:
        return service.shutdown(timeout=30.0)
    finally:
        service.supervisor.stop()


def _load(service: ClusterService, requests: Requests, js, seconds: float
          ) -> Dict[str, object]:
    """Closed loop: each client sends request ``next(js)`` and waits."""
    rows: List[tuple] = []
    failures = {"rejected": 0, "errors": 0}
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client() -> None:
        clock = time.perf_counter
        while clock() < deadline:
            j = next(js)
            k = requests.index(j)
            x = requests.input(k)
            t0 = clock()
            try:
                resp = service.predict(x)
            except Overloaded:
                with lock:
                    failures["rejected"] += 1
                continue
            except Exception:  # a failed request is counted, not fatal
                with lock:
                    failures["errors"] += 1
                continue
            ms = (clock() - t0) * 1e3
            with lock:
                rows.append((k, resp["prediction"], resp["cached"],
                             resp["latency_ms"], resp["queue_ms"], ms))

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 120.0)
    elapsed = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a load-generator client did not finish")
    return {"rows": rows, "elapsed": elapsed, **failures}


def run(seed: int, seconds: int, run_dir: Path) -> Outcome:
    out = Outcome()
    n_train = TRAIN_PER_S * seconds

    def build():
        xs, ys, xte, yte = make_data(seed, n_train, POOL)
        net = EMSTDPNetwork((xs.shape[1],) + HIDDEN + (N_CLASSES,),
                            full_precision_config(seed=seed,
                                                  dynamics="rate"))
        return net, xs, ys, Requests(seed, xte), yte

    (net, xs, ys, requests, labels), build_s = timed_setups(build)
    t0 = time.perf_counter()
    for _ in range(EPOCHS):
        net.train_stream(xs, ys)
    train_s = time.perf_counter() - t0

    stems = (run_dir / f"model{i}" for i in itertools.count())
    service, boot_s = timed_setups(lambda: _boot(net, next(stems)),
                                   discard=_stop)
    try:
        # Warm the request path with inputs far past any the load sends.
        for j in range(MAX_REQUESTS - WARM_REQUESTS, MAX_REQUESTS):
            service.predict(requests.input(requests.index(j)))
        load = _load(service, requests, itertools.count(), float(seconds))
        worker = service.metrics()["workers"][0].get("metrics", {})
    finally:
        drained = _stop(service)
        final = service.final_snapshot()
    out.check(drained, "the worker did not confirm its drain")

    rows = load["rows"]
    keys = sorted({r[0] for r in rows})
    offline = dict(zip(keys, net.predict_batch(
        np.stack([requests.input(k) for k in keys]))))
    wrong = sum(int(offline[k] != pred) for k, pred, *_ in rows)
    out.attempted += len(rows) + load["rejected"] + load["errors"]
    out.failed += wrong + load["rejected"] + load["errors"]
    if wrong:
        out.notes.append(f"{wrong} replies differ from offline predict_batch")

    n_acc = ACC_PER_S * seconds
    acc_keys = [k for k in keys if k < n_acc]
    if len(acc_keys) < n_acc:
        out.notes.append(f"only {len(acc_keys)} of {n_acc} accuracy inputs "
                         f"were served; test_acc is not exact")
    acc = float(np.mean([offline[k] == labels[k % POOL] for k in acc_keys])) \
        if acc_keys else 0.0
    out.exact = {"test_acc": acc}

    client_ms = [r[5] for r in rows]
    misses = [r for r in rows if not r[2]]
    out.metrics = {
        "setup_s": build_s + boot_s,
        "train_sps": EPOCHS * n_train / train_s,
        "eval_sps": len(rows) / load["elapsed"],
        "peak_rss_mb": peak_rss_mb(),
    }
    out.extra = {"requests": len(rows), "req_ms.p50": median(client_ms),
                 "req_ms.p90": pct(client_ms, 90),
                 "req_ms.p99": pct(client_ms, 99)}
    out.layers = {
        "test_acc": acc,
        "cluster.hop_ms.p50": median([r[5] - r[3] for r in rows]),
        "serve.batcher.queue_ms.p50": median([r[4] for r in misses]),
        "serve.batcher.queue_ms.p99": pct([r[4] for r in misses], 99),
        "serve.model_ms.p50": median([r[3] - r[4] for r in misses]),
        "serve.batcher.batch_size.mean": float(
            worker.get("mean_batch_size", 0.0)),
        "serve.cache.hit_ratio": (len(rows) - len(misses)) / max(len(rows), 1),
        "cluster.rejected": float(final["rejected_503"]),
        "cluster.errors": float(final["errors"]),
        "cluster.restarts": float(final["restarts"]),
        # No wrappers are installed: every figure above comes from reply
        # fields and the cluster's own metrics.
        "trace.overhead_frac": 0.0,
        "trace.unattributed_frac": 1.0 - sum(client_ms) / 1e3 / (
            CLIENTS * load["elapsed"]),
    }
    return out
