"""``sweep_tiny``: the built-in ``t_sweep --tiny`` grid over ``SweepRunner``.

Four points (phase length x dataset, rate backend) with ``SEEDS`` seeds
each run through the work-queue executor with ``WORKERS`` spawned worker
processes.  Each repetition gets a fresh run store, so every sweep pays
for spawning, SQLite lease claims and record appends; repetitions continue
until ``--seconds`` have passed (at least ``MIN_REPEATS``).

Checks: every point completes with exactly one ``ok`` record per seed, and
every repetition reproduces the first one's accuracies exactly.  The
executor's own ``trace.jsonl`` task spans give the per-layer figures.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.experiments.store import RECORDS_NAME, read_jsonl
from repro.obs.trace import read_trace
from repro.sweeps import SweepRunner, get_sweep

from common import Outcome, median, pct, peak_rss_mb

SEEDS = 3
WORKERS = 2
MIN_REPEATS = 3


def _spec(seed: int):
    seeds = tuple(seed * SEEDS + i for i in range(SEEDS))
    return get_sweep("t_sweep").build_sweep(tiny=True, seeds=seeds)


def _once(seed: int, run_dir: Path) -> Dict[str, object]:
    """One sweep in a fresh run store: run, records, trace.

    Its set-up time runs from the start until a worker claims the first
    task: run store, spec expansion, point run directories, the queue
    database and the worker processes.
    """
    wall0, t0 = time.time(), time.perf_counter()
    root = Path(tempfile.mkdtemp(prefix="sweep-", dir=run_dir))
    spec = _spec(seed)
    runner = SweepRunner(out_root=root, max_workers=WORKERS)
    result = runner.run(spec)
    sweep_s = time.perf_counter() - t0
    records = {}
    for point in result.points:
        point_dir = runner.runner.store.run_dir(spec.base.name, point.run_id)
        records[point.point.point_id] = (
            point.status, read_jsonl(point_dir / RECORDS_NAME))
    trace = read_trace(result.sweep_dir / "trace.jsonl")
    first_claim = min(r["ts"] for r in trace if r.get("name") == "task_claim")
    return {"setup_s": first_claim - wall0, "sweep_s": sweep_s, "spec": spec,
            "status": result.status, "records": records, "trace": trace}


def _check(rep: Dict[str, object], out: Outcome) -> Dict[str, float]:
    """Exactly one ok record per (point, seed); returns point/seed -> acc."""
    seeds = rep["spec"].base.seeds
    accs: Dict[str, float] = {}
    for point_id, (status, records) in sorted(rep["records"].items()):
        out.check(status == "complete", f"point {point_id} is {status}")
        for seed in seeds:
            ok = [r for r in records
                  if r.get("seed") == seed and r.get("status") == "ok"]
            out.check(len(ok) == 1, f"point {point_id} seed {seed} has "
                                    f"{len(ok)} ok records")
            if ok:
                accs[f"{point_id}/{seed}"] = float(
                    ok[0]["metrics"]["rate"]["test_acc"])
    return accs


def run(seed: int, seconds: int, run_dir: Path) -> Outcome:
    out = Outcome()
    _once(seed, run_dir)  # warm the parent's imports and the disk cache
    reps: List[Dict[str, object]] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPEATS or time.perf_counter() - start < seconds:
        reps.append(_once(seed, run_dir))

    accs = [_check(rep, out) for rep in reps]
    out.check(all(a == accs[0] for a in accs),
              "repeated sweeps disagree on accuracy")
    test_acc = sum(accs[0].values()) / max(len(accs[0]), 1)
    out.exact = {"test_acc": test_acc}

    spec = reps[0]["spec"]
    points = len(reps[0]["records"])
    tasks = points * len(spec.base.seeds)
    sweep_s = [rep["sweep_s"] for rep in reps]
    spans = [r for rep in reps for r in rep["trace"]
             if r.get("kind") == "span" and r.get("name") == "task"]
    task_ms = [float(s["dur_ms"]) for s in spans]
    out.metrics = {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "train_sps": len(reps) * tasks * spec.base.n_train / sum(sweep_s),
        "eval_sps": len(reps) * tasks * spec.base.n_test / sum(sweep_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.extra = {"repeats": len(reps), "tasks": len(task_ms),
                 "sweep_s": median(sweep_s), "op_ms.p50": median(task_ms),
                 "op_ms.p90": pct(task_ms, 90)}

    waits = [float(s["attrs"].get("queue_wait_ms", 0.0)) for s in spans]
    first_claims = []
    for rep in reps:
        sweep_start = min(r["ts"] for r in rep["trace"]
                          if r.get("name") == "sweep")
        claims = [r["ts"] for r in rep["trace"]
                  if r.get("name") == "task_claim"]
        first_claims.append(min(claims) - sweep_start)
    busy_s = sum(task_ms) / 1e3
    out.layers = {
        "test_acc": test_acc,
        "exec.queue_wait_ms.p50": median(waits),
        "exec.queue_wait_ms.max": max(waits),
        "exec.task_s.p50": median(task_ms) / 1e3,
        "exec.worker_util": busy_s / (WORKERS * sum(sweep_s)),
        "exec.first_claim_s": median(first_claims),
        "exec.attempts_per_task": len(spans) / (tasks * len(reps)),
        # No wrappers are installed: the figures come from the executor's
        # own trace, which untraced runs write too.
        "trace.overhead_frac": 0.0,
        "trace.unattributed_frac": 1.0 - busy_s / (WORKERS * sum(sweep_s)),
    }
    return out
