"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chip_online --seed 1 --seconds 12 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the repository
root; ``perfbench/README.md`` says what each measures.  With ``--trace 0``
the result carries every end-to-end metric, with ``--trace 1`` every
per-layer metric (timed by wrapping the program's methods, so the traced
run is slower and its timings are not end-to-end numbers).

The next-to-last line of standard output is a report: the seed, the
machine stamp, every metric, and the outputs that must repeat exactly for
the seed.  The last line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Everything the run writes -- the compiled-kernel cache, checkpoints, run
directories, queue databases -- stays under ``.perfbench/`` in the
repository, and each run's own files are removed when it ends.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Build cache and per-run scratch space (listed in .gitignore).
STATE = ROOT / ".perfbench"

WORKLOADS = ("chip_online", "fp_spike", "serve_cluster", "sweep_tiny")


def _prepare(run_dir: Path) -> None:
    """Keep every file the run or its worker processes write inside the
    checkout, and make the repository's sources importable."""
    os.environ["REPRO_KERNEL_CACHE"] = str(STATE / "kernels")
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    # One BLAS thread: on a 2-core host OpenBLAS's pool stalls for up to
    # half a second on its first parallel calls and erratically under
    # contention, while one thread evaluates as fast.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    paths = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    sys.path[:0] = paths
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + [p for p in [os.environ.get("PYTHONPATH")] if p])


def _reap_children() -> None:
    """Stop and wait for any worker process a failed run left behind."""
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)


def _stop_resource_tracker(timeout_s: float = 10.0) -> None:
    """Stop and wait for multiprocessing's resource tracker.

    Spawning a worker process starts the tracker as a child of this
    process.  Left alone it only exits after this process has gone, as an
    orphan nobody waits for; closing its pipe once every worker has ended
    makes it exit now, and it is reaped here.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        os.close(fd)
        tracker._fd = tracker._pid = None
    if pid is None:
        return
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already reaped


def _run(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path):
    if workload in ("chip_online", "fp_spike"):
        import training

        job = training.ChipJob() if workload == "chip_online" \
            else training.SpikeJob()
        return training.run(job, seed, seconds, trace)
    if workload == "serve_cluster":
        import serving

        return serving.run(seed, seconds, run_dir)
    import sweep

    return sweep.run(seed, seconds, run_dir)


def _select(declared: list, measured: dict, fill: bool) -> dict:
    """The declared metrics, with units, in declaration order.  Per-layer
    metrics a workload never touches read 0 (``fill``); a missing
    end-to-end metric is a bug in the benchmark."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in measured and not fill:
            raise KeyError(f"workload did not measure {name!r}")
        out[name] = {"value": float(measured.get(name, 0.0)),
                     "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # SIGTERM unwinds through the clean-up below like an error does, so
    # no worker process outlives a stopped run.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=STATE / "runs"))
    try:
        _prepare(run_dir)
        from _bench_utils import environment_stamp

        outcome = _run(args.workload, args.seed, args.seconds,
                       bool(args.trace), run_dir)
        stamp = environment_stamp()
    finally:
        _reap_children()
        _stop_resource_tracker()
        shutil.rmtree(run_dir, ignore_errors=True)

    e2e = _select(declared["end_to_end"], outcome.metrics, fill=False)
    layers = _select(declared["per_layer"], outcome.layers, fill=True) \
        if args.trace else {}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": stamp,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "notes": outcome.notes, "exact": outcome.exact,
        "extra": outcome.extra,
        "metrics": {k: v["value"] for k, v in e2e.items()},
        "layers": {k: v["value"] for k, v in layers.items()},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": layers if args.trace else e2e,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
