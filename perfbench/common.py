"""Helpers shared by the workloads: timing statistics, memory, the span
recorder that times wrapped methods, and the per-run outcome record."""

from __future__ import annotations

import dataclasses
import functools
import resource
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3


def timed_setups(setup: Callable[[], object], repeats: int = SETUPS,
                 discard: Callable[[object], None] = lambda result: None,
                 ) -> Tuple[object, float]:
    """Run ``setup`` ``repeats`` times; return the last result and the
    median wall time of one set-up.  Each earlier result is passed to
    ``discard`` (untimed) before the next set-up starts."""
    times: List[float] = []
    result = None
    for i in range(repeats):
        if i:
            discard(result)
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, median(times)


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics, ``layers`` the per-layer ones
    (printed only by a traced run), ``exact`` the outputs that must repeat
    bit for bit for a given seed, with or without tracing, and ``extra``
    other measured values the report shows.
    """

    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    exact: Dict[str, object] = dataclasses.field(default_factory=dict)
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        """Count ``ops`` checked operations; all of them fail if not ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.notes.append(f"check failed: {what}")


class Spans:
    """Busy and self time of wrapped methods, aggregated in memory.

    :meth:`install` replaces class attributes with timing wrappers; every
    call becomes a span whose parent is the innermost wrapped call still
    open on the same thread.  A span's self time is its duration minus the
    time its child spans cover, so the self times of a tree add up to the
    busy time of its root.  Each thread keeps its own stack and the totals
    are updated under a lock, so spans recorded on worker threads are
    counted correctly; their busy time is summed thread time, and it is
    not subtracted from a parent on another thread.  ``root_s`` is the
    time covered by top-level spans of the thread that created the
    recorder.
    """

    def __init__(self):
        #: name -> [calls, busy_s, child_s]
        self.stats: Dict[str, List[float]] = {}
        self.root_s = 0.0
        self._owner = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[type, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        local, lock, owner = self._local, self._lock, self._owner
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with lock:
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += frame[0]
                    if not stack and threading.get_ident() == owner:
                        self.root_s += dur

        return wrapped

    def install(self, targets: Iterable[Tuple[type, str, str]]) -> "Spans":
        """Wrap ``owner.attr`` as span ``name`` for each target triple."""
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original))
            self._installed.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Spans":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def busy_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0))[1])

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return float(stat[1] - stat[2]) if stat else 0.0

