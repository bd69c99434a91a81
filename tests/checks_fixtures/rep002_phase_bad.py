"""REP002 fixture: a hand-rolled IF phase loop outside the package (1)."""
import numpy as np


def if_phase(v, in_drive, weights, T, bias=True):
    # The BLAS-ordered drive again, never pinned against the kernel tests.
    counts = [np.zeros(a.size, dtype=np.int64) for a in v]
    for _ in range(T):
        s = np.ones(v[0].size)
        for k, w in enumerate(weights):
            v[k + 1] += np.append(s, 1.0) @ w
            s = v[k + 1] >= 1.0
            counts[k + 1] += s
    return counts


class Network:
    def _spike_phase1(self, x):
        # Not a kernel name: the method that calls the kernel is fine.
        return x
