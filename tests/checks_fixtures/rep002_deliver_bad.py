"""REP002 fixture: a hand-rolled synaptic delivery outside the package (2)."""
import numpy as np


def spike_deliver(out, weight, spikes, weight_scale):
    # The dense formula again, never pinned against the kernel tests.
    out += (spikes.astype(np.int64) @ weight) * weight_scale
    return int(spikes.sum())


def bind_spike_deliver(out, weight, weight_scale):
    return lambda spikes: spike_deliver(out, weight, spikes, weight_scale)


class Connection:
    def propagate(self, spikes, out=None):
        # Not a kernel name: the method that calls the kernel is fine.
        return out
