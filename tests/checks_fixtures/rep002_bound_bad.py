"""REP002 fixture: hand-rolled bound kernels outside the package (3)."""
import numpy as np


def bind_cuba_step(u, v, refrac, bias, decay_u, decay_v, vth):
    # Caches the arrays but never re-resolves on a backend change.
    def step(syn):
        np.copyto(u, syn)
        v[...] = np.maximum(v + u + bias, 0)
        return v >= vth
    return step


def bind_if_step(v, refrac, threshold):
    return lambda drive: np.add(v, drive, out=v) >= threshold


def bind_trace_update(values, impulse, decay, trace_max):
    return lambda spikes: np.minimum(values * decay + impulse * spikes,
                                     trace_max, out=values)
