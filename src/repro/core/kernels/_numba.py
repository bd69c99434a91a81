"""Numba kernel backend: the reference loops under ``@njit(cache=True)``.

Importing this module requires numba; the selection chain in
:mod:`repro.core.kernels` catches the ImportError and falls through to the
``cext`` or ``numpy`` backend when it is absent.

The jitted loops perform exactly the operations of the C backend
(:mod:`._csrc`), element by element, in the same order.  Scalars are cast
to the array dtype by the thin dispatch wrappers *before* entering the
jitted code, so numba specializes a genuine float32 pipeline for float32
arrays instead of promoting intermediates to float64 — promotion would
round differently and break the bit-identity suite.
"""

from __future__ import annotations

import numpy as np
from numba import njit

# Synaptic delivery is exact integer arithmetic: the NumPy reference is
# already bit-identical to any compiled loop, so this backend reuses it.
# The per-sample IF phase reuses the NumPy reference as well.
from ._numpy import if_phase, spike_deliver  # noqa: F401


@njit(cache=True)
def _if_step(v, refrac, drive, thr, margin, soft_reset, refractory, spikes):
    for i in range(v.size):
        active = refrac[i] == 0
        if active:
            v[i] = v[i] + drive[i]
        s = active and (v[i] >= margin)
        if s:
            if soft_reset:
                v[i] = v[i] - thr
            else:
                v[i] = 0
        if v[i] < 0:
            v[i] = 0
        if refractory != 0:
            if s:
                refrac[i] = refractory
            elif refrac[i] > 0:
                refrac[i] -= 1
        spikes[i] = s


def if_step(v, refrac, drive, threshold, soft_reset, refractory):
    dt = v.dtype.type
    thr = dt(threshold)
    margin = thr - dt(1e-9)
    spikes = np.empty(v.size, dtype=np.bool_)
    _if_step(v, refrac, drive, thr, margin, soft_reset, refractory, spikes)
    return spikes


@njit(cache=True)
def _cuba_step(u, v, refrac, bias, syn, decay_u, decay_v, vth, soft_reset,
               refractory, floor_at_zero, non_spiking, fired):
    for i in range(v.size):
        u[i] = (u[i] * (4096 - decay_u)) // 4096 + syn[i]
        ok = refrac[i] == 0
        if ok:
            leaked = (v[i] * (4096 - decay_v)) // 4096
            v[i] = leaked + u[i] + bias[i]
        if floor_at_zero and v[i] < 0:
            v[i] = 0
        if non_spiking:
            fired[i] = False
            continue
        f = ok and (v[i] >= vth)
        if f:
            if soft_reset:
                v[i] = v[i] - vth
            else:
                v[i] = 0
        if refractory != 0:
            if f:
                refrac[i] = refractory
            elif refrac[i] > 0:
                refrac[i] -= 1
        fired[i] = f


def cuba_step(u, v, refrac, bias, syn, decay_u, decay_v, vth, soft_reset,
              refractory, floor_at_zero, non_spiking):
    fired = np.empty(v.size, dtype=np.bool_)
    _cuba_step(u, v, refrac, bias, syn, np.int64(decay_u), np.int64(decay_v),
               np.int64(vth), soft_reset, np.int64(refractory),
               floor_at_zero, non_spiking, fired)
    return fired


@njit(cache=True)
def _trace_update(values, spikes, imp, dec, mx, do_decay):
    for i in range(values.size):
        x = values[i]
        if do_decay:
            x = x * dec
        if spikes[i]:
            x = x + imp
        values[i] = x if x < mx else mx


def trace_update(values, spikes, impulse, decay, trace_max):
    dt = values.dtype.type
    _trace_update(values, spikes, dt(impulse), dt(decay), dt(trace_max),
                  decay != 1.0)


@njit(cache=True)
def _delta_w(h_hat, h, pre, eta, dw):
    for i in range(pre.size):
        p = pre[i]
        for j in range(h_hat.size):
            dw[i, j] = eta * (p * (h_hat[j] - h[j]))


def delta_w(h_hat, h, pre, eta):
    dw = np.empty((pre.size, h_hat.size), dtype=h_hat.dtype)
    _delta_w(h_hat, h, pre, h_hat.dtype.type(eta), dw)
    return dw


@njit(cache=True)
def _delta_w_batch(h_hat, h, pre, eta, bb, mean, dw):
    ni = pre.shape[1]
    nj = h_hat.shape[1]
    for i in range(ni):
        for j in range(nj):
            dw[i, j] = 0
    for b in range(h_hat.shape[0]):
        for i in range(ni):
            p = pre[b, i]
            for j in range(nj):
                dw[i, j] += p * (h_hat[b, j] - h[b, j])
    for i in range(ni):
        for j in range(nj):
            dw[i, j] = eta * dw[i, j]
    if mean:
        for i in range(ni):
            for j in range(nj):
                dw[i, j] = dw[i, j] / bb


def delta_w_batch(h_hat, h, pre, eta, mean):
    dt = h_hat.dtype.type
    dw = np.empty((pre.shape[1], h_hat.shape[1]), dtype=h_hat.dtype)
    _delta_w_batch(h_hat, h, pre, dt(eta), dt(h_hat.shape[0]), mean, dw)
    return dw


@njit(cache=True)
def _delta_w_loihi(h_hat, z, pre, eta, eta2, dw):
    for i in range(pre.size):
        p = pre[i]
        for j in range(h_hat.size):
            dw[i, j] = p * (eta2 * h_hat[j] - eta * z[j])


def delta_w_loihi(h_hat, z, pre, eta):
    dt = h_hat.dtype.type
    dw = np.empty((pre.size, h_hat.size), dtype=h_hat.dtype)
    _delta_w_loihi(h_hat, z, pre, dt(eta), dt(2.0 * eta), dw)
    return dw


@njit(cache=True)
def _sop_eval(scales, offs, kinds, idxs, consts, pre, post, syn, dz,
              n_rep, n_src, n_dst):
    for r in range(n_rep):
        for i in range(n_src):
            for j in range(n_dst):
                total = 0.0
                for t in range(scales.size):
                    acc = scales[t]
                    for f in range(offs[t], offs[t + 1]):
                        kind = kinds[f]
                        if kind == 0:
                            base = pre[idxs[f] * n_rep * n_src
                                       + r * n_src + i]
                        elif kind == 1:
                            base = post[idxs[f] * n_rep * n_dst
                                        + r * n_dst + j]
                        elif kind == 2:
                            base = syn[(idxs[f] * n_rep + r) * n_src * n_dst
                                       + i * n_dst + j]
                        else:
                            base = 0.0
                        acc = acc * (base + consts[f])
                    total += acc
                dz[(r * n_src + i) * n_dst + j] = total
    return dz


def sop_eval(scales, offs, kinds, idxs, consts, pre_stack, post_stack,
             syn_stack, n_rep, n_src, n_dst):
    dz = np.empty(n_rep * n_src * n_dst, dtype=np.float64)
    _sop_eval(scales, offs, kinds, idxs, consts, pre_stack.reshape(-1),
              post_stack.reshape(-1), syn_stack.reshape(-1), dz,
              n_rep, n_src, n_dst)
    return dz.reshape(n_rep, n_src, n_dst)
