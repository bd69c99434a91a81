"""Pure-NumPy kernel backend — the bit-exact reference implementation.

Every other backend is pinned to this one by ``tests/test_kernels.py``
(exact ``array_equal``, never ``allclose``).  All operations are elementwise
IEEE-754 (or exact integer) arithmetic in a defined per-element order, so a
compiled loop performing the same operations reproduces the results bit for
bit.  Reductions are therefore written with an explicit order: the batched
Eq. (7) kernel accumulates per-sample outer products in batch order rather
than delegating to a BLAS GEMM, whose blocked summation order is
unspecified and unreproducible from a plain loop.  The same rule covers
the synaptic and error drive of :func:`if_phase`: ``0.0`` plus the weight
rows of the neurons that spiked, in ascending index, bias row last —
never ``spikes @ W``.

Scalars are cast to the array dtype *before* entering the arithmetic so the
float32 path performs genuine float32 operations (matching the compiled
backends) instead of promoting to float64.
"""

from __future__ import annotations

import numpy as np


def if_step(v, refrac, drive, threshold, soft_reset, refractory):
    dt = v.dtype.type
    thr = dt(threshold)
    margin = thr - dt(1e-9)
    active = refrac == 0
    np.copyto(v, np.where(active, v + drive, v))
    # The epsilon margin keeps grid-exact drives (e.g. 0.3 over 100 steps)
    # from losing a spike to float accumulation error.
    spikes = active & (v >= margin)
    if soft_reset:
        np.copyto(v, np.where(spikes, v - thr, v))
    else:
        np.copyto(v, np.where(spikes, dt(0), v))
    np.clip(v, 0, None, out=v)
    if refractory:
        refrac[spikes] = refractory
        refrac[~spikes & (refrac > 0)] -= 1
    return spikes


def cuba_step(u, v, refrac, bias, syn, decay_u, decay_v, vth, soft_reset,
              refractory, floor_at_zero, non_spiking):
    # Current decay then accumulation (Eq. 8, forward-Euler, integer).
    np.copyto(u, (u * (4096 - decay_u)) // 4096 + syn)
    ok = refrac == 0
    leaked = (v * (4096 - decay_v)) // 4096
    np.copyto(v, np.where(ok, leaked + u + bias, v))
    if floor_at_zero:
        np.clip(v, 0, None, out=v)
    if non_spiking:
        return np.zeros(v.shape, dtype=bool)
    fired = ok & (v >= vth)
    if soft_reset:
        np.copyto(v, np.where(fired, v - vth, v))
    else:
        np.copyto(v, np.where(fired, 0, v))
    if refractory:
        refrac[fired] = refractory
        refrac[~fired & (refrac > 0)] -= 1
    return fired


def trace_update(values, spikes, impulse, decay, trace_max):
    dt = values.dtype.type
    if decay != 1.0:
        values *= dt(decay)
    bumped = values + np.where(spikes, dt(impulse), dt(0))
    np.copyto(values, np.minimum(bumped, dt(trace_max)))


def spike_deliver(out, weight, spikes, weight_scale, n_rep, n_src, n_dst,
                  per_replica):
    # The dense formula: every synapse is visited, spiking or not.
    pre = spikes.reshape(n_rep, n_src).astype(np.int64)
    if per_replica:
        contrib = np.einsum("rs,rsd->rd", pre,
                            weight.reshape(n_rep, n_src, n_dst))
    else:
        contrib = pre @ weight.reshape(n_src, n_dst)
    out += (contrib * weight_scale).reshape(-1)
    return int(np.count_nonzero(spikes))


def _ordered_sum(rows, n):
    """``0.0 + rows[0] + rows[1] + ...``, strictly in row order.

    An accumulation is sequential by definition; ``np.add.reduce`` would
    switch to pairwise summation for single-column rows.  The trailing
    ``+ 0.0`` is the leading ``0.0`` of the C loop: it only turns an
    all-``-0.0`` sum into ``+0.0``.
    """
    if not len(rows):
        return np.zeros(n)
    return np.add.accumulate(rows, axis=0)[-1] + 0.0


def _synaptic_drive(w, spikes, bias):
    idx = np.flatnonzero(spikes)
    if bias:
        idx = np.append(idx, len(w) - 1)
    return _ordered_sum(w[idx], w.shape[1])


def _error_drive(b, signed, gain):
    idx = np.flatnonzero(signed)
    return gain * _ordered_sum(b[idx] * signed[idx, None], b.shape[1])


def if_phase(v, in_drive, weights, bias, T, counts, target, class_mask,
             feedback, dfa, error_gain, hidden_error_gain, out_gate,
             hidden_gates):
    # IFLayer's defaults: threshold 1, soft reset, no refractory period.
    def fire(v_k, drive):
        return if_step(v_k, np.zeros(v_k.shape, np.int64), drive, 1.0, True,
                       0)

    def fire_pair(pair, drive, gate):
        sp, sn = fire(pair[0], drive), fire(pair[1], -drive)
        if gate is not None:
            sp, sn = sp & gate, sn & gate
        return sp.astype(float) - sn.astype(float)

    def forward(corrections):
        s = fire(v[0], in_drive)
        counts[0] += s
        for i, w in enumerate(weights):
            drive = _synaptic_drive(w, s, bias)
            if corrections is not None:
                drive = drive + corrections[i]
            s = fire(v[i + 1], drive)
            counts[i + 1] += s
        return s

    if target is None:
        for _ in range(T):
            forward(None)
        return
    # Phase 2: the label layer and the error pairs start from rest.
    n_hidden = [len(a) for a in v[1:-1]]
    label_v = np.zeros(len(target))
    out_pair = (np.zeros(len(target)), np.zeros(len(target)))
    hidden_pairs = [(np.zeros(n), np.zeros(n)) for n in n_hidden]
    gates = [None] * len(n_hidden) if hidden_gates is None else hidden_gates
    pending_out = np.zeros(len(target))
    pending_hidden = [np.zeros(n) for n in n_hidden]
    for _ in range(T):
        # Error spikes of the previous step correct this step's drive.
        out = forward(pending_hidden + [pending_out])
        out = out & class_mask
        tgt = fire(label_v, target)
        pending_out = fire_pair(
            out_pair, error_gain * (tgt.astype(float) - out.astype(float)),
            out_gate) * class_mask
        if dfa:
            pending_hidden = [
                fire_pair(pair, _error_drive(b, pending_out,
                                             hidden_error_gain), gate)
                for b, pair, gate in zip(feedback, hidden_pairs, gates)]
        else:
            e_above = pending_out
            for i in range(len(n_hidden) - 1, -1, -1):
                pending_hidden[i] = e_above = fire_pair(
                    hidden_pairs[i],
                    _error_drive(feedback[i], e_above, hidden_error_gain),
                    gates[i])


def delta_w(h_hat, h, pre, eta):
    dt = h_hat.dtype.type
    diff = h_hat - h
    return dt(eta) * (pre[:, None] * diff[None, :])


def delta_w_batch(h_hat, h, pre, eta, mean):
    dt = h_hat.dtype.type
    nb = h_hat.shape[0]
    diff = h_hat - h
    acc = np.zeros((pre.shape[1], h_hat.shape[1]), dtype=h_hat.dtype)
    for b in range(nb):
        acc += pre[b][:, None] * diff[b][None, :]
    dw = dt(eta) * acc
    if mean:
        dw = dw / dt(nb)
    return dw


def delta_w_loihi(h_hat, z, pre, eta):
    dt = h_hat.dtype.type
    coeff = dt(2.0 * eta) * h_hat - dt(eta) * z
    return pre[:, None] * coeff[None, :]


def sop_eval(scales, offs, kinds, idxs, consts, pre_stack, post_stack,
             syn_stack, n_rep, n_src, n_dst):
    pre = pre_stack.reshape(-1, n_rep, n_src)
    post = post_stack.reshape(-1, n_rep, n_dst)
    syn = syn_stack.reshape(-1, n_rep, n_src, n_dst)
    dz = np.zeros((n_rep, n_src, n_dst), dtype=np.float64)
    for t in range(len(scales)):
        value = np.float64(scales[t])
        for f in range(offs[t], offs[t + 1]):
            kind = kinds[f]
            if kind == 0:
                base = pre[idxs[f]][:, :, None]
            elif kind == 1:
                base = post[idxs[f]][:, None, :]
            elif kind == 2:
                base = syn[idxs[f]]
            else:
                base = np.float64(0.0)
            value = value * (base + consts[f])
        dz = dz + value
    return dz
