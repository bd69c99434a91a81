"""Synaptic connections with 8-bit integer weights and per-synapse tags.

A :class:`ConnectionGroup` is a dense weight block between two compartment
groups.  Weights are stored as signed 8-bit mantissas; the integer potential
delivered to the destination per presynaptic spike is
``mant * weight_scale`` where ``weight_scale`` translates one mantissa step
into membrane units.  Plastic connections additionally carry a per-synapse
*tag* — the third synaptic variable of Loihi's learning engine, which
EMSTDP uses to hold ``Z = h + h_hat`` (Eq. 12) — and pre/post trace
counters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import kernels
from .compartment import CompartmentGroup
from .traces import counter_trace

#: Signed 8-bit mantissa range of a synaptic weight.
WEIGHT_MANT_MAX = 127

#: Range of the 8-bit tag variable (stored unsigned in EMSTDP's usage).
TAG_MAX = 255


class ConnectionGroup:
    """Dense synaptic block ``src -> dst``.

    Parameters
    ----------
    src, dst:
        Compartment groups; the weight matrix has shape ``(src.n, dst.n)``.
    weight_mant:
        Integer mantissas in ``[-127, 127]``.
    weight_scale:
        Membrane units delivered per mantissa unit per spike.  The builder
        chooses it so that a full-scale weight equals the intended fraction
        of the destination threshold.
    plastic:
        Allocate tags and trace counters and register with the learning
        engine.
    learning_rule:
        Name of the microcode rule set to apply (resolved by the runtime).
    """

    def __init__(self, src: CompartmentGroup, dst: CompartmentGroup,
                 weight_mant: np.ndarray, weight_scale: int,
                 plastic: bool = False, learning_rule: str = "",
                 name: str = ""):
        weight_mant = np.asarray(weight_mant)
        if weight_mant.shape != (src.n, dst.n):
            raise ValueError(
                f"weight matrix must be ({src.n}, {dst.n}), got {weight_mant.shape}")
        if np.abs(weight_mant).max(initial=0) > WEIGHT_MANT_MAX:
            raise ValueError("weight mantissas exceed the 8-bit range")
        if weight_scale < 1:
            raise ValueError("weight_scale must be a positive integer")
        if src.replicas != dst.replicas:
            raise ValueError(
                f"connection {name or src.name + '->' + dst.name!r}: "
                f"src has {src.replicas} replicas, dst has {dst.replicas}")
        self.src = src
        self.dst = dst
        #: Replica count inherited from the endpoint groups.  Every
        #: connection starts with one C-contiguous ``(src.n, dst.n)`` weight
        #: block shared by all replicas.  A replicated plastic connection
        #: keeps it shared while the replicas agree: the learning engine's
        #: ``weight_mant + dz`` with a per-replica ``dz`` turns it into a
        #: ``(replicas, src.n, dst.n)`` block only when a weight rule
        #: fires, so batched learning still matches sequential per-replica
        #: execution bit for bit.  Tags are always per-replica.
        self.replicas = src.replicas
        self.weight_mant = np.array(weight_mant, dtype=np.int64, order="C")
        self.weight_scale = int(weight_scale)
        self.plastic = bool(plastic)
        self.learning_rule = learning_rule
        self.name = name or f"{src.name}->{dst.name}"
        tag_shape = self.weight_mant.shape if self.replicas == 1 \
            else (self.replicas,) + self.weight_mant.shape
        self.tag = np.zeros(tag_shape, dtype=np.int64) if plastic else None
        self.pre_trace = counter_trace(src.n, self.replicas) if plastic \
            else None
        self.post_trace = counter_trace(dst.n, self.replicas) if plastic \
            else None
        #: Cumulative number of synaptic events (spike x fan-out), for the
        #: energy model; batched replicas accumulate into the same counter.
        self.syn_events = 0
        self._kernel: Optional[kernels.BoundKernel] = None

    @property
    def n_synapses(self) -> int:
        """Logical synapse count (replica copies are the same synapses)."""
        return self.src.n * self.dst.n

    def propagate(self, spikes: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """Integer current delivered to ``dst`` for presynaptic ``spikes``.

        ``spikes`` has the source group's state shape: ``(src.n,)`` single
        replica, ``(replicas, src.n)`` batched; the returned current matches
        the destination's state shape.  With ``out`` — a persistent int64
        buffer of that shape, as the runtime keeps per group — the current
        is added into ``out`` through a bound kernel and ``out`` returned.
        """
        if out is None:
            out = np.zeros(self.dst.state_shape, dtype=np.int64)
            count = kernels.spike_deliver(out, self.weight_mant, spikes,
                                          self.weight_scale)
        else:
            count = self._bound_kernel(out)(spikes)
        self.syn_events += count * self.dst.n
        return out

    def count_events(self, spikes: np.ndarray) -> None:
        """Book the synaptic events of ``spikes`` without delivering them,
        for a destination that is disabled and would discard the current."""
        self.syn_events += int(np.count_nonzero(spikes)) * self.dst.n

    def _bound_kernel(self, out: np.ndarray) -> kernels.BoundKernel:
        """The delivery kernel bound to ``out`` and the current weights,
        shared ``(src.n, dst.n)`` or per-replica (bound again after a
        learning epoch or ``set_weights``)."""
        k = self._kernel
        if k is None or not k.bound_to(out, self.weight_mant):
            k = self._kernel = kernels.bind_spike_deliver(
                out, self.weight_mant, self.weight_scale)
        return k

    def update_traces(self, pre_spikes: np.ndarray,
                      post_spikes: np.ndarray) -> None:
        if not self.plastic:
            return
        self.pre_trace.update(pre_spikes)
        self.post_trace.update(post_spikes)

    def reset_traces(self) -> None:
        if self.plastic:
            self.pre_trace.reset()
            self.post_trace.reset()

    def reset_tag(self) -> None:
        if self.tag is not None:
            self.tag.fill(0)

    def set_weights(self, weight_mant: np.ndarray) -> None:
        """Overwrite mantissas (host reprogramming), with range check.

        One ``(src.n, dst.n)`` block is stored as it is, shared by every
        replica — how the batched trainer seeds each chunk with the
        canonical weights.  A replicated plastic connection also accepts a
        ``(replicas, src.n, dst.n)`` block programming each replica.  The
        connection keeps its own copy either way.
        """
        weight_mant = np.asarray(weight_mant)
        shapes = [(self.src.n, self.dst.n)]
        if self.plastic and self.replicas > 1:
            shapes.append((self.replicas,) + shapes[0])
        if weight_mant.shape not in shapes:
            raise ValueError(
                f"weights must have shape {' or '.join(map(str, shapes))}, "
                f"got {weight_mant.shape}")
        self.weight_mant = np.ascontiguousarray(
            np.clip(weight_mant, -WEIGHT_MANT_MAX, WEIGHT_MANT_MAX),
            dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "plastic" if self.plastic else "static"
        return f"<ConnectionGroup {self.name!r} {kind} {self.weight_mant.shape}>"
