"""Backend-selected compiled kernels for the per-timestep inner loops.

Every number in ``BENCH_*.json`` bottoms out in the same few hot loops:
the IF membrane update (:mod:`repro.core.neuron` and the chip compartments
in :mod:`repro.loihi.compartment`), synaptic delivery
(:mod:`repro.loihi.synapse`), trace decay/accumulation
(:mod:`repro.loihi.traces`), the EMSTDP ``dW`` accumulation (Eq. 7 /
Eq. 12 in :mod:`repro.core.learning`), the microcode sum-of-products
(:mod:`repro.loihi.microcode`) and the online FP spike presentation
(:func:`if_phase`, :mod:`repro.core.network`).  This package routes them
through one of three interchangeable backends:

``numba``
    The reference loops under ``@njit(cache=True)``.  Preferred when numba
    is installed.
``cext``
    The same loops as C, compiled once with the system compiler and loaded
    via ctypes (no third-party dependency beyond a C compiler).
``numpy``
    The pure-NumPy reference implementation — always available.

Selection happens once at import: the first available backend in the order
above wins, with a single ``RuntimeWarning`` if only NumPy is left.  The
``REPRO_KERNEL_BACKEND`` environment variable overrides autodetection
(values: ``numba``, ``cext``, ``numpy``); an unknown value raises
``ValueError``, a known-but-unavailable one raises ``ImportError`` — an
explicit request must never silently degrade.

Synaptic delivery
-----------------
:func:`spike_deliver` is event-driven, like the chip it models: each
presynaptic spike adds its own weight row to the destination currents and
silent rows are skipped, so a delivery costs presynaptic spikes x fan-out
rather than S x D.  (The NumPy reference keeps the dense formula.)  The
runtime owns one int64 current buffer per compartment group, zeroes it
every step and delivers every inbound connection into it.

One phase per call
------------------
:func:`if_phase` runs all ``T`` steps of one phase of an online EMSTDP
presentation — the forward IF stack, and in phase 2 the label layer and
the error pairs — so a training sample costs two calls instead of
hundreds of per-step ones.  It fixes the order of the drive sums
(``0.0``, the spiking rows in ascending index, the bias row last) instead
of calling ``spikes @ W``, whose BLAS summation order is unspecified.  The
``cext`` loop skips silent rows; ``numba`` reuses the NumPy reference.
The entry point checks every shape, dtype and contiguity before a pointer
reaches C.  There is no batch axis and no bound form: the online update
replaces the weights after every sample.

Bound kernels
-------------
The per-timestep kernels run tens of thousands of times per sample on
microsecond-sized arrays, so re-validating and re-marshalling every
argument on every call costs far more than the arithmetic.
:func:`bind_cuba_step`, :func:`bind_if_step`, :func:`bind_trace_update`
and :func:`bind_spike_deliver` therefore return a :class:`BoundKernel`:
the persistent arrays (membrane, current, refractory counters, bias,
trace values; a delivery's current buffer and weights) and the static
parameters are checked once — dtype, shape, C-contiguity — and the
compiled backend caches their addresses.  Each call then passes only the
per-step operand (synaptic input, drive or spikes), which is copied into a
buffer owned by the binding, and returns a fresh spike array (``None`` for
traces, the presynaptic spike count for a delivery).  Results are
bit-identical to the unbound kernels.

Invariants:

* the bound state arrays must stay alive and in place.  A binding mutates
  the arrays it was given; an owner that *replaces* one (``set_bias``,
  a checkpoint load, a replicated twin) must bind again.  Owners detect
  this with :meth:`BoundKernel.bound_to`, an identity check.  Every
  learning epoch replaces a plastic connection's weights, so its delivery
  binding is rebuilt after each epoch.
* a binding re-resolves itself against the active backend whenever
  :func:`select_backend` (and so :func:`forced_backend`) has run since it
  last resolved: ``select_backend`` bumps a generation counter the binding
  compares on every call.  ``REPRO_KERNEL_BACKEND=numpy`` and a forced
  NumPy replay therefore still run the reference code.
* bound calls report to ``obs.kernel_profiler`` under the unbound
  kernel's name.

The backends are pinned bit-identical to each other — exact
``np.array_equal``, never ``allclose`` — by ``tests/test_kernels.py`` and
the golden fixtures in ``tests/golden/``, because the EMSTDP learning rule
is the paper's core contribution: a fast kernel that drifts the math by one
ulp is a wrong kernel.  ``benchmarks/bench_kernels.py`` gates the speedup.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
import warnings
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BoundKernel", "available_backends", "backend_name", "bind_cuba_step",
    "bind_if_step", "bind_spike_deliver", "bind_trace_update", "cuba_step",
    "delta_w", "delta_w_batch", "delta_w_loihi", "forced_backend",
    "if_phase", "if_step", "select_backend", "spike_deliver",
    "sum_of_products", "trace_update",
]

#: Autodetection preference order.
BACKENDS = ("numba", "cext", "numpy")

#: Environment variable overriding backend autodetection.
ENV_VAR = "REPRO_KERNEL_BACKEND"


def _import_numba():
    from . import _numba
    return _numba


def _import_cext():
    from . import _cext
    return _cext


def _import_numpy():
    from . import _numpy
    return _numpy


#: name -> loader.  Kept as a module-level dict so tests can monkeypatch a
#: loader to raise ImportError and exercise the degradation chain.
_LOADERS = {
    "numba": _import_numba,
    "cext": _import_cext,
    "numpy": _import_numpy,
}

_active_name: Optional[str] = None
_active_impl = None
#: Bumped by every :func:`select_backend`; bound kernels re-resolve when
#: it moves.
_generation = 0


def select_backend(name: Optional[str] = None) -> str:
    """Select the kernel backend; ``None`` autodetects.

    Explicit names fail loudly: ``ValueError`` for an unknown name,
    ``ImportError`` when the requested backend cannot be loaded.
    Autodetection walks :data:`BACKENDS` in order and warns once if it has
    to degrade all the way to pure NumPy.
    """
    global _active_name, _active_impl, _generation
    _generation += 1
    if name is not None:
        key = str(name).strip().lower()
        if key not in _LOADERS:
            raise ValueError(
                f"unknown kernel backend {name!r} (from ${ENV_VAR} or "
                f"select_backend): valid values are "
                f"{', '.join(repr(b) for b in BACKENDS)}")
        try:
            impl = _LOADERS[key]()
        except ImportError as exc:
            raise ImportError(
                f"kernel backend {key!r} was requested explicitly but is "
                f"not available: {exc}") from exc
        _active_name, _active_impl = key, impl
        return key
    failures = []
    for key in BACKENDS:
        try:
            impl = _LOADERS[key]()
        except ImportError as exc:
            failures.append(f"{key}: {exc}")
            continue
        if key == "numpy" and failures:
            warnings.warn(
                "no compiled kernel backend is available ("
                + "; ".join(failures)
                + "); falling back to pure-NumPy kernels.  Results are "
                "bit-identical but the per-timestep inner loops run "
                "slower.", RuntimeWarning, stacklevel=2)
        _active_name, _active_impl = key, impl
        return key
    raise ImportError(  # pragma: no cover - the numpy backend always loads
        "no kernel backend could be loaded: " + "; ".join(failures))


def backend_name() -> str:
    """Name of the active backend (``numba``, ``cext`` or ``numpy``)."""
    return _active_name


def available_backends() -> Tuple[str, ...]:
    """Backends that load successfully on this machine."""
    out = []
    for key in BACKENDS:
        try:
            _LOADERS[key]()
        except ImportError:
            continue
        out.append(key)
    return tuple(out)


@contextlib.contextmanager
def forced_backend(name: str):
    """Temporarily force a backend (used by tests and benchmarks)."""
    previous = _active_name
    select_backend(name)
    try:
        yield
    finally:
        select_backend(previous)


# ----------------------------------------------------------------------
# Input normalization
#
# Backends operate on flat C-contiguous arrays.  State arrays (membrane,
# refractory counters, traces) are updated in place: contiguous arrays are
# handed to the backend directly, non-contiguous views go through a
# copy/compute/copy-back round trip so callers holding odd views still see
# the update.
# ----------------------------------------------------------------------

_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
_I64 = (np.dtype(np.int64),)


def _state(a: np.ndarray, dtypes) -> tuple:
    """Flat contiguous view of an in-place state array + write-back hook."""
    if not isinstance(a, np.ndarray) or a.dtype not in dtypes:
        raise TypeError(
            f"state array must be a numpy array with dtype in "
            f"{[str(d) for d in dtypes]}, got {getattr(a, 'dtype', type(a))}")
    if a.flags.c_contiguous:
        return a.reshape(-1), None
    flat = np.ascontiguousarray(a).reshape(-1)
    return flat, lambda: np.copyto(a, flat.reshape(a.shape))


def _input(a, dtype, shape) -> np.ndarray:
    """Flat contiguous read-only operand, broadcast to ``shape``."""
    a = np.asarray(a, dtype=dtype)
    if a.shape != shape:
        a = np.broadcast_to(a, shape)
    return np.ascontiguousarray(a).reshape(-1)


def _impl():
    return _active_impl


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------

def if_step(v: np.ndarray, refrac: np.ndarray, drive, threshold: float,
            soft_reset: bool = True, refractory: int = 0) -> np.ndarray:
    """One IF timestep: integrate ``drive``, spike, soft/hard reset.

    ``v`` (float32/float64) and ``refrac`` (int64) are updated in place;
    returns the boolean spike array with ``v``'s shape.
    """
    vf, v_back = _state(v, _FLOAT_DTYPES)
    rf, r_back = _state(refrac, _I64)
    if refrac.shape != v.shape:
        raise ValueError(
            f"refrac shape {refrac.shape} != membrane shape {v.shape}")
    df = _input(drive, v.dtype, v.shape)
    spikes = _impl().if_step(vf, rf, df, float(threshold), bool(soft_reset),
                             int(refractory))
    for back in (v_back, r_back):
        if back is not None:
            back()
    return spikes.reshape(v.shape)


def cuba_step(u: np.ndarray, v: np.ndarray, refrac: np.ndarray,
              bias: np.ndarray, syn_input, decay_u: int, decay_v: int,
              vth: int, soft_reset: bool = True, refractory: int = 0,
              floor_at_zero: bool = True,
              non_spiking: bool = False) -> np.ndarray:
    """One CUBA LIF timestep on Loihi's integer state (Eq. 8).

    ``u``, ``v`` and ``refrac`` (all int64) are updated in place; returns
    the boolean fired array.  ``decay_*`` use the 12-bit convention where
    4096 clears the state every step.
    """
    uf, u_back = _state(u, _I64)
    vf, v_back = _state(v, _I64)
    rf, r_back = _state(refrac, _I64)
    if u.shape != v.shape or refrac.shape != v.shape:
        raise ValueError("u, v and refrac must share one shape")
    bf = _input(bias, np.int64, v.shape)
    sf = _input(syn_input, np.int64, v.shape)
    fired = _impl().cuba_step(uf, vf, rf, bf, sf, int(decay_u), int(decay_v),
                              int(vth), bool(soft_reset), int(refractory),
                              bool(floor_at_zero), bool(non_spiking))
    for back in (u_back, v_back, r_back):
        if back is not None:
            back()
    return fired.reshape(v.shape)


def trace_update(values: np.ndarray, spikes, impulse: float, decay: float,
                 trace_max: float) -> None:
    """One trace timestep: decay, add ``impulse`` where spiked, saturate.

    ``values`` (float32/float64) is updated in place.
    """
    vf, v_back = _state(values, _FLOAT_DTYPES)
    sf = _input(spikes, bool, values.shape)
    _impl().trace_update(vf, sf, float(impulse), float(decay),
                         float(trace_max))
    if v_back is not None:
        v_back()


def _deliver_layout(out_shape, weight_shape) -> tuple:
    """Spike shape and flat parameters of one synaptic delivery."""
    per_replica = len(weight_shape) == 3
    if len(weight_shape) not in (2, 3) or len(out_shape) not in (1, 2) \
            or (per_replica and len(out_shape) == 1):
        raise ValueError(
            f"cannot deliver through weights {weight_shape} into "
            f"{out_shape}: expected (S, D) weights into (D,) or (R, D), "
            f"or (R, S, D) weights into (R, D)")
    n_src, n_dst = weight_shape[-2:]
    n_rep = out_shape[0] if len(out_shape) == 2 else 1
    if out_shape[-1] != n_dst or (per_replica and weight_shape[0] != n_rep):
        raise ValueError(f"weights {weight_shape} do not fit currents "
                         f"{out_shape}")
    spike_shape = out_shape[:-1] + (n_src,)
    return spike_shape, (n_rep, n_src, n_dst, per_replica)


def spike_deliver(out: np.ndarray, weight, spikes, weight_scale: int) -> int:
    """Event-driven synaptic delivery; returns the presynaptic spike count.

    ``out[r] += weight_scale * sum(W[i] for i where spikes[r, i])`` for
    ``(S,)`` spikes into ``(D,)`` through shared ``(S, D)`` weights,
    ``(R, S)`` spikes into ``(R, D)`` through shared ``(S, D)`` or
    per-replica ``(R, S, D)`` weights.  ``out`` (int64) is updated in
    place.  The arithmetic is integer and cannot overflow for 8-bit
    mantissas, so every backend is exact whatever its summation order.
    """
    spike_shape, params = _deliver_layout(np.shape(out), np.shape(weight))
    of, o_back = _state(out, _I64)
    wf = _input(weight, np.int64, np.shape(weight))
    sf = _input(spikes, bool, spike_shape)
    count = _impl().spike_deliver(of, wf, sf, int(weight_scale), *params)
    if o_back is not None:
        o_back()
    return count


def _exact(a, dtype, shape, what: str) -> np.ndarray:
    """``a`` as a C-contiguous ``dtype`` array of exactly ``shape``."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    return a


def if_phase(v, in_drive, weights, T: int, *, bias: bool = True,
             target=None, class_mask=None, feedback=(), dfa: bool = False,
             error_gain: float = 1.0, hidden_error_gain: float = 1.0,
             out_gate=None, hidden_gates=None) -> list:
    """All ``T`` steps of one phase of an online EMSTDP presentation.

    ``v`` holds one float64 membrane array per layer, ``(dims[k],)``,
    updated in place so phase 2 continues from phase 1's potentials.
    Every step the input layer integrates ``in_drive`` and layer ``k+1``
    integrates the spikes of layer ``k`` through ``weights[k]``, shaped
    ``(dims[k] + bias, dims[k+1])`` with the bias row last.  Neurons are
    :class:`~repro.core.neuron.IFLayer`'s defaults.  Drive is summed in a
    fixed order: ``0.0``, then the rows of the neurons that spiked in
    ascending index, then the bias row.

    With ``target`` (the label layer's drive) the call is phase 2.  The
    output error pair integrates ``error_gain * (label spikes - output
    spikes)``, both masked by ``class_mask``; the hidden error pairs
    integrate ``hidden_error_gain * sum(e[j] * feedback[k][j])`` over the
    signed error spikes ``e`` of the layer above (FA, ``feedback[k]`` is
    ``(dims[k+2], dims[k+1])``) or of the output (``dfa``, ``(dims[-1],
    dims[k+1])``).  ``out_gate`` and ``hidden_gates[k]`` (phase-1 activity)
    gate the pairs' spikes; each pair's signed spikes are added to its
    layer's drive on the next step.

    Returns the per-layer int64 spike counts of this phase.
    """
    v = list(v)
    backs = []
    for k, a in enumerate(v):
        if not isinstance(a, np.ndarray) or a.ndim != 1:
            raise ValueError(f"membrane {k} must be a 1-D numpy array")
        v[k], back = _state(a, _FLOAT_DTYPES[:1])
        backs.append(back)
    dims = [a.size for a in v]
    n_layers, n_out = len(dims) - 1, dims[-1]
    if n_layers < 1 or len(weights) != n_layers:
        raise ValueError(f"{len(v)} membranes need {len(v) - 1} weight "
                         f"blocks, got {len(weights)}")
    in_drive = _exact(in_drive, np.float64, (dims[0],), "input drive")
    weights = [_exact(w, np.float64, (dims[k] + bool(bias), dims[k + 1]),
                      f"weights[{k}]") for k, w in enumerate(weights)]
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if target is None:
        if class_mask is not None or len(feedback) or out_gate is not None \
                or hidden_gates is not None:
            raise ValueError("error-path arguments need a phase-2 target")
    else:
        target = _exact(target, np.float64, (n_out,), "target")
        class_mask = _exact(np.ones(n_out) if class_mask is None
                            else class_mask, bool, (n_out,), "class_mask")
        if len(feedback) != n_layers - 1:
            raise ValueError(f"{n_layers - 1} hidden layers need as many "
                             f"feedback blocks, got {len(feedback)}")
        feedback = [_exact(b, np.float64, (n_out if dfa else dims[k + 2],
                                           dims[k + 1]), f"feedback[{k}]")
                    for k, b in enumerate(feedback)]
        if out_gate is not None:
            out_gate = _exact(out_gate, bool, (n_out,), "out_gate")
        if hidden_gates is not None:
            if len(hidden_gates) != n_layers - 1:
                raise ValueError(f"{n_layers - 1} hidden layers need as "
                                 f"many gates, got {len(hidden_gates)}")
            hidden_gates = [_exact(g, bool, (dims[k + 1],),
                                   f"hidden_gates[{k}]")
                            for k, g in enumerate(hidden_gates)]
    counts = np.zeros(sum(dims), dtype=np.int64)
    counts = np.split(counts, np.cumsum(dims)[:-1])
    _impl().if_phase(v, in_drive, weights, bool(bias), int(T), counts,
                     target, class_mask, list(feedback), bool(dfa),
                     float(error_gain), float(hidden_error_gain), out_gate,
                     hidden_gates)
    for back in backs:
        if back is not None:
            back()
    return counts


# ----------------------------------------------------------------------
# Bound kernels (see "Bound kernels" in the module docstring)
# ----------------------------------------------------------------------

def _bindable(shape, dtypes, **arrays) -> None:
    """Reject state a binding cannot cache: wrong dtype/shape, views."""
    for name, a in arrays.items():
        if not isinstance(a, np.ndarray) or a.dtype not in dtypes:
            raise TypeError(
                f"bound {name} must be a numpy array with dtype in "
                f"{[str(d) for d in dtypes]}, got "
                f"{getattr(a, 'dtype', type(a))}")
        if a.shape != shape:
            raise ValueError(f"bound {name} has shape {a.shape}, "
                             f"expected {shape}")
        if not a.flags.c_contiguous:
            raise ValueError(
                f"bound {name} must be C-contiguous; the unbound kernel "
                f"accepts strided views")


def _generic_run(fn, args, out, params):
    """Run a backend's flat kernel on the bound views (no native binding)."""
    if out is None:
        return functools.partial(fn, *args, *params)

    def run():
        np.copyto(out, fn(*args, *params))
    return run


class BoundKernel:
    """A per-timestep kernel bound to persistent state arrays.

    Built by :func:`bind_cuba_step`, :func:`bind_if_step`,
    :func:`bind_trace_update` and :func:`bind_spike_deliver`.  Calling it
    with the per-step operand advances the bound state in place and
    returns a fresh boolean spike array with the state's shape (``None``
    for a trace update, the spike count for a delivery).  The operand is
    broadcast and cast to the bound buffer exactly as the unbound kernel's
    ``np.asarray(..., dtype)`` would.
    """

    __slots__ = ("name", "state", "_params", "_operand", "_out",
                 "_generation", "_step")

    def __init__(self, name: str, state, params: tuple, operand_dtype,
                 spikes: bool, operand_shape=None):
        self.name = name
        #: The bound arrays, in the kernel's argument order.
        self.state = tuple(state)
        self._params = params
        shape = self.state[0].shape
        self._operand = np.zeros(
            shape if operand_shape is None else operand_shape,
            dtype=operand_dtype)
        self._out = np.zeros(shape, dtype=bool) if spikes else None
        self._generation = None
        self._step = None

    def bound_to(self, *arrays) -> bool:
        """Whether ``arrays`` are the bound state arrays (by identity)."""
        return len(arrays) == len(self.state) and all(
            map(operator.is_, arrays, self.state))

    def __call__(self, operand):
        if self._generation != _generation:
            self._resolve()
        return self._step(operand)

    def _resolve(self) -> None:
        """Bind to the active backend (native binding when it has one)."""
        operand, out = self._operand, self._out
        args = [a.reshape(-1) for a in (*self.state, operand)]
        out_flat = None if out is None else out.reshape(-1)
        bind = getattr(_active_impl, "bind_" + self.name, None)
        if bind is None:
            run = _generic_run(getattr(_active_impl, self.name), args,
                               out_flat, self._params)
        elif out is None:
            run = bind(*args, *self._params)
        else:
            run = bind(*args, out_flat, *self._params)

        def step(x):
            np.copyto(operand, x, casting="unsafe")
            result = run()
            return result if out is None else out.copy()

        self._step = _obs.kernel_profiler.wrap(self.name, step)
        self._generation = _generation


def bind_if_step(v: np.ndarray, refrac: np.ndarray, threshold: float,
                 soft_reset: bool = True, refractory: int = 0
                 ) -> BoundKernel:
    """:func:`if_step` bound to ``v`` and ``refrac``; call with ``drive``."""
    shape = np.shape(v)
    _bindable(shape, _FLOAT_DTYPES, v=v)
    _bindable(shape, _I64, refrac=refrac)
    return BoundKernel("if_step", (v, refrac),
                       (float(threshold), bool(soft_reset), int(refractory)),
                       v.dtype, spikes=True)


def bind_cuba_step(u: np.ndarray, v: np.ndarray, refrac: np.ndarray,
                   bias: np.ndarray, decay_u: int, decay_v: int, vth: int,
                   soft_reset: bool = True, refractory: int = 0,
                   floor_at_zero: bool = True,
                   non_spiking: bool = False) -> BoundKernel:
    """:func:`cuba_step` bound to ``u``, ``v``, ``refrac`` and ``bias``;
    call with ``syn_input``."""
    _bindable(np.shape(v), _I64, u=u, v=v, refrac=refrac, bias=bias)
    return BoundKernel("cuba_step", (u, v, refrac, bias),
                       (int(decay_u), int(decay_v), int(vth),
                        bool(soft_reset), int(refractory),
                        bool(floor_at_zero), bool(non_spiking)),
                       np.int64, spikes=True)


def bind_trace_update(values: np.ndarray, impulse: float, decay: float,
                      trace_max: float) -> BoundKernel:
    """:func:`trace_update` bound to ``values``; call with ``spikes``."""
    _bindable(np.shape(values), _FLOAT_DTYPES, values=values)
    return BoundKernel("trace_update", (values,),
                       (float(impulse), float(decay), float(trace_max)),
                       bool, spikes=False)


def bind_spike_deliver(out: np.ndarray, weight: np.ndarray,
                       weight_scale: int) -> BoundKernel:
    """:func:`spike_deliver` bound to the ``out`` current buffer and the
    ``weight`` block; call with ``spikes``, returns the spike count."""
    spike_shape, params = _deliver_layout(np.shape(out), np.shape(weight))
    _bindable(np.shape(out), _I64, out=out)
    _bindable(np.shape(weight), _I64, weight=weight)
    return BoundKernel("spike_deliver", (out, weight),
                       (int(weight_scale),) + params, bool, spikes=False,
                       operand_shape=spike_shape)


def _dw_operands(*arrays):
    """Common dtype (float32 only if everything already is) + flat copies."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = np.result_type(*arrays)
    if dtype not in _FLOAT_DTYPES:
        dtype = np.dtype(np.float64)
    return dtype, arrays


def delta_w(h_hat_post, h_post, h_pre, eta: float) -> np.ndarray:
    """Eq. (7): ``dW[i, j] = eta * (h_hat[j] - h[j]) * h_pre[i]``.

    Inputs are raveled (matching ``np.outer``); returns
    ``(h_pre.size, h_hat.size)``.
    """
    dtype, (h_hat, h, pre) = _dw_operands(h_hat_post, h_post, h_pre)
    if h_hat.size != h.size:
        raise ValueError(
            f"h_hat has {h_hat.size} entries, h has {h.size}")
    h_hat = _input(h_hat, dtype, h_hat.shape)
    h = _input(h, dtype, h.shape)
    pre = _input(pre, dtype, pre.shape)
    return _impl().delta_w(h_hat, h, pre, float(eta))


def delta_w_batch(h_hat_post, h_post, h_pre, eta: float,
                  mean: bool = True) -> np.ndarray:
    """Batched Eq. (7), accumulated in batch order then scaled.

    ``h_hat_post`` / ``h_post`` are ``(B, n_post)``, ``h_pre`` is
    ``(B, n_pre)``; returns ``(n_pre, n_post)``.  The reduction order is
    part of the kernel contract (sample 0 first), which is what lets a
    compiled loop be bit-identical to the NumPy reference — a BLAS GEMM's
    blocked summation order would not be.
    """
    dtype, (h_hat, h, pre) = _dw_operands(h_hat_post, h_post, h_pre)
    if h_hat.ndim != 2 or pre.ndim != 2 or h_hat.shape != h.shape \
            or h_hat.shape[0] != pre.shape[0]:
        raise ValueError(
            f"expected (B, n_post) and (B, n_pre) stacks, got "
            f"{h_hat.shape}, {h.shape} and {pre.shape}")
    if mean and h_hat.shape[0] == 0:
        raise ValueError("cannot mean-reduce an empty batch")
    flat = [np.ascontiguousarray(a, dtype=dtype) for a in (h_hat, h, pre)]
    return _impl().delta_w_batch(*flat, float(eta), bool(mean))


def delta_w_loihi(h_hat_post, z_post, pre_trace, eta: float) -> np.ndarray:
    """Eq. (12): ``dW = (2*eta*h_hat - eta*Z) (x) pre`` (inputs raveled)."""
    dtype, (h_hat, z, pre) = _dw_operands(h_hat_post, z_post, pre_trace)
    if h_hat.size != z.size:
        raise ValueError(f"h_hat has {h_hat.size} entries, Z has {z.size}")
    h_hat = _input(h_hat, dtype, h_hat.shape)
    z = _input(z, dtype, z.shape)
    pre = _input(pre, dtype, pre.shape)
    return _impl().delta_w_loihi(h_hat, z, pre, float(eta))


# -- microcode sum-of-products -----------------------------------------

#: Factor-variable encoding shared by all backends: (kind, index) where
#: kind 0 = presynaptic, 1 = postsynaptic, 2 = synaptic, 3 = bare constant.
_VAR_CODES = {
    "x0": (0, 0), "x1": (0, 1),
    "y0": (1, 0), "y1": (1, 1),
    "t": (2, 0), "w": (2, 1),
    None: (3, 0),
}


@functools.lru_cache(maxsize=256)
def _flatten_rule(rule) -> tuple:
    """Flatten a parsed :class:`SumOfProducts` rule into plain arrays."""
    scales, offs, kinds, idxs, consts = [], [0], [], [], []
    for term in rule.terms:
        scales.append(float(term.sign) * 2.0 ** term.scale_exp)
        for factor in term.factors:
            kind, idx = _VAR_CODES[factor.var]
            kinds.append(kind)
            idxs.append(idx)
            consts.append(float(factor.const))
        offs.append(len(kinds))
    return (np.array(scales, dtype=np.float64),
            np.array(offs, dtype=np.int32),
            np.array(kinds, dtype=np.int32),
            np.array(idxs, dtype=np.int32),
            np.array(consts, dtype=np.float64))


def sum_of_products(rule, x0, x1, y0, y1, tag, w) -> np.ndarray:
    """Evaluate a microcode rule ``z += sum_i S_i * prod_j (V_ij + C_ij)``.

    ``x0``/``x1`` are presynaptic ``(S,)`` (or replicated ``(R, S)``),
    ``y0``/``y1`` postsynaptic ``(D,)`` / ``(R, D)``, ``tag``/``w``
    synaptic ``(S, D)`` / ``(R, S, D)``.  Returns the float64 ``dz`` block
    with the synaptic shape.  Trace/tag magnitudes are hardware-bounded
    (7-to-9-bit), so the int -> float64 conversions are exact and the
    result is bit-identical across backends.
    """
    tag = np.asarray(tag)
    replicated = tag.ndim == 3
    if replicated:
        n_rep, n_src, n_dst = tag.shape
    elif tag.ndim == 2:
        n_rep, (n_src, n_dst) = 1, tag.shape
    else:
        raise ValueError(f"synaptic block must be 2-D or 3-D, got {tag.ndim}-D")
    pre_shape = (n_rep, n_src) if replicated else (n_src,)
    post_shape = (n_rep, n_dst) if replicated else (n_dst,)
    pre_stack = np.ascontiguousarray(
        [np.broadcast_to(np.asarray(a, dtype=np.float64), pre_shape)
         for a in (x0, x1)]).reshape(2, n_rep, n_src)
    post_stack = np.ascontiguousarray(
        [np.broadcast_to(np.asarray(a, dtype=np.float64), post_shape)
         for a in (y0, y1)]).reshape(2, n_rep, n_dst)
    syn_shape = tag.shape
    syn_stack = np.ascontiguousarray(
        [np.broadcast_to(np.asarray(a, dtype=np.float64), syn_shape)
         for a in (tag, w)]).reshape(2, n_rep, n_src, n_dst)
    dz = _impl().sop_eval(*_flatten_rule(rule), pre_stack, post_stack,
                          syn_stack, n_rep, n_src, n_dst)
    return dz.reshape(syn_shape)


# Backend bootstrap: the env override wins over autodetection; unknown
# values are rejected here, at import, with the ValueError from
# select_backend.
select_backend(os.environ.get(ENV_VAR) or None)

# Observability: wrap the public kernels with the sampled call-timing
# probe.  repro.obs is stdlib-only, so importing it here cannot cycle
# back into this module.  REPRO_OBS_KERNEL_SAMPLE=0 reduces each wrapper
# to a single `if` before the real call.
from ... import obs as _obs  # noqa: E402

if_step = _obs.kernel_profiler.wrap("if_step", if_step)
cuba_step = _obs.kernel_profiler.wrap("cuba_step", cuba_step)
trace_update = _obs.kernel_profiler.wrap("trace_update", trace_update)
spike_deliver = _obs.kernel_profiler.wrap("spike_deliver", spike_deliver)
if_phase = _obs.kernel_profiler.wrap("if_phase", if_phase)
delta_w = _obs.kernel_profiler.wrap("delta_w", delta_w)
delta_w_batch = _obs.kernel_profiler.wrap("delta_w_batch", delta_w_batch)
delta_w_loihi = _obs.kernel_profiler.wrap("delta_w_loihi", delta_w_loihi)
sum_of_products = _obs.kernel_profiler.wrap("sum_of_products",
                                            sum_of_products)
