"""``cext`` kernel backend: C kernels compiled once and loaded via ctypes.

On first import the embedded C source (:mod:`._csrc`) is compiled with the
system C compiler into a shared library cached under
``$REPRO_KERNEL_CACHE`` (default ``$XDG_CACHE_HOME/repro-kernels``, falling
back to ``~/.cache/repro-kernels``).  The cache key hashes the source, the
compiler and the flags, so upgrading any of them rebuilds; concurrent
builders (e.g. the ProcessPoolExecutor seed fan-out) race benignly through
an atomic ``os.replace``.

Any failure — no compiler, compilation error, unloadable library — raises
``ImportError`` so the selection chain in :mod:`repro.core.kernels` can
fall through to the next backend.

Calls release the GIL while the C loop runs (plain ctypes semantics), which
lets the sharded Loihi runtime's thread pool overlap shard steps for real.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ._csrc import SOURCE, SOURCE_VERSION

#: No value-changing optimizations: ``-ffp-contract=off`` forbids FMA
#: contraction, which would round differently from the NumPy reference and
#: break bit-identity (see tests/test_kernels.py).  ``-fno-trapping-math``
#: only licenses transformations that may change *FP exception flags*
#: (which nothing here inspects), never computed values; without it gcc
#: refuses to if-convert the speculative ``v - threshold`` in the spike
#: blend and the hot loops stay scalar.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math",
          "-fno-trapping-math")

#: Preferred extra flags, dropped if the compiler rejects them.
#: ``-march=native`` widens the vector unit (the baseline x86-64 SSE2
#: target cannot vectorize the float-compare-to-uint8 spike stores at
#: all); lane-wise SIMD performs the same IEEE operations as the scalar
#: loop, and FMA contraction stays forbidden, so results are unchanged.
OPT_FLAGS = ("-march=native",)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro-kernels"


def _find_compiler() -> str:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    raise ImportError(
        "no C compiler (cc/gcc/clang or $CC) found for the 'cext' kernel "
        "backend")


def _build() -> ctypes.CDLL:
    cc = _find_compiler()
    # Try the optimized flag set first; a compiler that rejects any of
    # OPT_FLAGS (old gcc, non-x86 clang spellings, ...) falls back to the
    # portable baseline.  The cache key hashes the exact flags used, so
    # the two variants never collide.
    last_error = None
    for flags in (CFLAGS + OPT_FLAGS, CFLAGS):
        key = "|".join((str(SOURCE_VERSION), cc, " ".join(flags), SOURCE))
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        cache = _cache_dir()
        lib_path = cache / f"repro_kernels_{digest}.so"
        if not lib_path.exists():
            try:
                cache.mkdir(parents=True, exist_ok=True)
                src_path = cache / f"repro_kernels_{digest}.c"
                src_path.write_text(SOURCE)
                fd, tmp_path = tempfile.mkstemp(dir=cache, suffix=".so")
                os.close(fd)
                try:
                    proc = subprocess.run(
                        [cc, *flags, "-o", tmp_path, str(src_path)],
                        capture_output=True, text=True)
                    if proc.returncode != 0:
                        last_error = (
                            f"kernel C compilation failed ({cc} "
                            f"{' '.join(flags)}): {proc.stderr}")
                        continue
                    os.replace(tmp_path, lib_path)
                finally:
                    if os.path.exists(tmp_path):
                        os.unlink(tmp_path)
            except OSError as exc:
                raise ImportError(
                    f"could not build the 'cext' kernel backend: {exc}"
                ) from exc
        try:
            return ctypes.CDLL(str(lib_path))
        except OSError as exc:
            raise ImportError(
                f"could not load compiled kernels from {lib_path}: {exc}"
            ) from exc
    raise ImportError(last_error or "could not build the 'cext' backend")


_lib = _build()

_c_double = ctypes.c_double
_c_int = ctypes.c_int
_c_int64 = ctypes.c_int64
_c_ssize = ctypes.c_ssize_t
_ptr = ctypes.c_void_p

for _name, _argtypes in {
    "if_step_f64": [_ptr, _ptr, _ptr, _c_double, _c_int, _c_int64, _ptr,
                    _c_ssize],
    "if_step_f32": [_ptr, _ptr, _ptr, _c_double, _c_int, _c_int64, _ptr,
                    _c_ssize],
    "cuba_step_i64": [_ptr, _ptr, _ptr, _ptr, _ptr, _c_int64, _c_int64,
                      _c_int64, _c_int, _c_int64, _c_int, _c_int, _ptr,
                      _c_ssize],
    "trace_update_f64": [_ptr, _ptr, _c_double, _c_double, _c_double,
                         _c_ssize],
    "trace_update_f32": [_ptr, _ptr, _c_double, _c_double, _c_double,
                         _c_ssize],
    "delta_w_f64": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize, _c_ssize],
    "delta_w_f32": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize, _c_ssize],
    "delta_w_batch_f64": [_ptr, _ptr, _ptr, _c_double, _c_int, _ptr,
                          _c_ssize, _c_ssize, _c_ssize],
    "delta_w_batch_f32": [_ptr, _ptr, _ptr, _c_double, _c_int, _ptr,
                          _c_ssize, _c_ssize, _c_ssize],
    "delta_w_loihi_f64": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize,
                          _c_ssize],
    "delta_w_loihi_f32": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize,
                          _c_ssize],
    "sop_eval_f64": [_ptr, _ptr, _ptr, _ptr, _ptr, _c_ssize, _ptr, _ptr,
                     _ptr, _ptr, _c_ssize, _c_ssize, _c_ssize],
    "spike_deliver_i64": [_ptr, _ptr, _ptr, _c_int64, _c_ssize, _c_ssize,
                          _c_ssize, _c_int],
    "if_phase_f64": [_c_ssize, _ptr, _c_int, _c_int64, _ptr, _ptr, _ptr,
                     _ptr, _ptr, _ptr, _ptr, _c_int, _c_double, _c_double,
                     _ptr, _ptr],
}.items():
    _fn = getattr(_lib, _name)
    _fn.argtypes = _argtypes
    _fn.restype = None
_lib.spike_deliver_i64.restype = _c_int64  # the presynaptic spike count


def _p(a: np.ndarray) -> int:
    # The plain-int address: half the cost of ``a.ctypes.data_as``, and
    # the c_void_p argtypes accept it unchanged.
    return a.ctypes.data


def _float_fn(stem: str, dtype):
    return getattr(_lib, f"{stem}_f64" if dtype == np.float64
                   else f"{stem}_f32")


def _bound_call(fn, *args):
    """``fn`` with every argument converted to its ctypes type once."""
    return functools.partial(
        fn, *(ctype(arg) for ctype, arg in zip(fn.argtypes, args)))


# -- backend interface (flat arrays; normalization done by the package) ----
#
# ``bind_*`` return a zero-argument call over cached addresses (see
# ``BoundKernel`` in the package); the unbound form binds and calls once.

def bind_if_step(v, refrac, drive, spikes, threshold, soft_reset,
                 refractory):
    return _bound_call(_float_fn("if_step", v.dtype), _p(v), _p(refrac),
                       _p(drive), threshold, soft_reset, refractory,
                       _p(spikes), v.size)


def if_step(v, refrac, drive, threshold, soft_reset, refractory):
    spikes = np.empty(v.size, dtype=bool)
    bind_if_step(v, refrac, drive, spikes, threshold, soft_reset,
                 refractory)()
    return spikes


def bind_cuba_step(u, v, refrac, bias, syn, fired, decay_u, decay_v, vth,
                   soft_reset, refractory, floor_at_zero, non_spiking):
    return _bound_call(_lib.cuba_step_i64, _p(u), _p(v), _p(refrac),
                       _p(bias), _p(syn), decay_u, decay_v, vth, soft_reset,
                       refractory, floor_at_zero, non_spiking, _p(fired),
                       v.size)


def cuba_step(u, v, refrac, bias, syn, decay_u, decay_v, vth, soft_reset,
              refractory, floor_at_zero, non_spiking):
    fired = np.empty(v.size, dtype=bool)
    bind_cuba_step(u, v, refrac, bias, syn, fired, decay_u, decay_v, vth,
                   soft_reset, refractory, floor_at_zero, non_spiking)()
    return fired


def bind_trace_update(values, spikes, impulse, decay, trace_max):
    return _bound_call(_float_fn("trace_update", values.dtype), _p(values),
                       _p(spikes), impulse, decay, trace_max, values.size)


def trace_update(values, spikes, impulse, decay, trace_max):
    bind_trace_update(values, spikes, impulse, decay, trace_max)()


def bind_spike_deliver(out, weight, spikes, weight_scale, n_rep, n_src,
                       n_dst, per_replica):
    return _bound_call(_lib.spike_deliver_i64, _p(out), _p(weight),
                       _p(spikes), weight_scale, n_rep, n_src, n_dst,
                       per_replica)


def spike_deliver(out, weight, spikes, *params):
    return bind_spike_deliver(out, weight, spikes, *params)()


def _addresses(arrays):
    """A C array of the arrays' data pointers; keep it alive over the call."""
    return (ctypes.c_void_p * max(len(arrays), 1))(*map(_p, arrays))


def if_phase(v, in_drive, weights, bias, T, counts, target, class_mask,
             feedback, dfa, error_gain, hidden_error_gain, out_gate,
             hidden_gates):
    dims = np.array([a.size for a in v], dtype=np.int64)
    pointers = [_addresses(arrays) for arrays in (v, weights, counts,
                                                  feedback)]
    v_p, w_p, c_p, f_p = map(ctypes.addressof, pointers)
    gates = None if hidden_gates is None else _addresses(hidden_gates)
    _lib.if_phase_f64(
        len(weights), _p(dims), bias, T, v_p, _p(in_drive), w_p, c_p,
        None if target is None else _p(target),
        None if class_mask is None else _p(class_mask), f_p, dfa,
        error_gain, hidden_error_gain,
        None if out_gate is None else _p(out_gate),
        None if gates is None else ctypes.addressof(gates))


def delta_w(h_hat, h, pre, eta):
    dw = np.empty((pre.size, h_hat.size), dtype=h_hat.dtype)
    _float_fn("delta_w", h_hat.dtype)(
        _p(h_hat), _p(h), _p(pre), eta, _p(dw), pre.size, h_hat.size)
    return dw


def delta_w_batch(h_hat, h, pre, eta, mean):
    nb, nj = h_hat.shape
    ni = pre.shape[1]
    dw = np.empty((ni, nj), dtype=h_hat.dtype)
    _float_fn("delta_w_batch", h_hat.dtype)(
        _p(h_hat), _p(h), _p(pre), eta, int(mean), _p(dw), nb, ni, nj)
    return dw


def delta_w_loihi(h_hat, z, pre, eta):
    dw = np.empty((pre.size, h_hat.size), dtype=h_hat.dtype)
    _float_fn("delta_w_loihi", h_hat.dtype)(
        _p(h_hat), _p(z), _p(pre), eta, _p(dw), pre.size, h_hat.size)
    return dw


def sop_eval(scales, offs, kinds, idxs, consts, pre_stack, post_stack,
             syn_stack, n_rep, n_src, n_dst):
    dz = np.empty((n_rep, n_src, n_dst), dtype=np.float64)
    _lib.sop_eval_f64(
        _p(scales), _p(offs), _p(kinds), _p(idxs), _p(consts), len(scales),
        _p(pre_stack), _p(post_stack), _p(syn_stack), _p(dz),
        n_rep, n_src, n_dst)
    return dz
