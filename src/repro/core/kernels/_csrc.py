"""C source for the compiled (``cext``) kernel backend.

The source is embedded as a string (rather than shipped as a data file) so
the backend works from any install layout; :mod:`._cext` writes it into the
kernel cache directory and compiles it with the system C compiler.

Bit-identity contract: every kernel performs exactly the same IEEE-754
operations, in the same per-element order, as the pure-NumPy reference in
:mod:`._numpy`.  That is why compilation must NOT enable value-changing
optimizations — no ``-ffast-math`` and no FMA contraction
(``-ffp-contract=off``): a fused multiply-add rounds once where the
reference rounds twice, which would break the ``array_equal`` equivalence
suite in ``tests/test_kernels.py``.
"""

#: Bump when the C ABI below changes; part of the compile-cache key.
SOURCE_VERSION = 3

SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>

/* Python floor division (// rounds toward -inf; C / truncates toward 0). */
static int64_t floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

/* -- IF membrane update + spike/soft-reset step (core/neuron.py) -------- *
 * Branchless on purpose: every per-element decision is a ternary so the
 * compiler can emit masked/blend SIMD instead of branchy scalar code.
 * Blends select between the *same* elementwise IEEE results the reference
 * computes, so vectorization cannot change a single bit.                  */
#define DEFINE_IF_STEP(NAME, T)                                             \
void NAME(T *v, int64_t *refrac, const T *drive, double threshold,          \
          int soft_reset, int64_t refractory, uint8_t *spikes,              \
          ptrdiff_t n) {                                                    \
    T thr = (T)threshold;                                                   \
    T margin = thr - (T)1e-9;                                               \
    if (!refractory) {                                                      \
        /* Hot path: no refractory bookkeeping (EMSTDP's configuration).   \
         * The int64 refrac mask blocks SIMD when mixed into the float     \
         * blend, so OR-reduce it first (vectorizes on its own); with no   \
         * held neuron the update is a pure float compare/blend loop.      \
         * refrac[i] can still be nonzero if the caller seeded it; a held  \
         * neuron neither integrates nor counts down, exactly like the     \
         * general path below.  */                                         \
        int64_t any_held = 0;                                               \
        for (ptrdiff_t i = 0; i < n; i++) any_held |= refrac[i];            \
        if (!any_held) {                                                    \
            /* The compare is repeated instead of reusing a flag: gcc      \
             * only if-converts (and thus vectorizes) this shape.  */      \
            if (soft_reset) {                                               \
                for (ptrdiff_t i = 0; i < n; i++) {                         \
                    T vi = v[i] + drive[i];                                 \
                    spikes[i] = vi >= margin;                               \
                    vi = vi >= margin ? vi - thr : vi;                      \
                    v[i] = vi < (T)0 ? (T)0 : vi;                           \
                }                                                           \
            } else {                                                        \
                for (ptrdiff_t i = 0; i < n; i++) {                         \
                    T vi = v[i] + drive[i];                                 \
                    spikes[i] = vi >= margin;                               \
                    vi = vi >= margin ? (T)0 : vi;                          \
                    v[i] = vi < (T)0 ? (T)0 : vi;                           \
                }                                                           \
            }                                                               \
            return;                                                         \
        }                                                                   \
        for (ptrdiff_t i = 0; i < n; i++) {                                 \
            int active = refrac[i] == 0;                                    \
            T vi = active ? v[i] + drive[i] : v[i];                         \
            int s = active && (vi >= margin);                               \
            vi = s ? (soft_reset ? vi - thr : (T)0) : vi;                   \
            v[i] = vi < (T)0 ? (T)0 : vi;                                   \
            spikes[i] = (uint8_t)s;                                         \
        }                                                                   \
        return;                                                             \
    }                                                                       \
    for (ptrdiff_t i = 0; i < n; i++) {                                     \
        int64_t rf = refrac[i];                                             \
        int active = rf == 0;                                               \
        T vi = active ? v[i] + drive[i] : v[i];                             \
        int s = active && (vi >= margin);                                   \
        vi = s ? (soft_reset ? vi - thr : (T)0) : vi;                       \
        v[i] = vi < (T)0 ? (T)0 : vi;                                       \
        refrac[i] = s ? refractory : (rf > 0 ? rf - 1 : 0);                 \
        spikes[i] = (uint8_t)s;                                             \
    }                                                                       \
}
DEFINE_IF_STEP(if_step_f64, double)
DEFINE_IF_STEP(if_step_f32, float)

/* -- CUBA integer compartment step (loihi/compartment.py) --------------- *
 * decay_u == 4096 (instant current decay) and decay_v == 0 (no leak) are
 * the paper's IF configuration; both make the floordiv exact:
 * floordiv(u * 0, 4096) == 0 and floordiv(v * 4096, 4096) == v, so the
 * specializations below change the arithmetic path but not one result.   */
void cuba_step_i64(int64_t *u, int64_t *v, int64_t *refrac,
                   const int64_t *bias, const int64_t *syn,
                   int64_t decay_u, int64_t decay_v, int64_t vth,
                   int soft_reset, int64_t refractory, int floor_at_zero,
                   int non_spiking, uint8_t *fired, ptrdiff_t n) {
    int u_clears = decay_u == 4096;
    int v_holds = decay_v == 0;
    if (u_clears && v_holds && !non_spiking && !refractory
        && floor_at_zero && soft_reset) {
        /* The default IF prototype with nobody refractory: a pure int64
         * compare/blend loop the compiler can vectorize.  Identical
         * arithmetic to the general loop below (see the floordiv
         * identities above), just without the masks.  */
        int64_t any_held = 0;
        for (ptrdiff_t i = 0; i < n; i++) any_held |= refrac[i];
        if (!any_held) {
            for (ptrdiff_t i = 0; i < n; i++) {
                int64_t ui = syn[i];
                int64_t vi = v[i] + ui + bias[i];
                vi = vi < 0 ? 0 : vi;
                fired[i] = vi >= vth;
                v[i] = vi >= vth ? vi - vth : vi;
                u[i] = ui;
            }
            return;
        }
    }
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t ui = u_clears ? syn[i]
                              : floordiv(u[i] * (4096 - decay_u), 4096)
                                + syn[i];
        int64_t rf = refrac[i];
        int ok = rf == 0;
        int64_t leaked = v_holds ? v[i]
                                 : floordiv(v[i] * (4096 - decay_v), 4096);
        int64_t vi = ok ? leaked + ui + bias[i] : v[i];
        if (floor_at_zero) vi = vi < 0 ? 0 : vi;
        u[i] = ui;
        if (non_spiking) { v[i] = vi; fired[i] = 0; continue; }
        int f = ok && (vi >= vth);
        vi = f ? (soft_reset ? vi - vth : 0) : vi;
        v[i] = vi;
        if (refractory) refrac[i] = f ? refractory : (rf > 0 ? rf - 1 : 0);
        fired[i] = (uint8_t)f;
    }
}

/* -- Trace decay / accumulation / saturation (loihi/traces.py) ---------- */
#define DEFINE_TRACE_UPDATE(NAME, T)                                        \
void NAME(T *values, const uint8_t *spikes, double impulse, double decay,   \
          double trace_max, ptrdiff_t n) {                                  \
    T imp = (T)impulse;                                                     \
    T mx = (T)trace_max;                                                    \
    T dec = (T)decay;                                                       \
    if (decay != 1.0) {                                                     \
        for (ptrdiff_t i = 0; i < n; i++) {                                 \
            T x = values[i] * dec + (spikes[i] ? imp : (T)0);               \
            values[i] = x < mx ? x : mx;                                    \
        }                                                                   \
    } else {                                                                \
        for (ptrdiff_t i = 0; i < n; i++) {                                 \
            T x = values[i] + (spikes[i] ? imp : (T)0);                     \
            values[i] = x < mx ? x : mx;                                    \
        }                                                                   \
    }                                                                       \
}
DEFINE_TRACE_UPDATE(trace_update_f64, double)
DEFINE_TRACE_UPDATE(trace_update_f32, float)

/* -- Event-driven synaptic delivery (loihi/synapse.py) ------------------ *
 * out[r, :] += weight_scale * sum over spiking i of W[i, :] (W per replica
 * when per_replica), visiting only the rows of neurons that spiked, so
 * the work is presynaptic spikes x fan-out rather than S x D.  Integer
 * arithmetic with |W| <= 127 cannot overflow int64 for any chip-sized
 * block, so the result is exact in any order.  Returns the number of
 * presynaptic spikes (the synaptic-event count divided by the fan-out). */
int64_t spike_deliver_i64(int64_t *out, const int64_t *weight,
                          const uint8_t *spikes, int64_t weight_scale,
                          ptrdiff_t R, ptrdiff_t S, ptrdiff_t D,
                          int per_replica) {
    int64_t count = 0;
    for (ptrdiff_t r = 0; r < R; r++) {
        const uint8_t *sp = spikes + r * S;
        const int64_t *w = per_replica ? weight + r * S * D : weight;
        int64_t *o = out + r * D;
        for (ptrdiff_t i = 0; i < S; i++) {
            if (!sp[i]) continue;
            const int64_t *row = w + i * D;
            for (ptrdiff_t j = 0; j < D; j++) o[j] += weight_scale * row[j];
            count++;
        }
    }
    return count;
}

/* -- EMSTDP Eq. (7): dW = eta * (h_hat - h) (x) pre --------------------- */
#define DEFINE_DELTA_W(NAME, T)                                             \
void NAME(const T *h_hat, const T *h, const T *pre, double eta, T *dw,      \
          ptrdiff_t ni, ptrdiff_t nj) {                                     \
    T e = (T)eta;                                                           \
    for (ptrdiff_t i = 0; i < ni; i++) {                                    \
        T p = pre[i];                                                       \
        for (ptrdiff_t j = 0; j < nj; j++)                                  \
            dw[i * nj + j] = e * (p * (h_hat[j] - h[j]));                   \
    }                                                                       \
}
DEFINE_DELTA_W(delta_w_f64, double)
DEFINE_DELTA_W(delta_w_f32, float)

/* -- Batched Eq. (7): ordered accumulation over the batch axis ---------- */
#define DEFINE_DELTA_W_BATCH(NAME, T)                                       \
void NAME(const T *h_hat, const T *h, const T *pre, double eta, int mean,   \
          T *dw, ptrdiff_t nb, ptrdiff_t ni, ptrdiff_t nj) {                \
    for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = (T)0;                   \
    for (ptrdiff_t b = 0; b < nb; b++) {                                    \
        for (ptrdiff_t i = 0; i < ni; i++) {                                \
            T p = pre[b * ni + i];                                          \
            for (ptrdiff_t j = 0; j < nj; j++)                              \
                dw[i * nj + j] += p * (h_hat[b * nj + j] - h[b * nj + j]);  \
        }                                                                   \
    }                                                                       \
    T e = (T)eta;                                                           \
    for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = e * dw[k];              \
    if (mean) {                                                             \
        T bb = (T)nb;                                                       \
        for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = dw[k] / bb;         \
    }                                                                       \
}
DEFINE_DELTA_W_BATCH(delta_w_batch_f64, double)
DEFINE_DELTA_W_BATCH(delta_w_batch_f32, float)

/* -- EMSTDP Eq. (12): dW = (2*eta*h_hat - eta*Z) (x) pre ---------------- */
#define DEFINE_DELTA_W_LOIHI(NAME, T)                                       \
void NAME(const T *h_hat, const T *z, const T *pre, double eta, T *dw,      \
          ptrdiff_t ni, ptrdiff_t nj) {                                     \
    T e = (T)eta;                                                           \
    T e2 = (T)(2.0 * eta);                                                  \
    for (ptrdiff_t i = 0; i < ni; i++) {                                    \
        T p = pre[i];                                                       \
        for (ptrdiff_t j = 0; j < nj; j++)                                  \
            dw[i * nj + j] = p * (e2 * h_hat[j] - e * z[j]);                \
    }                                                                       \
}
DEFINE_DELTA_W_LOIHI(delta_w_loihi_f64, double)
DEFINE_DELTA_W_LOIHI(delta_w_loihi_f32, float)

/* -- Microcode sum-of-products (loihi/microcode.py) --------------------- *
 * Flattened rule encoding (built by kernels._flatten_rule):
 *   scales[t]            sign * 2^k of term t
 *   offs[t] .. offs[t+1] factor range of term t
 *   kinds[f]             0 = presynaptic (R, S), 1 = postsynaptic (R, D),
 *                        2 = synaptic (R, S, D), 3 = bare constant
 *   idxs[f]              index into the variable stack of that kind
 *                        (pre: x0, x1; post: y0, y1; syn: t, w)
 *   consts[f]            the additive constant C of the (V + C) factor
 */
/* The per-element factor product is *separable*: a term's pre factors only
 * depend on i, its post factors only on j, bare constants on neither.  We
 * therefore fold each term into cpart * pre_buf[i] * post_buf[j] * (syn
 * factors) and sweep the synaptic block once per term.  Regrouping float
 * multiplications is normally not bit-safe, but every learning-engine
 * variable is an integer from a hardware-bounded register (traces <= 127,
 * |tag| <= 511, |w| <= 255) and every scale is a signed power of two, so
 * each partial product is exact in float64 and any grouping yields the
 * same bits as the reference's strict factor-order product.  Term sums
 * still accumulate in program order (term 0 first) like the reference.   */
void sop_eval_f64(const double *scales, const int32_t *offs,
                  const int32_t *kinds, const int32_t *idxs,
                  const double *consts, ptrdiff_t n_terms,
                  const double *pre, const double *post, const double *syn,
                  double *dz, ptrdiff_t R, ptrdiff_t S, ptrdiff_t D) {
    double *pre_buf = (double *)malloc((size_t)(S > 0 ? S : 1)
                                       * sizeof(double));
    double *post_buf = (double *)malloc((size_t)(D > 0 ? D : 1)
                                        * sizeof(double));
    ptrdiff_t n_factors = n_terms > 0 ? offs[n_terms] : 0;
    int32_t *syn_f = (int32_t *)malloc((size_t)(n_factors > 0 ? n_factors : 1)
                                       * sizeof(int32_t));
    for (ptrdiff_t k = 0; k < R * S * D; k++) dz[k] = 0.0;
    for (ptrdiff_t r = 0; r < R; r++) {
        for (ptrdiff_t t = 0; t < n_terms; t++) {
            double cpart = scales[t];
            ptrdiff_t n_syn = 0;
            for (ptrdiff_t i = 0; i < S; i++) pre_buf[i] = 1.0;
            for (ptrdiff_t j = 0; j < D; j++) post_buf[j] = 1.0;
            for (int32_t f = offs[t]; f < offs[t + 1]; f++) {
                switch (kinds[f]) {
                case 0: {
                    const double *p = pre + (ptrdiff_t)idxs[f] * R * S
                                      + r * S;
                    double c = consts[f];
                    for (ptrdiff_t i = 0; i < S; i++)
                        pre_buf[i] *= p[i] + c;
                    break;
                }
                case 1: {
                    const double *p = post + (ptrdiff_t)idxs[f] * R * D
                                      + r * D;
                    double c = consts[f];
                    for (ptrdiff_t j = 0; j < D; j++)
                        post_buf[j] *= p[j] + c;
                    break;
                }
                case 2:
                    syn_f[n_syn++] = f;
                    break;
                default:
                    cpart *= consts[f];
                }
            }
            double *out = dz + r * S * D;
            if (n_syn == 0) {
                for (ptrdiff_t i = 0; i < S; i++) {
                    double pi = cpart * pre_buf[i];
                    for (ptrdiff_t j = 0; j < D; j++)
                        out[i * D + j] += pi * post_buf[j];
                }
            } else if (n_syn == 1) {
                const double *sp = syn + ((ptrdiff_t)idxs[syn_f[0]] * R + r)
                                   * S * D;
                double c = consts[syn_f[0]];
                for (ptrdiff_t i = 0; i < S; i++) {
                    double pi = cpart * pre_buf[i];
                    for (ptrdiff_t j = 0; j < D; j++)
                        out[i * D + j] += pi * post_buf[j]
                                          * (sp[i * D + j] + c);
                }
            } else {
                for (ptrdiff_t i = 0; i < S; i++) {
                    double pi = cpart * pre_buf[i];
                    for (ptrdiff_t j = 0; j < D; j++) {
                        double val = pi * post_buf[j];
                        for (ptrdiff_t k = 0; k < n_syn; k++) {
                            int32_t f = syn_f[k];
                            val *= syn[((ptrdiff_t)idxs[f] * R + r) * S * D
                                       + i * D + j] + consts[f];
                        }
                        out[i * D + j] += val;
                    }
                }
            }
        }
    }
    free(pre_buf);
    free(post_buf);
    free(syn_f);
}
"""
