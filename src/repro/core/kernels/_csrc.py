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
SOURCE_VERSION = 4

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

/* -- One online EMSTDP phase: T steps of the IF stack (core/network.py) - *
 * Neurons are IFLayer's defaults (threshold 1, soft reset, no refractory
 * period) and fire with if_step's operations in if_step's order.  Drive is
 * summed in the order the NumPy reference fixes: 0.0, then the weight row
 * of every neuron that spiked in ascending index, the bias row last; error
 * drive is gain * (0.0 + sum of e[k] * B[k] over nonzero e[k]).  Silent
 * rows are skipped.  target == NULL runs phase 1; otherwise phase 2 adds
 * the label layer, the output error pair (gated by out_gate when given,
 * class-masked) and the hidden error pairs (FA chain or DFA broadcast,
 * gated by hidden_gates when given), whose spikes correct the next step.
 * The helpers stay out of line: inlining their loops into every call site
 * buys nothing measurable and raises the compiler's peak memory.         */
#define PHASE_HELPER __attribute__((noinline)) static

PHASE_HELPER void if_fire(double *v, const double *drive, uint8_t *s,
                          int64_t *count, ptrdiff_t n) {
    const double margin = 1.0 - 1e-9;
    for (ptrdiff_t i = 0; i < n; i++) {
        double vi = v[i] + drive[i];
        s[i] = vi >= margin;
        vi = vi >= margin ? vi - 1.0 : vi;
        v[i] = vi < 0.0 ? 0.0 : vi;
    }
    if (count)
        for (ptrdiff_t i = 0; i < n; i++) count[i] += s[i];
}

/* acc = 0.0 + the rows k with e[k] != 0, each scaled by e[k] unless e is
 * NULL (then the rows with s[k] set, unscaled). */
PHASE_HELPER void row_sum(double *acc, const double *rows, const uint8_t *s,
                          const double *e, ptrdiff_t n_rows, ptrdiff_t n) {
    for (ptrdiff_t j = 0; j < n; j++) acc[j] = 0.0;
    for (ptrdiff_t k = 0; k < n_rows; k++) {
        const double *row = rows + k * n;
        if (e) {
            if (e[k] == 0.0) continue;
            double ek = e[k];
            for (ptrdiff_t j = 0; j < n; j++) acc[j] += ek * row[j];
        } else if (s[k]) {
            for (ptrdiff_t j = 0; j < n; j++) acc[j] += row[j];
        }
    }
}

PHASE_HELPER void add_to(double *acc, const double *x, ptrdiff_t n) {
    for (ptrdiff_t j = 0; j < n; j++) acc[j] = acc[j] + x[j];
}

/* A signed error pair fed drive[]; out = its gated signed spikes. */
PHASE_HELPER void fire_pair(double *vp, double *vn, const double *drive,
                            const uint8_t *gate, double *out, uint8_t *sp,
                            uint8_t *sn, double *neg, ptrdiff_t n) {
    for (ptrdiff_t i = 0; i < n; i++) neg[i] = -drive[i];
    if_fire(vp, drive, sp, NULL, n);
    if_fire(vn, neg, sn, NULL, n);
    for (ptrdiff_t i = 0; i < n; i++) {
        int p = gate ? sp[i] & gate[i] : sp[i];
        int q = gate ? sn[i] & gate[i] : sn[i];
        out[i] = (double)p - (double)q;
    }
}

void if_phase_f64(ptrdiff_t L, const int64_t *dims, int bias, int64_t T,
                  double *const *v, const double *in_drive,
                  const double *const *w, int64_t *const *counts,
                  const double *target, const uint8_t *mask,
                  const double *const *fb, int dfa, double error_gain,
                  double hidden_error_gain, const uint8_t *out_gate,
                  const uint8_t *const *hidden_gates) {
    ptrdiff_t total = 0, widest = 0;
    for (ptrdiff_t k = 0; k <= L; k++) {
        total += dims[k];
        if (dims[k] > widest) widest = dims[k];
    }
    ptrdiff_t n_out = dims[L];
    /* Per layer: its spikes, its pending error spikes (hidden layers and
     * the output) and its error pair's two membranes, at offset off[k]. */
    ptrdiff_t *off = (ptrdiff_t *)malloc((size_t)(L + 1) * sizeof(ptrdiff_t));
    double *buf = (double *)calloc((size_t)(3 * total + 3 * widest),
                                   sizeof(double));
    uint8_t *sbuf = (uint8_t *)calloc((size_t)(total + 3 * widest), 1);
    off[0] = 0;
    for (ptrdiff_t k = 0; k < L; k++) off[k + 1] = off[k] + dims[k];
    double *pend = buf, *vp = pend + total, *vn = vp + total;
    double *acc = vn + total, *neg = acc + widest, *label_v = neg + widest;
    uint8_t *sp = sbuf + total, *sn = sp + widest, *tgt = sn + widest;
    for (int64_t t = 0; t < T; t++) {
        /* Forward stack; phase 2 adds last step's error spikes. */
        if_fire(v[0], in_drive, sbuf, counts[0], dims[0]);
        for (ptrdiff_t k = 1; k <= L; k++) {
            row_sum(acc, w[k - 1], sbuf + off[k - 1], NULL, dims[k - 1],
                    dims[k]);
            if (bias) add_to(acc, w[k - 1] + dims[k - 1] * dims[k], dims[k]);
            if (target) add_to(acc, pend + off[k], dims[k]);
            if_fire(v[k], acc, sbuf + off[k], counts[k], dims[k]);
        }
        if (!target) continue;
        /* Output error pair: label spikes minus masked output spikes. */
        if_fire(label_v, target, tgt, NULL, n_out);
        for (ptrdiff_t j = 0; j < n_out; j++) {
            int o = sbuf[off[L] + j] & mask[j];
            acc[j] = error_gain * ((double)tgt[j] - (double)o);
        }
        double *e_out = pend + off[L];
        fire_pair(vp + off[L], vn + off[L], acc, out_gate, e_out, sp, sn,
                  neg, n_out);
        for (ptrdiff_t j = 0; j < n_out; j++)
            e_out[j] = e_out[j] * (double)mask[j];
        /* Hidden error pairs, top down: FA feeds each from the pair above
         * (already updated this step), DFA all from the output pair. */
        for (ptrdiff_t k = L - 1; k >= 1; k--) {
            const double *e = dfa ? e_out : pend + off[k + 1];
            row_sum(acc, fb[k - 1], NULL, e, dims[dfa ? L : k + 1], dims[k]);
            for (ptrdiff_t j = 0; j < dims[k]; j++)
                acc[j] = hidden_error_gain * acc[j];
            fire_pair(vp + off[k], vn + off[k], acc,
                      hidden_gates ? hidden_gates[k - 1] : NULL,
                      pend + off[k], sp, sn, neg, dims[k]);
        }
    }
    free(off);
    free(buf);
    free(sbuf);
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
