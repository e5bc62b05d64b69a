// AVX2 + F16C + FMA dispatch tier: a GEMM tile in four registers, a row
// GEMV over pairs of 8-row groups, a P·V row sum over 16 and 8 output
// columns, an 8-wide epilogue sweep and an 8-wide exponential. It is the
// only vector tier: AVX-512 hosts run it too (every AVX-512F CPU has AVX2,
// F16C and FMA).
// Compiled with -mavx2 -mf16c -ffp-contract=off (see src/CMakeLists.txt);
// when those flags are unavailable this TU degrades to a stub returning
// nullptr and the dispatcher falls back to the SSE tier.
//
// ODR note: because this TU is built with arch flags the rest of the build
// lacks, it must not instantiate any vague-linkage code (templates,
// header-inline std:: machinery) that another TU also instantiates — the
// linker could pick the AVX2 copy and crash pre-AVX2 hosts. Everything here
// is file-local intrinsic code; slow paths call the extern, baseline-built
// ft2::detail::epilogue_scalar_span, ft2::detail::gemv_rows_scalar and
// ft2::detail::axpy_rows_scalar.
//
// Bit-exactness: the accumulator update is mul-then-add per k step in
// ascending-i order (no FMA — -mfma is deliberately absent), identical to
// the SSE reference per element; only the register width differs. The
// exponential alone carries target("fma"): it is expf_ref's step sequence
// (tensor/dispatch.hpp), whose four fused steps are part of the reference,
// and a lane group on expf_ref's special path calls ft2::detail::
// exp_span_scalar. The
// F16C round-trip (VCVTPS2PH RNE / VCVTPH2PS) matches the software f16
// conversion bit-for-bit for every non-NaN input — including subnormals,
// the 65504/65520 overflow boundary and round-to-nearest-even ties — and
// NaN lanes are blended to the software path's canonical quiet NaN
// (sign | 0x7FC00000), so vector quantization equals quantize_f16 exactly.
#include "tensor/dispatch.hpp"

#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

namespace ft2 {
namespace {

using Protect = KernelEpilogue::Protect;

inline __m256 quantize8(__m256 v) {
  __m256 q = _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  const __m256 unord = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
  if (_mm256_movemask_ps(unord) != 0) {
    // Hardware keeps NaN payload bits; the software path canonicalizes to
    // sign | 0x7FC00000. Blend NaN lanes onto the canonical encoding.
    const __m256 canon = _mm256_or_ps(
        _mm256_and_ps(v, _mm256_set1_ps(-0.0f)),
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FC00000)));
    q = _mm256_blendv_ps(q, canon, unord);
  }
  return q;
}

/// A sweep's epilogue plan, unpacked once into locals so the compiler can
/// keep it in registers across the loop (stores to the swept floats may
/// alias the caller's KernelEpilogue, but never these).
struct Screen {
  bool quantize;
  bool any;        ///< any lane test at all (protection planned)
  bool bounds;     ///< out-of-bound lanes are dirty (kBounds)
  bool nan_dirty;  ///< NaN lanes are dirty (every mode but kBounds
                   ///< without correct_nan, where NaNs pass uncounted)
  __m256 hi, lo;
};

Screen make_screen(const KernelEpilogue& epi) {
  const bool bounds = epi.protect == Protect::kBounds;
  return Screen{epi.quantize, epi.protect != Protect::kNone, bounds,
                !bounds || epi.correct_nan, _mm256_set1_ps(epi.hi),
                _mm256_set1_ps(epi.lo)};
}

/// Applies the epilogue in place to the 8 lanes at v. The fast path
/// quantizes and screens in-register; any group containing a NaN or
/// out-of-bound lane re-runs the scalar reference epilogue on the raw
/// (pre-quantize) lanes, so tallies, events and corrected values are
/// bit-identical to the scalar path.
inline void epilogue8(float* v, std::size_t flat0, const Screen& s,
                      const KernelEpilogue& epi, EpilogueTally* tally) {
  const __m256 raw = _mm256_loadu_ps(v);
  const __m256 q = s.quantize ? quantize8(raw) : raw;
  if (s.any) {
    __m256 bad = _mm256_setzero_ps();
    if (s.nan_dirty) bad = _mm256_cmp_ps(q, q, _CMP_UNORD_Q);
    if (s.bounds) {
      bad = _mm256_or_ps(
          bad, _mm256_or_ps(_mm256_cmp_ps(q, s.hi, _CMP_GT_OQ),
                            _mm256_cmp_ps(q, s.lo, _CMP_LT_OQ)));
    }
    if (_mm256_movemask_ps(bad) != 0) {
      detail::epilogue_scalar_span(v, 8, flat0, epi, tally);
      return;
    }
  }
  _mm256_storeu_ps(v, q);
}

void kouter_row_avx2(const float* x, const float* wt, std::size_t k,
                     const float* bias_padded, float* y, std::size_t width) {
  __m256 a0 = _mm256_loadu_ps(bias_padded);
  __m256 a1 = _mm256_loadu_ps(bias_padded + 8);
  __m256 a2 = _mm256_loadu_ps(bias_padded + 16);
  __m256 a3 = _mm256_loadu_ps(bias_padded + 24);
  for (std::size_t i = 0; i < k; ++i) {
    const __m256 xi = _mm256_set1_ps(x[i]);
    const float* wr = wt + i * kTileCols;
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(xi, _mm256_loadu_ps(wr)));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(xi, _mm256_loadu_ps(wr + 8)));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(xi, _mm256_loadu_ps(wr + 16)));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(xi, _mm256_loadu_ps(wr + 24)));
  }
  if (width == kTileCols) {
    _mm256_storeu_ps(y, a0);
    _mm256_storeu_ps(y + 8, a1);
    _mm256_storeu_ps(y + 16, a2);
    _mm256_storeu_ps(y + 24, a3);
    return;
  }
  // Tail tile: spill, copy out the live lanes.
  float acc[kTileCols];
  _mm256_storeu_ps(acc, a0);
  _mm256_storeu_ps(acc + 8, a1);
  _mm256_storeu_ps(acc + 16, a2);
  _mm256_storeu_ps(acc + 24, a3);
  for (std::size_t j = 0; j < width; ++j) y[j] = acc[j];
}

/// In-lane 4x4 transpose: lane j of each 128-bit half of c[i] takes
/// element i of that half of p[j].
inline void transpose4x4_halves(const __m256 p[4], __m256 c[4]) {
  const __m256 t0 = _mm256_unpacklo_ps(p[0], p[1]);
  const __m256 t1 = _mm256_unpackhi_ps(p[0], p[1]);
  const __m256 t2 = _mm256_unpacklo_ps(p[2], p[3]);
  const __m256 t3 = _mm256_unpackhi_ps(p[2], p[3]);
  c[0] = _mm256_shuffle_ps(t0, t2, 0x44);
  c[1] = _mm256_shuffle_ps(t0, t2, 0xEE);
  c[2] = _mm256_shuffle_ps(t1, t3, 0x44);
  c[3] = _mm256_shuffle_ps(t1, t3, 0xEE);
}

/// Products of one 8-row group and one 8-wide k block: lane j of c[i] is
/// w[j][i] * x[i] (rows `ldw` floats apart). Each product is the same
/// single rounding the scalar chain performs, formed in row layout and then
/// transposed. Rows j and j + 4 share a register (low / high half) from the
/// load on, so the transpose needs only in-lane shuffles.
inline void block_columns8(const float* w, std::size_t ldw, const float* x,
                           __m256 c[8]) {
  const __m256 x_lo = _mm256_loadu2_m128(x, x);
  const __m256 x_hi = _mm256_loadu2_m128(x + 4, x + 4);
  __m256 p_lo[4], p_hi[4];
  for (std::size_t j = 0; j < 4; ++j) {
    const float* lo = w + j * ldw;
    const float* hi = w + (j + 4) * ldw;
    p_lo[j] = _mm256_mul_ps(_mm256_loadu2_m128(hi, lo), x_lo);
    p_hi[j] = _mm256_mul_ps(_mm256_loadu2_m128(hi + 4, lo + 4), x_hi);
  }
  transpose4x4_halves(p_lo, c);
  transpose4x4_halves(p_hi, c + 4);
}

/// Accumulators of rows [o, o + 8): the bias, or 0.0f without one.
inline __m256 seed8(const float* bias, std::size_t o) {
  return bias != nullptr ? _mm256_loadu_ps(bias + o) : _mm256_setzero_ps();
}

/// Continues each lane's chain over the k tail [kv, k) and stores the
/// 8 outputs.
inline void finish8(__m256 acc, const float* x, const float* w,
                    std::size_t ldw, std::size_t k, std::size_t kv,
                    float* y) {
  if (kv == k) {
    _mm256_storeu_ps(y, acc);
    return;
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  for (std::size_t j = 0; j < 8; ++j) {
    const float* row = w + j * ldw;
    for (std::size_t i = kv; i < k; ++i) lanes[j] += row[i] * x[i];
    y[j] = lanes[j];
  }
}

/// Row GEMV: two 8-row groups per pass, so two independent in-order add
/// chains overlap; a last single group, then the scalar chain for the
/// remaining rows.
void gemv_row_avx2(const float* x, const float* w, std::size_t ldw,
                   std::size_t n, std::size_t k, const float* bias,
                   float* y) {
  const std::size_t kv = k - k % 8;
  std::size_t o = 0;
  for (; o + 16 <= n; o += 16) {
    const float* w0 = w + o * ldw;
    const float* w1 = w0 + 8 * ldw;
    __m256 a0 = seed8(bias, o);
    __m256 a1 = seed8(bias, o + 8);
    for (std::size_t i = 0; i < kv; i += 8) {
      __m256 c0[8], c1[8];
      block_columns8(w0 + i, ldw, x + i, c0);
      block_columns8(w1 + i, ldw, x + i, c1);
      for (std::size_t j = 0; j < 8; ++j) {
        a0 = _mm256_add_ps(a0, c0[j]);
        a1 = _mm256_add_ps(a1, c1[j]);
      }
    }
    finish8(a0, x, w0, ldw, k, kv, y + o);
    finish8(a1, x, w1, ldw, k, kv, y + o + 8);
  }
  if (o + 8 <= n) {
    const float* w0 = w + o * ldw;
    __m256 a0 = seed8(bias, o);
    for (std::size_t i = 0; i < kv; i += 8) {
      __m256 c0[8];
      block_columns8(w0 + i, ldw, x + i, c0);
      for (std::size_t j = 0; j < 8; ++j) a0 = _mm256_add_ps(a0, c0[j]);
    }
    finish8(a0, x, w0, ldw, k, kv, y + o);
    o += 8;
  }
  detail::gemv_rows_scalar(x, w + o * ldw, ldw, n - o, k,
                           bias != nullptr ? bias + o : nullptr, y + o);
}

/// P·V row sum: lanes over output columns, 16 then 8 at a time, each held
/// in registers across every row j of the run; the scalar reference runs
/// the column tail.
void axpy_rows_avx2(const float* p, const float* v, std::size_t ldv,
                    std::size_t n, std::size_t k, float* y) {
  std::size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    __m256 y0 = _mm256_loadu_ps(y + i);
    __m256 y1 = _mm256_loadu_ps(y + i + 8);
    for (std::size_t j = 0; j < n; ++j) {
      if (p[j] == 0.0f) continue;
      const __m256 pj = _mm256_set1_ps(p[j]);
      const float* row = v + j * ldv + i;
      y0 = _mm256_add_ps(y0, _mm256_mul_ps(pj, _mm256_loadu_ps(row)));
      y1 = _mm256_add_ps(y1, _mm256_mul_ps(pj, _mm256_loadu_ps(row + 8)));
    }
    _mm256_storeu_ps(y + i, y0);
    _mm256_storeu_ps(y + i + 8, y1);
  }
  if (i + 8 <= k) {
    __m256 y0 = _mm256_loadu_ps(y + i);
    for (std::size_t j = 0; j < n; ++j) {
      if (p[j] == 0.0f) continue;
      y0 = _mm256_add_ps(y0, _mm256_mul_ps(_mm256_set1_ps(p[j]),
                                           _mm256_loadu_ps(v + j * ldv + i)));
    }
    _mm256_storeu_ps(y + i, y0);
    i += 8;
  }
  if (i < k) detail::axpy_rows_scalar(p, v + i, ldv, n, k - i, y + i);
}

void epilogue_span_avx2(float* v, std::size_t n, std::size_t flat0,
                        const KernelEpilogue& epi, EpilogueTally* tally) {
  const Screen s = make_screen(epi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) epilogue8(v + i, flat0 + i, s, epi, tally);
  if (i < n) detail::epilogue_scalar_span(v + i, n - i, flat0 + i, epi, tally);
}

/// expf_ref's main path on four lanes: the same double-precision steps,
/// the same four fused ones (VFMSUB for r, VFMADD for the cubic), the table
/// read by a 64-bit gather. Valid only for lanes below the special-path
/// threshold.
__attribute__((target("fma"))) inline __m128 exp4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(detail::kExpfInvLn2N);
  const __m256d shift = _mm256_set1_pd(detail::kExpfShift);
  __m256d kd = _mm256_add_pd(_mm256_mul_pd(inv_ln2n, xd), shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  const __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(detail::kExpfTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s =
      _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d p = _mm256_fmadd_pd(_mm256_set1_pd(detail::kExpfC0), r,
                                    _mm256_set1_pd(detail::kExpfC1));
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(detail::kExpfC2), r,
                              _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(p, _mm256_mul_pd(r, r), y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

/// exp of the 8 floats at x into y (x == y allowed). A group with any
/// lane on expf_ref's special path (|x| >= 88, inf, NaN) runs expf_ref
/// for all eight.
__attribute__((target("fma"))) inline void exp8(const float* x, float* y) {
  const __m256 v = _mm256_loadu_ps(x);
  const __m256i abs_bits = _mm256_and_si256(_mm256_castps_si256(v),
                                            _mm256_set1_epi32(0x7fffffff));
  const __m256i special = _mm256_cmpgt_epi32(
      abs_bits,
      _mm256_set1_epi32(static_cast<int>(detail::kExpfSpecialAbsBits - 1)));
  if (_mm256_movemask_epi8(special) != 0) {
    detail::exp_span_scalar(x, y, 8);
    return;
  }
  const __m128 lo = exp4(_mm256_castps256_ps128(v));
  const __m128 hi = exp4(_mm256_extractf128_ps(v, 1));
  _mm256_storeu_ps(y, _mm256_set_m128(hi, lo));
}

/// 8 lanes per step; the tail runs through a zero-padded group.
__attribute__((target("fma"))) void exp_span_avx2(const float* x, float* y,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) exp8(x + i, y + i);
  if (i == n) return;
  float lanes[8] = {};
  for (std::size_t j = i; j < n; ++j) lanes[j - i] = x[j];
  exp8(lanes, lanes);
  for (std::size_t j = i; j < n; ++j) y[j] = lanes[j - i];
}

constexpr KernelOps kAvx2Ops{KernelTier::kAvx2,  "avx2",
                             &kouter_row_avx2,   &gemv_row_avx2,
                             &axpy_rows_avx2,    &epilogue_span_avx2,
                             &exp_span_avx2};

}  // namespace

namespace detail {
const KernelOps* kernel_ops_avx2() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace ft2

#else  // !(__AVX2__ && __F16C__)

namespace ft2::detail {
const KernelOps* kernel_ops_avx2() { return nullptr; }
}  // namespace ft2::detail

#endif
