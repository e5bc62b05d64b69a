// AVX2 + F16C + FMA dispatch tier: a GEMM tile row in four 256-bit
// registers (four rows per pass in 512-bit registers on AVX-512F hosts),
// attention's Q·K and P·V with heads in lanes, an 8-wide epilogue sweep
// and an 8-wide exponential. It is the only vector tier: AVX-512 hosts run
// it too (every AVX-512F CPU has AVX2, F16C and FMA).
// Compiled with -mavx2 -mf16c -ffp-contract=off (see src/CMakeLists.txt);
// when those flags are unavailable this TU degrades to a stub returning
// nullptr and the dispatcher falls back to the SSE tier.
//
// ODR note: because this TU is built with arch flags the rest of the build
// lacks, it must not instantiate any vague-linkage code (templates,
// header-inline std:: machinery) that another TU also instantiates — the
// linker could pick the AVX2 copy and crash pre-AVX2 hosts. Everything here
// is file-local intrinsic code; slow paths call the extern, baseline-built
// ft2::detail::epilogue_scalar_span, ft2::detail::qk_heads_scalar and
// ft2::detail::pv_heads_scalar. The one template used here,
// detail::kouter_rows_of, takes a file-local body as its argument, which
// gives each instantiation internal linkage. A function marked target("avx512f") is
// stricter still, because its 512-bit code may run only after
// detail::cpu_has_avx512f() said yes: it has internal linkage (never
// inline, a template or extern, which another TU could also emit or call),
// and it is reached only through the table that probe picks.
//
// Bit-exactness: the accumulator update is mul-then-add per k step in
// ascending-i order (no FMA — -mfma is deliberately absent), identical to
// the SSE reference per element. Only the register group changes: its
// width, and in the 512-bit GEMM body how many input rows share one pass
// over the weight tile; never an element's chain. The
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

/// Rows of the 512-bit GEMM body per pass. A tile row fills two 16-lane
/// registers, so four rows hold 8 accumulators: enough independent chains
/// to keep both vector ports busy through the add latency, where one row
/// (two chains) is latency-bound (docs/PERFORMANCE.md).
constexpr std::size_t kZmmRows = 4;

/// Four rows against one tile in 512-bit registers: each weight row is
/// loaded once for the four input rows, and every accumulator keeps the
/// chain bias, then + x[r][i] * w[i][c] for ascending i, a multiply then an
/// add. The live `width` lanes of each row are stored through a mask.
__attribute__((target("avx512f"))) void kouter_4rows_avx512(
    const float* x, std::size_t ldx, const float* wt, std::size_t k,
    const float* bias_padded, float* y, std::size_t ldy,
    std::size_t width) {
  __m512 acc[kZmmRows][2];
  for (std::size_t r = 0; r < kZmmRows; ++r) {
    acc[r][0] = _mm512_loadu_ps(bias_padded);
    acc[r][1] = _mm512_loadu_ps(bias_padded + 16);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const float* wr = wt + i * kTileCols;
    const __m512 w0 = _mm512_loadu_ps(wr);
    const __m512 w1 = _mm512_loadu_ps(wr + 16);
    for (std::size_t r = 0; r < kZmmRows; ++r) {
      const __m512 xi = _mm512_set1_ps(x[r * ldx + i]);
      acc[r][0] = _mm512_add_ps(acc[r][0], _mm512_mul_ps(xi, w0));
      acc[r][1] = _mm512_add_ps(acc[r][1], _mm512_mul_ps(xi, w1));
    }
  }
  const std::uint64_t live = (std::uint64_t{1} << width) - 1;  // width <= 32
  const __mmask16 lo = static_cast<__mmask16>(live);
  const __mmask16 hi = static_cast<__mmask16>(live >> 16);
  for (std::size_t r = 0; r < kZmmRows; ++r) {
    _mm512_mask_storeu_ps(y + r * ldy, lo, acc[r][0]);
    _mm512_mask_storeu_ps(y + r * ldy + 16, hi, acc[r][1]);
  }
}

/// The AVX-512F host's GEMM: full groups of four rows in 512-bit
/// registers, the leftover rows through the 256-bit body.
void kouter_rows_avx512(const float* x, std::size_t ldx, std::size_t rows,
                        const float* wt, std::size_t k,
                        const float* bias_padded, float* y, std::size_t ldy,
                        std::size_t width) {
  std::size_t r = 0;
  for (; r + kZmmRows <= rows; r += kZmmRows) {
    kouter_4rows_avx512(x + r * ldx, ldx, wt, k, bias_padded, y + r * ldy,
                        ldy, width);
  }
  detail::kouter_rows_of<&kouter_row_avx2>(x + r * ldx, ldx, rows - r, wt,
                                            k, bias_padded, y + r * ldy, ldy,
                                            width);
}

/// One lane width of the attention kernels: 8 heads (or head dims) in a
/// 256-bit register, or 4 in a 128-bit one.
struct Lanes8 {
  using V = __m256;
  static constexpr std::size_t kWidth = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V bit_and(V a, V b) { return _mm256_and_ps(a, b); }
  /// All-ones in lanes that are not ±0 (NaN lanes included).
  static V nonzero(V a) { return _mm256_cmp_ps(a, zero(), _CMP_NEQ_UQ); }
};

struct Lanes4 {
  using V = __m128;
  static constexpr std::size_t kWidth = 4;
  static V zero() { return _mm_setzero_ps(); }
  static V load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, V v) { _mm_storeu_ps(p, v); }
  static V set1(float x) { return _mm_set1_ps(x); }
  static V add(V a, V b) { return _mm_add_ps(a, b); }
  static V mul(V a, V b) { return _mm_mul_ps(a, b); }
  static V bit_and(V a, V b) { return _mm_and_ps(a, b); }
  static V nonzero(V a) { return _mm_cmp_ps(a, zero(), _CMP_NEQ_UQ); }
};

/// Scores of kKeys consecutive keys for one group of L::kWidth heads:
/// `q`, `k` and `s` point at the group's first head, keys sit `d` floats
/// apart. Each lane is one score's chain over ascending head dims; the
/// kKeys chains are independent, so they overlap in the pipeline.
template <class L, std::size_t kKeys>
inline void qk_keys(const float* q, const float* k, std::size_t d,
                    std::size_t n_heads, std::size_t head_dim, float* s) {
  typename L::V acc[kKeys];
  for (std::size_t t = 0; t < kKeys; ++t) acc[t] = L::zero();
  for (std::size_t i = 0; i < head_dim; ++i) {
    const typename L::V qi = L::load(q + i * n_heads);
    const float* ki = k + i * n_heads;
    for (std::size_t t = 0; t < kKeys; ++t) {
      acc[t] = L::add(acc[t], L::mul(L::load(ki + t * d), qi));
    }
  }
  for (std::size_t t = 0; t < kKeys; ++t) L::store(s + t * n_heads, acc[t]);
}

/// Q·K of one head group over a run of n keys: 8 keys in flight, then
/// 4, 2 and 1 for the run's tail.
template <class L>
inline void qk_group(const float* q, const float* k, std::size_t n,
                     std::size_t n_heads, std::size_t head_dim, float* s) {
  const std::size_t d = n_heads * head_dim;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    qk_keys<L, 8>(q, k + j * d, d, n_heads, head_dim, s + j * n_heads);
  }
  if (j + 4 <= n) {
    qk_keys<L, 4>(q, k + j * d, d, n_heads, head_dim, s + j * n_heads);
    j += 4;
  }
  if (j + 2 <= n) {
    qk_keys<L, 2>(q, k + j * d, d, n_heads, head_dim, s + j * n_heads);
    j += 2;
  }
  if (j < n) qk_keys<L, 1>(q, k + j * d, d, n_heads, head_dim, s + j * n_heads);
}

/// Q·K with lanes over heads: 8-head groups, then a 4-head group; the
/// scalar reference runs the heads left over.
void qk_heads_avx2(const float* q, const float* k, std::size_t n,
                   std::size_t n_heads, std::size_t head_dim, float* s) {
  std::size_t h = 0;
  for (; h + 8 <= n_heads; h += 8) {
    qk_group<Lanes8>(q + h, k + h, n, n_heads, head_dim, s + h);
  }
  if (h + 4 <= n_heads) {
    qk_group<Lanes4>(q + h, k + h, n, n_heads, head_dim, s + h);
    h += 4;
  }
  if (h < n_heads) detail::qk_heads_scalar(q, k, n, n_heads, head_dim, h, s);
}

/// P·V of four heads over a run of n keys, for kVecs groups of L::kWidth
/// dims from dim c0 of each head: `p`, `v` and `y` point at the first
/// head. The 4 * kVecs accumulators stay in registers across the run.
/// A zero probability's product is masked to +0.0f, which leaves an
/// output that is not -0.0f unchanged, exactly as skipping it does.
template <class L, std::size_t kVecs>
inline void pv_pass(const float* p, const float* v, std::size_t n,
                    std::size_t n_heads, std::size_t head_dim, std::size_t c0,
                    float* y) {
  constexpr std::size_t kW = L::kWidth;
  const std::size_t d = n_heads * head_dim;
  typename L::V acc[4][kVecs];
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t b = 0; b < kVecs; ++b) {
      acc[g][b] = L::load(y + g * head_dim + c0 + b * kW);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const float* pj = p + j * n_heads;
    const float* vj = v + j * d + c0;
    for (std::size_t g = 0; g < 4; ++g) {
      const typename L::V pg = L::set1(pj[g]);
      const typename L::V keep = L::nonzero(pg);
      for (std::size_t b = 0; b < kVecs; ++b) {
        const typename L::V x =
            L::mul(pg, L::load(vj + g * head_dim + b * kW));
        acc[g][b] = L::add(acc[g][b], L::bit_and(x, keep));
      }
    }
  }
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t b = 0; b < kVecs; ++b) {
      L::store(y + g * head_dim + c0 + b * kW, acc[g][b]);
    }
  }
}

/// The vector passes over one 4-head group: dims 16, then 8, then 4 at a
/// time. Returns the dims they cover.
inline std::size_t pv_group(const float* p, const float* v, std::size_t n,
                            std::size_t n_heads, std::size_t head_dim,
                            float* y) {
  std::size_t c = 0;
  for (; c + 16 <= head_dim; c += 16) {
    pv_pass<Lanes8, 2>(p, v, n, n_heads, head_dim, c, y);
  }
  if (c + 8 <= head_dim) {
    pv_pass<Lanes8, 1>(p, v, n, n_heads, head_dim, c, y);
    c += 8;
  }
  if (c + 4 <= head_dim) {
    pv_pass<Lanes4, 1>(p, v, n, n_heads, head_dim, c, y);
    c += 4;
  }
  return c;
}

/// P·V four heads per pass; the scalar reference runs the dims and heads
/// the vector passes leave over.
void pv_heads_avx2(const float* p, const float* v, std::size_t n,
                   std::size_t n_heads, std::size_t head_dim, float* y) {
  const std::size_t hv = n_heads - n_heads % 4;
  std::size_t cv = 0;  // dims the vector passes cover, in every head
  for (std::size_t h = 0; h < hv; h += 4) {
    const float* ph = p + h;
    const float* vh = v + h * head_dim;
    float* yh = y + h * head_dim;
    cv = pv_group(ph, vh, n, n_heads, head_dim, yh);
  }
  if (hv > 0 && cv < head_dim) {
    detail::pv_heads_scalar(p, v, n, n_heads, head_dim, 0, hv, cv, y);
  }
  if (hv < n_heads) {
    detail::pv_heads_scalar(p, v, n, n_heads, head_dim, hv, n_heads, 0, y);
  }
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

/// The tier's two tables: they differ only in the GEMM body.
constexpr KernelOps kAvx2Ops{KernelTier::kAvx2,
                             "avx2",
                             &detail::kouter_rows_of<&kouter_row_avx2>,
                             "256-bit, 1 row per pass",
                             &qk_heads_avx2,
                             &pv_heads_avx2,
                             &epilogue_span_avx2,
                             &exp_span_avx2};
constexpr KernelOps kAvx2OpsZmmGemm{
    KernelTier::kAvx2,
    "avx2",
    &kouter_rows_avx512,
    "512-bit, 4 rows per pass; 256-bit for leftover rows",
    &qk_heads_avx2,
    &pv_heads_avx2,
    &epilogue_span_avx2,
    &exp_span_avx2};

}  // namespace

namespace detail {
// No runtime initialization here: the dispatcher calls this on every host
// while it probes tiers, and this TU's own code may be VEX-encoded.
const KernelOps* kernel_ops_avx2() {
  return cpu_has_avx512f() ? &kAvx2OpsZmmGemm : &kAvx2Ops;
}
}  // namespace detail

}  // namespace ft2

#else  // !(__AVX2__ && __F16C__)

namespace ft2::detail {
const KernelOps* kernel_ops_avx2() { return nullptr; }
}  // namespace ft2::detail

#endif
