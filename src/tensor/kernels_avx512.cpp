// AVX-512F dispatch tier: 64-column GEMM tiles and a 16-wide fused store
// epilogue. Compiled with -mavx512f -ffp-contract=off (see
// src/CMakeLists.txt); without those flags this TU degrades to a stub
// returning nullptr and the dispatcher falls back to AVX2 or SSE. The row
// GEMV is the AVX2 tier's (every AVX-512F CPU has AVX2, and a 512-bit row
// kernel measured no faster), so this tier is only built alongside it.
//
// Same ODR and bit-exactness rules as kernels_avx2.cpp: file-local
// intrinsic code only, mul-then-add accumulation (no FMA), slow paths call
// the extern baseline-built scalar epilogue, and NaN lanes of the hardware
// f16 round-trip are masked onto the software path's canonical quiet NaN.
// Only AVX512F intrinsics are used (integer sign/payload masking goes
// through si512 casts rather than DQ float logicals). GCC's unmasked
// f16 conversions pass an undefined pass-through operand (and warn about it
// under -Wmaybe-uninitialized), so quantize16 uses the full-mask maskz
// forms instead.
#include "tensor/dispatch.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace ft2 {
namespace {

using Protect = KernelEpilogue::Protect;

constexpr std::size_t kTileCols = 64;

inline __m512 quantize16(__m512 v) {
  __m512 q = _mm512_maskz_cvtph_ps(
      0xFFFF, _mm512_maskz_cvtps_ph(
                  0xFFFF, v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  const __mmask16 unord = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  if (unord != 0) {
    const __m512i canon = _mm512_or_si512(
        _mm512_and_si512(_mm512_castps_si512(v),
                         _mm512_set1_epi32(static_cast<int>(0x80000000u))),
        _mm512_set1_epi32(0x7FC00000));
    q = _mm512_mask_mov_ps(q, unord, _mm512_castsi512_ps(canon));
  }
  return q;
}

/// 16-lane analogue of the AVX2 tier's store8 — see kernels_avx2.cpp for
/// the fast-path/dirty-spill contract.
inline void store16(__m512 acc, float* y, std::size_t flat0,
                    const KernelEpilogue* epi, EpilogueTally* tally) {
  if (epi == nullptr) {
    _mm512_storeu_ps(y, acc);
    return;
  }
  const __m512 q = epi->quantize ? quantize16(acc) : acc;
  __mmask16 dirty = 0;
  if (epi->protect != Protect::kNone) {
    const __mmask16 unord = _mm512_cmp_ps_mask(q, q, _CMP_UNORD_Q);
    dirty = unord;
    if (epi->protect == Protect::kBounds) {
      const __mmask16 oob =
          _mm512_cmp_ps_mask(q, _mm512_set1_ps(epi->hi), _CMP_GT_OQ) |
          _mm512_cmp_ps_mask(q, _mm512_set1_ps(epi->lo), _CMP_LT_OQ);
      dirty = epi->correct_nan ? static_cast<__mmask16>(oob | unord) : oob;
    }
  }
  if (dirty == 0) {
    _mm512_storeu_ps(y, q);
    return;
  }
  float lanes[16];
  _mm512_storeu_ps(lanes, acc);
  detail::epilogue_scalar_span(lanes, 16, flat0, *epi, tally);
  _mm512_storeu_ps(y, _mm512_loadu_ps(lanes));
}

void kouter_row_avx512(const float* x, const float* wt, std::size_t k,
                       const float* bias_padded, float* y, std::size_t width,
                       std::size_t flat0, const KernelEpilogue* epi,
                       EpilogueTally* tally) {
  __m512 a0 = _mm512_loadu_ps(bias_padded);
  __m512 a1 = _mm512_loadu_ps(bias_padded + 16);
  __m512 a2 = _mm512_loadu_ps(bias_padded + 32);
  __m512 a3 = _mm512_loadu_ps(bias_padded + 48);
  for (std::size_t i = 0; i < k; ++i) {
    const __m512 xi = _mm512_set1_ps(x[i]);
    const float* wr = wt + i * kTileCols;
    a0 = _mm512_add_ps(a0, _mm512_mul_ps(xi, _mm512_loadu_ps(wr)));
    a1 = _mm512_add_ps(a1, _mm512_mul_ps(xi, _mm512_loadu_ps(wr + 16)));
    a2 = _mm512_add_ps(a2, _mm512_mul_ps(xi, _mm512_loadu_ps(wr + 32)));
    a3 = _mm512_add_ps(a3, _mm512_mul_ps(xi, _mm512_loadu_ps(wr + 48)));
  }
  if (width == kTileCols) {
    store16(a0, y, flat0, epi, tally);
    store16(a1, y + 16, flat0 + 16, epi, tally);
    store16(a2, y + 32, flat0 + 32, epi, tally);
    store16(a3, y + 48, flat0 + 48, epi, tally);
    return;
  }
  float acc[kTileCols];
  _mm512_storeu_ps(acc, a0);
  _mm512_storeu_ps(acc + 16, a1);
  _mm512_storeu_ps(acc + 32, a2);
  _mm512_storeu_ps(acc + 48, a3);
  if (epi != nullptr) {
    detail::epilogue_scalar_span(acc, width, flat0, *epi, tally);
  }
  for (std::size_t j = 0; j < width; ++j) y[j] = acc[j];
}

void epilogue_span_avx512(float* v, std::size_t n, std::size_t flat0,
                          const KernelEpilogue& epi, EpilogueTally* tally) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    store16(_mm512_loadu_ps(v + i), v + i, flat0 + i, &epi, tally);
  }
  if (i < n) detail::epilogue_scalar_span(v + i, n - i, flat0 + i, epi, tally);
}

constexpr KernelOps kAvx512Ops{KernelTier::kAvx512, "avx512", kTileCols,
                               &kouter_row_avx512, &detail::gemv_row_avx2,
                               &epilogue_span_avx512};

}  // namespace

namespace detail {
const KernelOps* kernel_ops_avx512() { return &kAvx512Ops; }
}  // namespace detail

}  // namespace ft2

#else  // !__AVX512F__

namespace ft2::detail {
const KernelOps* kernel_ops_avx512() { return nullptr; }
}  // namespace ft2::detail

#endif
