#include "tensor/dispatch.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.hpp"
#include "common/env.hpp"
#include "numeric/f16.hpp"

namespace ft2 {

namespace {

/// The CPU probe for FMA, which both expf_ref's copy and the AVX2 tier
/// need. Safe before static constructors have run.
bool cpu_has_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

namespace detail {

bool cpu_has_avx512f() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return has;
#else
  return false;
#endif
}

void epilogue_scalar_span(float* v, std::size_t n, std::size_t flat0,
                          const KernelEpilogue& epi, EpilogueTally* tally) {
  using Protect = KernelEpilogue::Protect;
  for (std::size_t i = 0; i < n; ++i) {
    float q = epi.quantize ? quantize_f16(v[i]) : v[i];
    switch (epi.protect) {
      case Protect::kNone:
        break;
      case Protect::kNanOnly:
        if (std::isnan(q)) {
          ++tally->nan;
          if (!epi.detect_only) q = 0.0f;
        }
        break;
      case Protect::kBounds:
        if (std::isnan(q)) {
          // NaNs pass through silently (uncounted) when the scheme does not
          // correct them.
          if (epi.correct_nan) {
            ++tally->nan;
            if (!epi.detect_only) q = 0.0f;
          }
        } else if (q > epi.hi || q < epi.lo) {
          // Observers see the pre-correction value even in detect_only.
          if (epi.record_events) {
            tally->events.push_back(EpilogueEvent{flat0 + i, q});
          }
          if (!epi.detect_only) q = q > epi.hi ? epi.hi_sub : epi.lo_sub;
          ++tally->oob;
        }
        break;
    }
    v[i] = q;
  }
}

void qk_heads_scalar(const float* q, const float* k, std::size_t n,
                     std::size_t n_heads, std::size_t head_dim,
                     std::size_t h0, float* s) {
  const std::size_t d = n_heads * head_dim;
  for (std::size_t j = 0; j < n; ++j) {
    const float* key = k + j * d;
    float* sj = s + j * n_heads;
    for (std::size_t h = h0; h < n_heads; ++h) sj[h] = 0.0f;
    for (std::size_t i = 0; i < head_dim; ++i) {
      const float* ki = key + i * n_heads;
      const float* qi = q + i * n_heads;
      for (std::size_t h = h0; h < n_heads; ++h) sj[h] += ki[h] * qi[h];
    }
  }
}

void pv_heads_scalar(const float* p, const float* v, std::size_t n,
                     std::size_t n_heads, std::size_t head_dim,
                     std::size_t h0, std::size_t h1, std::size_t c0,
                     float* y) {
  const std::size_t d = n_heads * head_dim;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t h = h0; h < h1; ++h) {
      const float pj = p[j * n_heads + h];
      if (pj == 0.0f) continue;
      const float* row = v + j * d + h * head_dim;
      float* out = y + h * head_dim;
      for (std::size_t c = c0; c < head_dim; ++c) out[c] += pj * row[c];
    }
  }
}

const std::uint64_t kExpfTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

namespace {

/// expf_ref's steps. Each is its own rounding except the four std::fma
/// calls: the TU is compiled with -ffp-contract=off, so nothing else
/// fuses. A caller built without an FMA target gets libm's fma (exact on
/// any host); expf_ref_fma's copy gets the FMA instruction.
[[gnu::always_inline]] inline float expf_steps(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  if ((bits & 0x7fffffffu) >= kExpfSpecialAbsBits) {
    if (bits == 0xff800000u) return 0.0f;                      // -inf
    if ((bits & 0x7fffffffu) >= 0x7f800000u) return x + x;     // inf, NaN
    if (x > 0x1.62e42ep6f) return std::numeric_limits<float>::infinity();
    if (x < -0x1.9fe368p6f) return 0.0f;
  }
  const double xd = static_cast<double>(x);
  const double z = kExpfInvLn2N * xd;
  double kd = z + kExpfShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kExpfShift;
  const double r = std::fma(kExpfInvLn2N, xd, -kd);
  const double s =
      std::bit_cast<double>(kExpfTable[ki % 32] + (ki << 47));
  const double p = std::fma(kExpfC0, r, kExpfC1);
  double y = std::fma(kExpfC2, r, 1.0);
  y = std::fma(p, r * r, y);
  return static_cast<float>(y * s);
}

float expf_ref_libm(float x) { return expf_steps(x); }

using ExpfFn = float (*)(float);

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
/// The same steps with the four fused ones as FMA instructions instead of
/// libm calls: the same results, several times faster.
__attribute__((target("fma"))) float expf_ref_fma(float x) {
  return expf_steps(x);
}

ExpfFn probe_expf() {
  return cpu_has_fma() ? &expf_ref_fma : &expf_ref_libm;
}
#else
ExpfFn probe_expf() { return &expf_ref_libm; }
#endif

/// expf_ref's implementation on this host, probed once.
ExpfFn expf_impl() {
  static const ExpfFn impl = probe_expf();
  return impl;
}

}  // namespace

float expf_ref(float x) { return expf_impl()(x); }

void exp_span_scalar(const float* x, float* y, std::size_t n) {
  const ExpfFn impl = expf_impl();
  for (std::size_t i = 0; i < n; ++i) y[i] = impl(x[i]);
}

void round_f16_scalar(const float* x, std::uint16_t* h, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h[i] = f16::from_float(x[i]).bits();
}

void widen_f16_scalar(const std::uint16_t* h, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = f16::from_bits(h[i]).to_float();
}

}  // namespace detail

namespace {

/// k-outer micro-kernel, reference tier: one input row against a widened
/// weight tile. Each output element accumulates x[i] * w[o][i] in
/// ascending-i order with a separate mul and add per step, but the 32
/// accumulators (eight 4-lane registers) are independent, so the lanes
/// run in parallel instead of serializing on one dot product's add-latency
/// chain, and the tile is read once, front to back. Explicit SSE keeps the
/// instruction selection out of the autovectorizer's hands (and SSE
/// mul/add round identically to their scalar counterparts, so
/// bit-exactness is preserved by construction). The AVX2 tier in
/// kernels_avx2.cpp keeps this per-element sequence in wider registers.
void kouter_row_sse(const float* x, const float* wt, std::size_t k,
                    const float* bias_padded, float* y, std::size_t width) {
  float acc[kTileCols];
#if defined(__SSE2__)
  __m128 a[kTileCols / 4];
  for (std::size_t j = 0; j < kTileCols / 4; ++j) {
    a[j] = _mm_loadu_ps(bias_padded + 4 * j);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const __m128 xi = _mm_set1_ps(x[i]);
    const float* wr = wt + i * kTileCols;
    for (std::size_t j = 0; j < kTileCols / 4; ++j) {
      a[j] = _mm_add_ps(a[j], _mm_mul_ps(xi, _mm_loadu_ps(wr + 4 * j)));
    }
  }
  for (std::size_t j = 0; j < kTileCols / 4; ++j) {
    _mm_storeu_ps(acc + 4 * j, a[j]);
  }
#else
  for (std::size_t j = 0; j < kTileCols; ++j) acc[j] = bias_padded[j];
  for (std::size_t i = 0; i < k; ++i) {
    const float xi = x[i];
    const float* wr = wt + i * kTileCols;
    for (std::size_t j = 0; j < kTileCols; ++j) acc[j] += xi * wr[j];
  }
#endif
  for (std::size_t j = 0; j < width; ++j) y[j] = acc[j];
}

void qk_heads_sse(const float* q, const float* k, std::size_t n,
                  std::size_t n_heads, std::size_t head_dim, float* s) {
  detail::qk_heads_scalar(q, k, n, n_heads, head_dim, 0, s);
}

void pv_heads_sse(const float* p, const float* v, std::size_t n,
                  std::size_t n_heads, std::size_t head_dim, float* y) {
  detail::pv_heads_scalar(p, v, n, n_heads, head_dim, 0, n_heads, 0, y);
}

/// The SSE tier's widen_f16_span: four patterns at a time in SSE2
/// integer and float operations, bit for bit f16::to_float. A normal
/// value rebiases its exponent by an integer add; Inf and NaN move to
/// exponent 0xFF, a NaN keeping its payload and gaining the quiet bit; a
/// zero or subnormal m * 2^-24 is built as 2^-14 * (1 + m / 1024) and
/// 2^-14 subtracted, which is exact.
void widen_f16_sse(const std::uint16_t* h, float* x, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128i exp_mask = _mm_set1_epi32(0x7C00 << 13);
  for (; i + 4 <= n; i += 4) {
    const __m128i raw = _mm_unpacklo_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(h + i)),
        _mm_setzero_si128());
    const __m128i sign =
        _mm_slli_epi32(_mm_and_si128(raw, _mm_set1_epi32(0x8000)), 16);
    const __m128i em =
        _mm_slli_epi32(_mm_and_si128(raw, _mm_set1_epi32(0x7FFF)), 13);
    const __m128i exp = _mm_and_si128(em, exp_mask);
    const __m128i is_special = _mm_cmpeq_epi32(exp, exp_mask);
    const __m128i is_small = _mm_cmpeq_epi32(exp, _mm_setzero_si128());
    const __m128i normal = _mm_add_epi32(em, _mm_set1_epi32(112 << 23));
    const __m128i mant_zero = _mm_cmpeq_epi32(
        _mm_andnot_si128(exp_mask, em), _mm_setzero_si128());
    const __m128i special =
        _mm_or_si128(_mm_add_epi32(em, _mm_set1_epi32(224 << 23)),
                     _mm_andnot_si128(mant_zero, _mm_set1_epi32(0x400000)));
    const __m128i small = _mm_castps_si128(_mm_sub_ps(
        _mm_castsi128_ps(_mm_add_epi32(em, _mm_set1_epi32(113 << 23))),
        _mm_set1_ps(0x1p-14f)));
    __m128i out = _mm_or_si128(_mm_and_si128(is_special, special),
                               _mm_andnot_si128(is_special, normal));
    out = _mm_or_si128(_mm_and_si128(is_small, small),
                       _mm_andnot_si128(is_small, out));
    _mm_storeu_ps(x + i, _mm_castsi128_ps(_mm_or_si128(out, sign)));
  }
#endif
  detail::widen_f16_scalar(h + i, x + i, n - i);
}

void epilogue_span_sse(float* v, std::size_t n, std::size_t flat0,
                       const KernelEpilogue& epi, EpilogueTally* tally) {
  detail::epilogue_scalar_span(v, n, flat0, epi, tally);
}

constexpr KernelOps kSseOps{
    KernelTier::kSse,
    "sse",
    &detail::kouter_rows_widened<&kouter_row_sse>,
    "128-bit (scalar without SSE2), 1 row per pass on a widened tile",
    &qk_heads_sse,
    &pv_heads_sse,
    &epilogue_span_sse,
    &detail::exp_span_scalar,
    &detail::round_f16_scalar,
    &widen_f16_sse};

bool cpu_has_avx2_f16c_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return cpu_has_fma() && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

const KernelOps* compiled_ops(KernelTier tier) {
  switch (tier) {
    case KernelTier::kSse:
      return &kSseOps;
    case KernelTier::kAvx2:
      return detail::kernel_ops_avx2();
  }
  return nullptr;
}

const KernelOps* probe_default() {
  if (kernel_tier_supported(KernelTier::kAvx2)) {
    return compiled_ops(KernelTier::kAvx2);
  }
  return &kSseOps;
}

std::atomic<const KernelOps*> g_active_ops{nullptr};

const KernelOps* select_initial() {
  const std::string forced = env_string("FT2_KERNEL", "auto");
  if (forced == "auto") return probe_default();
  const std::optional<KernelTier> tier = parse_kernel_tier(forced);
  FT2_CHECK_MSG(tier.has_value(),
                "FT2_KERNEL='" << forced << "' (want sse|avx2|auto)");
  FT2_CHECK_MSG(kernel_tier_supported(*tier),
                "FT2_KERNEL=" << forced << " not supported on this host ("
                              << (kernel_tier_compiled(*tier)
                                      ? "CPU lacks the feature"
                                      : "kernel not compiled in")
                              << ")");
  return compiled_ops(*tier);
}

}  // namespace

const KernelOps& active_kernel_ops() {
  const KernelOps* ops = g_active_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Benign race: selection is deterministic, both winners store the same
    // table.
    ops = select_initial();
    g_active_ops.store(ops, std::memory_order_release);
  }
  return *ops;
}

KernelTier active_kernel_tier() { return active_kernel_ops().tier; }

bool kernel_tier_compiled(KernelTier tier) {
  return compiled_ops(tier) != nullptr;
}

bool kernel_tier_supported(KernelTier tier) {
  // The CPU first: a tier the host cannot run never reaches its arch TU.
  switch (tier) {
    case KernelTier::kSse:
      break;  // reference tier: SSE2 is x86-64 baseline, scalar elsewhere
    case KernelTier::kAvx2:
      if (!cpu_has_avx2_f16c_fma()) return false;
      break;
  }
  return compiled_ops(tier) != nullptr;
}

std::vector<KernelTier> supported_kernel_tiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier t : {KernelTier::kSse, KernelTier::kAvx2}) {
    if (kernel_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

void set_kernel_tier(KernelTier tier) {
  FT2_CHECK_MSG(kernel_tier_supported(tier),
                "kernel tier '" << kernel_tier_name(tier)
                               << "' not supported on this host ("
                               << (kernel_tier_compiled(tier)
                                       ? "CPU lacks the feature"
                                       : "kernel not compiled in")
                               << ")");
  g_active_ops.store(compiled_ops(tier), std::memory_order_release);
}

void set_kernel_tier_name(std::string_view name) {
  if (name == "auto") {
    g_active_ops.store(probe_default(), std::memory_order_release);
    return;
  }
  const std::optional<KernelTier> tier = parse_kernel_tier(name);
  FT2_CHECK_MSG(tier.has_value(),
                "unknown kernel tier '" << name << "' (want sse|avx2|auto)");
  set_kernel_tier(*tier);
}

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kSse:
      return "sse";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<KernelTier> parse_kernel_tier(std::string_view name) {
  if (name == "sse") return KernelTier::kSse;
  if (name == "avx2") return KernelTier::kAvx2;
  return std::nullopt;
}

const KernelOps& kernel_ops_for(KernelTier tier) {
  FT2_CHECK_MSG(kernel_tier_supported(tier),
                "kernel tier '" << kernel_tier_name(tier)
                               << "' not supported on this host");
  return *compiled_ops(tier);
}

bool fused_epilogue_enabled() { return false; }

}  // namespace ft2
