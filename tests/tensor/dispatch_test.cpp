// Runtime-dispatch tier equivalence (tensor/dispatch.hpp).
//
// The bit-exactness policy says every kernel tier — the SSE reference and
// AVX2 — produces bit-identical GEMM results, quantization grids and
// epilogue outcomes. These tests pin that promise on whatever tiers
// the host supports; tiers the host cannot run are skipped with a reason
// (the per-tier TESTs exist so a skip is visible in ctest output rather
// than silently shrinking a loop).
#include "tensor/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/ft2.hpp"
#include "numeric/f16.hpp"
#include "protect/range_restriction.hpp"
#include "tensor/ops.hpp"

namespace ft2 {
namespace {

/// Restores the active tier on scope exit so a failing test cannot leak a
/// forced tier into the rest of the suite.
class TierGuard {
 public:
  TierGuard() : tier_(active_kernel_tier()) {}
  ~TierGuard() { set_kernel_tier(tier_); }

 private:
  KernelTier tier_;
};

void fill_uniform(std::span<float> v, Xoshiro256& rng, float lo, float hi) {
  for (float& f : v) f = rng.uniform_float(lo, hi);
}

/// The documented accumulation chain: acc += x[i] * w[o][i], ascending i,
/// separate mul and add. Every tier must reproduce this bit for bit, with
/// w the tiles' widened binary16 weights.
void gemm_scalar_ref(const Tensor& x, std::size_t rows, const Tensor& w,
                     std::span<const float> bias, Tensor& y) {
  const std::size_t n = w.dim(0), k = w.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t o = 0; o < n; ++o) {
      float acc = bias.empty() ? 0.0f : bias[o];
      const float* xr = x.row(r).data();
      const float* wr = w.row(o).data();
      for (std::size_t i = 0; i < k; ++i) acc += xr[i] * wr[i];
      y.row(r)[o] = acc;
    }
  }
}

/// The chunked-accumulation chain on row-major weights: eight k-strided
/// partial sums, the k tail on the bias, then the pairwise reduction.
void chunked_scalar_ref(const Tensor& x, std::size_t rows, const Tensor& w,
                        std::span<const float> bias, Tensor& y) {
  const std::size_t n = w.dim(0), k = w.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t o = 0; o < n; ++o) {
      const float* xr = x.row(r).data();
      const float* wr = w.row(o).data();
      float part[8] = {};
      std::size_t i = 0;
      for (; i + 8 <= k; i += 8) {
        for (std::size_t l = 0; l < 8; ++l) part[l] += wr[i + l] * xr[i + l];
      }
      float acc = bias.empty() ? 0.0f : bias[o];
      for (; i < k; ++i) acc += wr[i] * xr[i];
      part[0] += part[4];
      part[1] += part[5];
      part[2] += part[6];
      part[3] += part[7];
      part[0] += part[2];
      part[1] += part[3];
      y.row(r)[o] = acc + part[0] + part[1];
    }
  }
}

/// Binary16 weights [n][k] packed as a model packs them, and the widened
/// row-major weights the references multiply by. Packing rounds the
/// widened values, which leaves every pattern but a NaN as it is; a NaN
/// pattern is then written into the tile bits as it is, the way a weight
/// fault writes one.
struct HalfWeights {
  PackedLinear packed;
  Tensor widened;
};

HalfWeights pack_halves(const std::vector<std::uint16_t>& h, std::size_t n,
                        std::size_t k, std::span<const float> bias) {
  Tensor w({n, k});
  for (std::size_t i = 0; i < h.size(); ++i) {
    w[i] = f16::from_bits(h[i]).to_float();
  }
  HalfWeights out{PackedLinear(w, bias), w};
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t i = 0; i < k; ++i) out.packed.at(o, i) = h[o * k + i];
  }
  return out;
}

/// Checks one GEMM input on `tier` against the scalar references, in both
/// reduction modes. `y` starts as NaN, so a row the kernel never writes
/// fails too.
void expect_gemm_case(KernelTier tier, const Tensor& x, std::size_t rows,
                      const HalfWeights& hw, std::span<const float> bias,
                      ThreadPool& pool, const char* what) {
  const Tensor& w = hw.widened;
  const std::size_t n = w.dim(0);
  const float sentinel = std::numeric_limits<float>::quiet_NaN();
  Tensor y({rows, n}), y_ref({rows, n});
  std::fill(y.span().begin(), y.span().end(), sentinel);
  gemm_scalar_ref(x, rows, w, bias, y_ref);
  linear_forward_span_packed(x, rows, hw.packed, y, pool);
  for (std::size_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
        << kernel_tier_name(tier) << " " << what << " span mismatch at row "
        << i / n << " col " << i % n << " (n=" << n << " k=" << w.dim(1)
        << " rows=" << rows << ")";
  }

  // The same weights in chunked-accumulation mode.
  std::fill(y.span().begin(), y.span().end(), sentinel);
  chunked_scalar_ref(x, rows, w, bias, y_ref);
  linear_forward_span_packed(x, rows, hw.packed, y, pool,
                             /*chunked_accum=*/true);
  for (std::size_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
        << kernel_tier_name(tier) << " " << what << " chunked mismatch at row "
        << i / n << " col " << i % n << " (n=" << n << " k=" << w.dim(1)
        << " rows=" << rows << ")";
  }
}

/// Input values that stress the chain: signed zeros, subnormals,
/// infinities, a NaN, and magnitudes whose products overflow (or, fused,
/// would not). The NaN is x86's default NaN, the one Inf * 0 and Inf - Inf
/// produce, so every NaN in a chain has the same bits whichever operand
/// the hardware propagates.
float hostile_input(Xoshiro256& rng) {
  const float kValues[] = {
      0.0f,     -0.0f,     1e-40f,   -1e-40f, 1.17549435e-38f, 3e38f,
      -3e38f,   1e20f,     -1e20f,   1.0f + 0x1p-23f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      f32_from_bits(0xFFC00000u)};
  // Mostly ordinary values, so many chains stay finite long enough for a
  // reordered or fused step to show.
  const std::uint64_t pick = rng() % 256;
  if (pick < std::size(kValues)) return kValues[pick];
  return rng.uniform_float(-2.0f, 2.0f);
}

/// Binary16 weight extremes: signed zeros, the smallest and largest
/// subnormals, the largest finite (65504), infinities and the NaN that
/// widens to the default NaN.
std::uint16_t hostile_weight(Xoshiro256& rng) {
  const std::uint16_t kPatterns[] = {0x0000, 0x8000, 0x0001, 0x8001,
                                     0x03FF, 0x83FF, 0x7BFF, 0xFBFF,
                                     0x7C00, 0xFC00, 0xFE00};
  const std::uint64_t pick = rng() % 256;
  if (pick < std::size(kPatterns)) return kPatterns[pick];
  return f16::from_float(rng.uniform_float(-1.0f, 1.0f)).bits();
}

/// Binary16 NaNs with payloads, quiet and signalling, of either sign, as a
/// weight fault can leave them in a tile.
constexpr std::uint16_t kNanPayloads[] = {0x7C01, 0x7D55, 0x7E00, 0x7FFF,
                                          0xFC01, 0xFE2A, 0xFFFF};

/// Runs the GEMM on `tier` over shapes with full tiles, a partial last
/// tile (n = 48, 100, 257 end in 16-, 4- and 1-column tiles) and k tails,
/// demanding bit-equality with the scalar reference in both reduction
/// modes. Weights are binary16, inputs off-grid FP32, so a fused
/// multiply-add would round differently. Rows 1-9 and 16 give every
/// leftover count after zero, one and two four-row groups (the AVX2 tier's
/// 512-bit body on AVX-512F hosts), and both sides of the four-row limit
/// of the in-register widening. A second pass puts NaN payloads into the
/// weights, and a third feeds hostile values into x, the weights and the
/// bias.
void expect_tier_gemm_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  ThreadPool pool(2);
  Xoshiro256 rng(42);
  const struct {
    std::size_t n, k;
  } shapes[] = {{48, 33}, {64, 64}, {100, 17}, {257, 96}};
  for (const auto& shape : shapes) {
    for (const std::size_t rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
      Tensor x({rows, shape.k});
      std::vector<std::uint16_t> w(shape.n * shape.k);
      std::vector<float> bias(shape.n);
      fill_uniform(x.span(), rng, -2.0f, 2.0f);
      for (std::uint16_t& h : w) {
        h = f16::from_float(rng.uniform_float(-1.0f, 1.0f)).bits();
      }
      fill_uniform(bias, rng, -0.5f, 0.5f);
      expect_gemm_case(tier, x, rows, pack_halves(w, shape.n, shape.k, bias),
                       bias, pool, "uniform");
      if (::testing::Test::HasFatalFailure()) return;

      // NaN payloads: one weight in every other output column, on finite
      // inputs, so each chain meets one NaN and its widened bits (quiet
      // bit set, payload kept) reach the output whichever operand order
      // the compiler gives a commutative add or multiply.
      for (std::size_t o = 0; o < shape.n; o += 2) {
        w[o * shape.k + rng() % shape.k] =
            kNanPayloads[rng() % std::size(kNanPayloads)];
      }
      expect_gemm_case(tier, x, rows, pack_halves(w, shape.n, shape.k, bias),
                       bias, pool, "nan payloads");
      if (::testing::Test::HasFatalFailure()) return;

      for (float& f : x.span()) f = hostile_input(rng);
      for (std::uint16_t& h : w) h = hostile_weight(rng);
      for (float& f : bias) f = hostile_input(rng);
      expect_gemm_case(tier, x, rows, pack_halves(w, shape.n, shape.k, bias),
                       bias, pool, "hostile");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Every binary16 pattern widens to f16::to_float's bits, NaN payloads and
/// signalling NaNs included (VCVTPH2PS on AVX2); rounding to binary16
/// matches f16::from_float on every float the quantize test feeds.
void expect_tier_round_widen_exact(KernelTier tier) {
  const KernelOps& ops = kernel_ops_for(tier);
  std::vector<std::uint16_t> h(1u << 16);
  for (std::uint32_t b = 0; b < h.size(); ++b) {
    h[b] = static_cast<std::uint16_t>(b);
  }
  // An odd length leaves a tail after the last vector group.
  std::vector<float> wide(h.size() - 3);
  ops.widen_f16_span(h.data(), wide.data(), wide.size());
  for (std::size_t b = 0; b < wide.size(); ++b) {
    ASSERT_EQ(f32_bits(wide[b]),
              f32_bits(f16::from_bits(h[b]).to_float()))
        << kernel_tier_name(tier) << " widen mismatch at pattern 0x"
        << std::hex << b;
  }
  std::vector<float> x;
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    x.push_back(f16::from_bits(static_cast<std::uint16_t>(b)).to_float());
  }
  for (const float f : {65504.0f, 65519.9f, 65520.0f, -65520.0f, 5.9e-8f,
                        -5.9e-8f, 2.9e-8f, 1e-10f, 1.0009765f, 1.0009766f,
                        f32_from_bits(0x7FC01234u), f32_from_bits(0xFFC00000u),
                        f32_from_bits(0x7F800001u)}) {
    x.push_back(f);
  }
  Xoshiro256 rng(5);
  for (int i = 0; i < 4099; ++i) {
    x.push_back(f32_from_bits(static_cast<std::uint32_t>(rng())));
  }
  std::vector<std::uint16_t> rounded(x.size());
  ops.round_f16_span(x.data(), rounded.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(rounded[i], f16::from_float(x[i]).bits())
        << kernel_tier_name(tier) << " round mismatch at input bits 0x"
        << std::hex << f32_bits(x[i]);
  }
}

/// Demands the dispatched quantize sweep matches the scalar quantize_f16
/// bit for bit: all 65536 f16-exact values, denormals, infinities, NaN
/// payloads, overflow/rounding boundaries and random bit patterns.
void expect_tier_quantize_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  std::vector<float> v;
  v.reserve((1u << 16) + 4200);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    v.push_back(f16::from_bits(static_cast<std::uint16_t>(h)).to_float());
  }
  const float specials[] = {
      65504.0f,  65519.9f,  65520.0f,  -65520.0f,  // overflow boundary
      1e30f,     -1e30f,                            // far overflow
      5.9e-8f,   -5.9e-8f,  1e-10f,    -1e-10f,     // denormal / underflow
      1.0009765f, 1.0009766f,                       // RNE tie region
      0.0f,      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
  };
  v.insert(v.end(), std::begin(specials), std::end(specials));
  v.push_back(f32_from_bits(0x7FC01234u));  // quiet NaN, nonzero payload
  v.push_back(f32_from_bits(0xFFC00000u));  // negative quiet NaN
  v.push_back(f32_from_bits(0x7F800001u));  // signalling NaN
  v.push_back(f32_from_bits(0xFF800001u));
  Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) {
    v.push_back(f32_from_bits(static_cast<std::uint32_t>(rng())));
  }
  std::vector<float> expect = v;
  for (float& f : expect) f = quantize_f16(f);
  quantize_span_f16(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(f32_bits(v[i]), f32_bits(expect[i]))
        << kernel_tier_name(tier) << " quantize mismatch at " << i
        << ": in-bits neither matches scalar grid";
  }
}

#define FT2_REQUIRE_TIER(tier)                                         \
  if (!kernel_tier_supported(tier)) {                                  \
    GTEST_SKIP() << "tier '" << kernel_tier_name(tier)                 \
                 << "' not supported on this host ("                   \
                 << (kernel_tier_compiled(tier) ? "CPU lacks the feature" \
                                                : "not compiled in")   \
                 << ")";                                               \
  }

TEST(KernelTierEquivalence, SseGemmMatchesScalarReference) {
  expect_tier_gemm_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2GemmMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_gemm_bit_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, SseRoundAndWidenMatchF16) {
  expect_tier_round_widen_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2RoundAndWidenMatchF16) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_round_widen_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, SseQuantizeMatchesScalar) {
  expect_tier_quantize_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2QuantizeMatchesScalar) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_quantize_bit_exact(KernelTier::kAvx2);
}

// --- Attention kernels: Q·K, the column softmax and P·V -----------------

const float kInf = std::numeric_limits<float>::infinity();
const float kNanPayload = f32_from_bits(0x7FC01234u);
const float kSubnormal = std::numeric_limits<float>::denorm_min();

/// Head counts and head dims covering every lane split of the vector tier:
/// 8- and 4-head groups and leftover scalar heads; P·V's 16-, 8- and 4-dim
/// passes alone (16, 4) and together (12 = 8 + 4, 28 = 16 + 8 + 4), and a
/// scalar dim tail behind them (6 = 4 + 2, 10 = 8 + 2).
constexpr std::size_t kAttnHeadCounts[] = {1, 2, 3, 4, 8, 12};
constexpr std::size_t kAttnHeadDims[] = {4, 6, 10, 12, 16, 28};
/// Rows per block of the caches attention reads: standalone (0: one block
/// of kAttnMaxKeys rows), then over a shared pool.
constexpr std::size_t kAttnBlockRows[] = {0, 3, 16};
constexpr std::size_t kAttnMaxKeys = 17;

/// A one-layer cache of kAttnMaxKeys rows: standalone, or over a pool of
/// `block_rows`-row blocks (declared first, so it outlives the cache).
struct AttnCache {
  std::unique_ptr<KvBlockPool> pool;
  KvCache cache;
};

AttnCache attn_cache(std::size_t block_rows, std::size_t d) {
  if (block_rows == 0) return {nullptr, KvCache(1, kAttnMaxKeys, d)};
  auto pool = std::make_unique<KvBlockPool>(
      1, d, (kAttnMaxKeys + block_rows - 1) / block_rows, block_rows);
  KvCache cache = KvCache::paged(*pool, kAttnMaxKeys);
  EXPECT_TRUE(cache.reserve_rows(kAttnMaxKeys));
  return {std::move(pool), std::move(cache)};
}

/// Calls fn(j, n) for each contiguous run [j, j + n) of the first `len`
/// rows, as the forward engine walks a cache.
template <typename Fn>
void for_each_run(const KvCache& cache, std::size_t len, Fn&& fn) {
  for (std::size_t j = 0, n = 0; j < len; j += n) {
    n = std::min(cache.contiguous_rows(j), len - j);
    fn(j, n);
  }
}

/// Scores of canonical (head-major) keys: s[j][h] = sum over ascending i
/// of k[j][h][i] * q[h][i], from 0.0f.
std::vector<float> qk_naive(const std::vector<float>& q,
                            const std::vector<float>& keys, std::size_t len,
                            std::size_t heads, std::size_t dim) {
  const std::size_t d = heads * dim;
  std::vector<float> s(len * heads);
  for (std::size_t j = 0; j < len; ++j) {
    for (std::size_t h = 0; h < heads; ++h) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < dim; ++i) {
        acc += keys[j * d + h * dim + i] * q[h * dim + i];
      }
      s[j * heads + h] = acc;
    }
  }
  return s;
}

/// softmax of every column of a [rows][cols] block, one column at a time:
/// running std::max from row 0, expf_ref(x - max), an ascending sum from
/// 0.0f, and a division only when that sum is positive.
void softmax_columns_naive(std::vector<float>& v, std::size_t rows,
                           std::size_t cols) {
  for (std::size_t h = 0; h < cols; ++h) {
    float mx = v[h];
    for (std::size_t j = 0; j < rows; ++j) mx = std::max(mx, v[j * cols + h]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < rows; ++j) {
      float& x = v[j * cols + h];
      x = detail::expf_ref(x - mx);
      sum += x;
    }
    if (sum > 0.0f) {
      for (std::size_t j = 0; j < rows; ++j) v[j * cols + h] /= sum;
    }
  }
}

/// P·V of canonical values from +0.0f: y[h][c] += p[j][h] * v[j][h][c],
/// ascending j, zero p skipped.
std::vector<float> pv_naive(const std::vector<float>& p,
                            const std::vector<float>& values,
                            std::size_t len, std::size_t heads,
                            std::size_t dim) {
  const std::size_t d = heads * dim;
  std::vector<float> y(d, 0.0f);
  for (std::size_t j = 0; j < len; ++j) {
    for (std::size_t h = 0; h < heads; ++h) {
      const float pj = p[j * heads + h];
      if (pj == 0.0f) continue;
      for (std::size_t c = 0; c < dim; ++c) {
        y[h * dim + c] += pj * values[j * d + h * dim + c];
      }
    }
  }
  return y;
}

/// Canonical keys with one special value source per score chain: key 1
/// holds a NaN payload in the last head, key 3 a +Inf and key 6 a -Inf
/// (meeting a +Inf later in the chain) in head 0, key 8 subnormals.
std::vector<float> attn_keys(std::size_t heads, std::size_t dim,
                             Xoshiro256& rng) {
  const std::size_t d = heads * dim;
  std::vector<float> k(kAttnMaxKeys * d);
  fill_uniform(k, rng, -1.0f, 1.0f);
  k[1 * d + (heads - 1) * dim + dim / 2] = kNanPayload;
  k[3 * d] = kInf;
  k[6 * d] = -kInf;
  k[6 * d + dim - 1] = kInf;
  for (std::size_t i = 0; i < d; ++i) k[8 * d + i] *= kSubnormal * 4096.0f;
  return k;
}

/// The P·V case of one (key, head) cell: which rows carry a ±0
/// probability (their values are all Inf/NaN, so only the skip keeps
/// them out), a subnormal one, a NaN one, or an ordinary one.
enum class PCell { kPlain, kPosZero, kNegZero, kSubnormal, kNan };

PCell p_cell(std::size_t j, std::size_t h, std::size_t heads) {
  if (heads > 1 && h == 1 && j == 8) return PCell::kNan;
  switch ((j + h) % 4) {
    case 1: return PCell::kPosZero;
    case 3: return PCell::kNegZero;
    case 2: return j >= 6 ? PCell::kSubnormal : PCell::kPlain;
    default: return PCell::kPlain;
  }
}

/// Canonical values for p_cell's cases, plus three poisons behind
/// nonzero probabilities: head 0, dim 0 meets +Inf at key 0 and -Inf at
/// key 2; the last head's last dim a NaN payload at its first key
/// ≡ -h (mod 4).
std::vector<float> attn_values(std::size_t heads, std::size_t dim,
                               Xoshiro256& rng) {
  const std::size_t d = heads * dim;
  std::vector<float> v(kAttnMaxKeys * d);
  fill_uniform(v, rng, -1.0f, 1.0f);
  for (std::size_t j = 0; j < kAttnMaxKeys; ++j) {
    for (std::size_t h = 0; h < heads; ++h) {
      float* cell = v.data() + j * d + h * dim;
      const PCell c = p_cell(j, h, heads);
      if (c == PCell::kPosZero || c == PCell::kNegZero) {
        for (std::size_t i = 0; i < dim; ++i) {
          cell[i] = i % 3 == 0 ? kInf : i % 3 == 1 ? -kInf : kNanPayload;
        }
      } else if (c == PCell::kSubnormal) {
        for (std::size_t i = 0; i < dim; ++i) cell[i] *= kSubnormal * 64.0f;
      }
    }
  }
  v[0] = kInf;
  v[2 * d] = -kInf;
  const std::size_t last = heads - 1;
  v[((4 - last % 4) % 4) * d + last * dim + dim - 1] = kNanPayload;
  return v;
}

std::vector<float> attn_probs(std::size_t len, std::size_t heads,
                              Xoshiro256& rng) {
  std::vector<float> p(len * heads);
  fill_uniform(p, rng, 0.0f, 1.0f);
  for (std::size_t j = 0; j < len; ++j) {
    for (std::size_t h = 0; h < heads; ++h) {
      float& x = p[j * heads + h];
      switch (p_cell(j, h, heads)) {
        case PCell::kPosZero: x = 0.0f; break;
        case PCell::kNegZero: x = -0.0f; break;
        case PCell::kSubnormal: x = kSubnormal * 3.0f; break;
        case PCell::kNan: x = kNanPayload; break;
        case PCell::kPlain: break;
      }
    }
  }
  return p;
}

/// A [len][heads] score block whose column h takes case (h + len) % 8:
/// plain, NaN first, NaN later, +inf, -inf, all -inf (a NaN sum, so no
/// divide), a ±0 maximum, all subnormal.
std::vector<float> attn_scores(std::size_t len, std::size_t heads,
                               Xoshiro256& rng) {
  std::vector<float> s(len * heads);
  fill_uniform(s, rng, -12.0f, 12.0f);
  for (std::size_t h = 0; h < heads; ++h) {
    const auto at = [&](std::size_t j) -> float& { return s[j * heads + h]; };
    switch ((h + len) % 8) {
      case 1: at(0) = kNanPayload; break;
      case 2: at(len - 1) = kNanPayload; break;
      case 3: at(len / 2) = kInf; break;
      case 4: at(0) = -kInf; break;
      case 5:
        for (std::size_t j = 0; j < len; ++j) at(j) = -kInf;
        break;
      case 6:
        for (std::size_t j = 0; j < len; ++j) at(j) = -std::fabs(at(j));
        at(0) = -0.0f;
        at(len - 1) = 0.0f;
        break;
      case 7:
        for (std::size_t j = 0; j < len; ++j) at(j) *= kSubnormal * 1024.0f;
        break;
      default: break;
    }
  }
  return s;
}

void expect_bits_eq(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(f32_bits(got[i]), f32_bits(want[i])) << what << " at " << i;
  }
}

/// A one-layer cache holding attn_keys (stored head-interleaved, as the
/// forward engine stores them) and attn_values.
AttnCache filled_attn_cache(std::size_t block_rows, std::size_t heads,
                            std::size_t dim, const std::vector<float>& keys,
                            const std::vector<float>& values) {
  const std::size_t d = heads * dim;
  AttnCache ac = attn_cache(block_rows, d);
  std::vector<float> key_row(d);
  for (std::size_t j = 0; j < kAttnMaxKeys; ++j) {
    interleave_heads({keys.data() + j * d, d}, heads, dim, key_row);
    ac.cache.store(0, j, key_row, {values.data() + j * d, d});
  }
  ac.cache.advance(kAttnMaxKeys);
  return ac;
}

std::string attn_shape(KernelTier tier, std::size_t heads, std::size_t dim,
                       std::size_t block_rows, std::size_t len) {
  return std::string(kernel_tier_name(tier)) +
         " heads=" + std::to_string(heads) + " dim=" + std::to_string(dim) +
         " block_rows=" + std::to_string(block_rows) +
         " len=" + std::to_string(len);
}

/// Q·K of the tier — a row GEMV per head over keys strided by the head
/// count — against its naive loop, over head counts, head dims, cache
/// kinds and 1-17 keys, with a clean and a NaN-carrying query.
void expect_tier_qk_exact(KernelTier tier) {
  const KernelOps& ops = kernel_ops_for(tier);
  Xoshiro256 rng(61);
  for (const std::size_t heads : kAttnHeadCounts) {
    for (const std::size_t dim : kAttnHeadDims) {
      const std::size_t d = heads * dim;
      const std::vector<float> keys = attn_keys(heads, dim, rng);
      const std::vector<float> values = attn_values(heads, dim, rng);
      std::vector<float> clean_q(d);
      fill_uniform(clean_q, rng, -2.0f, 2.0f);
      std::vector<float> nan_q = clean_q;
      nan_q[dim - 1] = kNanPayload;  // head 0's last dim
      for (const std::size_t block_rows : kAttnBlockRows) {
        const AttnCache ac =
            filled_attn_cache(block_rows, heads, dim, keys, values);
        for (std::size_t len = 1; len <= kAttnMaxKeys; ++len) {
          const std::string shape =
              attn_shape(tier, heads, dim, block_rows, len);
          for (const std::vector<float>* q : {&clean_q, &nan_q}) {
            std::vector<float> qi(d);
            interleave_heads(*q, heads, dim, qi);
            std::vector<float> s(len * heads);
            for_each_run(ac.cache, len, [&](std::size_t j, std::size_t n) {
              ops.qk_heads(qi.data(), ac.cache.key(0, j).data(), n, heads,
                           dim, s.data() + j * heads);
            });
            expect_bits_eq(s, qk_naive(*q, keys, len, heads, dim),
                           shape + " Q·K");
          }
        }
      }
    }
  }
}

/// The column softmax under the tier's exp_span against its naive loop,
/// over head counts and 1-17 keys, on hostile score blocks.
void expect_tier_softmax_columns_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);  // softmax_columns runs the active exp_span
  Xoshiro256 rng(62);
  for (const std::size_t heads : kAttnHeadCounts) {
    for (std::size_t len = 1; len <= kAttnMaxKeys; ++len) {
      for (int rep = 0; rep < 6; ++rep) {
        const std::vector<float> scores = attn_scores(len, heads, rng);
        std::vector<float> want = scores;
        softmax_columns_naive(want, len, heads);
        std::vector<float> got = scores;
        softmax_columns(got.data(), len, heads);
        expect_bits_eq(got, want,
                       std::string(kernel_tier_name(tier)) + " heads=" +
                           std::to_string(heads) + " len=" +
                           std::to_string(len) + " softmax");
      }
    }
  }
}

/// P·V of the tier — an axpy of value rows per head, zero probabilities
/// skipped — against its naive loop from +0.0f, over head counts, head
/// dims, cache kinds and 1-17 keys, on probabilities without a zero and
/// on hostile probabilities and values.
void expect_tier_pv_exact(KernelTier tier) {
  const KernelOps& ops = kernel_ops_for(tier);
  Xoshiro256 rng(63);
  for (const std::size_t heads : kAttnHeadCounts) {
    for (const std::size_t dim : kAttnHeadDims) {
      const std::size_t d = heads * dim;
      const std::vector<float> keys = attn_keys(heads, dim, rng);
      const std::vector<float> values = attn_values(heads, dim, rng);
      for (const std::size_t block_rows : kAttnBlockRows) {
        const AttnCache ac =
            filled_attn_cache(block_rows, heads, dim, keys, values);
        for (std::size_t len = 1; len <= kAttnMaxKeys; ++len) {
          const std::string shape =
              attn_shape(tier, heads, dim, block_rows, len);
          // Probabilities without a zero (nothing to skip), then hostile
          // ones.
          std::vector<float> nonzero_p(len * heads);
          fill_uniform(nonzero_p, rng, 0.25f, 1.0f);
          std::vector<float> y(d, 0.0f);
          for_each_run(ac.cache, len, [&](std::size_t j, std::size_t n) {
            ops.pv_heads(nonzero_p.data() + j * heads,
                         ac.cache.value(0, j).data(), n, heads, dim, y.data());
          });
          expect_bits_eq(y, pv_naive(nonzero_p, values, len, heads, dim),
                         shape + " P·V without zeros");
          const std::vector<float> p = attn_probs(len, heads, rng);
          std::fill(y.begin(), y.end(), 0.0f);
          for_each_run(ac.cache, len, [&](std::size_t j, std::size_t n) {
            ops.pv_heads(p.data() + j * heads, ac.cache.value(0, j).data(),
                         n, heads, dim, y.data());
          });
          expect_bits_eq(y, pv_naive(p, values, len, heads, dim),
                         shape + " P·V");
          // The zero skip: outputs no nonzero-probability poison reaches
          // stay finite although every ±0-probability cell is Inf/NaN.
          for (std::size_t h = 0; h < heads; ++h) {
            if (heads > 1 && h == 1 && len > 8) continue;  // NaN probability
            for (std::size_t c = 0; c < dim; ++c) {
              const bool poisoned = (h == 0 && c == 0) ||
                                    (h == heads - 1 && c == dim - 1);
              if (poisoned) continue;
              ASSERT_TRUE(std::isfinite(y[h * dim + c]))
                  << shape << " zero probability reached an Inf/NaN value "
                  << "at head " << h << " dim " << c;
            }
          }
        }
      }
    }
  }
}

TEST(KernelTierEquivalence, SseStridedRowGemvMatchesScalarReference) {
  expect_tier_qk_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2StridedRowGemvMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_qk_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, SseColumnSoftmaxMatchesNaiveLoop) {
  expect_tier_softmax_columns_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2ColumnSoftmaxMatchesNaiveLoop) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_softmax_columns_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, SseAxpyRowsMatchesScalarReference) {
  expect_tier_pv_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2AxpyRowsMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_pv_exact(KernelTier::kAvx2);
}

/// Records every hook dispatch in order, values as bit patterns so NaN
/// rows compare too.
class TrafficRecorder : public OutputHook {
 public:
  struct Dispatch {
    int block;
    LayerKind kind;
    std::size_t position;
    std::vector<std::uint32_t> bits;
    bool operator==(const Dispatch&) const = default;
  };

  void on_output(const HookContext& ctx, std::span<float> values) override {
    Dispatch d{ctx.site.block, ctx.site.kind, ctx.position, {}};
    for (const float f : values) d.bits.push_back(f32_bits(f));
    dispatches.push_back(std::move(d));
  }

  std::vector<Dispatch> dispatches;
};

/// A micro model whose widths leave row-group and k-block tails on every
/// tier (d_model 20, d_ff 36).
TransformerLM tail_model(ArchFamily arch) {
  ModelConfig c;
  c.arch = arch;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 20;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 36;
  c.max_seq = 16;
  if (arch == ArchFamily::kOpt) {
    c.activation = Activation::kRelu;
    c.norm = NormKind::kLayerNorm;
    c.position = PositionKind::kLearned;
    c.linear_bias = true;
  } else {
    c.activation = Activation::kSilu;
    c.norm = NormKind::kRmsNorm;
    c.position = PositionKind::kRotary;
    c.linear_bias = false;
  }
  Xoshiro256 rng(17);
  return TransformerLM(c, init_weights(c, rng));
}

/// Logits and hook traffic of six forward_position calls (four in the
/// first-token phase).
struct PositionRun {
  std::vector<std::uint32_t> logits;
  std::vector<TrafficRecorder::Dispatch> traffic;
};

PositionRun run_positions(const TransformerLM& model, const ExecConfig& exec) {
  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  TrafficRecorder recorder;
  HookChain hooks;
  const auto reg = hooks.add(recorder);
  std::vector<float> logits(model.config().vocab_size);
  PositionRun run;
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (std::size_t pos = 0; pos < 6; ++pos) {
    const int token = static_cast<int>(pos * 11 + 3) % vocab;
    model.forward_position(token, pos, cache, hooks, exec, pos < 4, ws,
                           logits);
    for (const float f : logits) run.logits.push_back(f32_bits(f));
  }
  run.traffic = std::move(recorder.dispatches);
  return run;
}

/// One model's tiles, packed once, run one row at a time under every
/// supported tier: logits and hook traffic match the SSE reference's.
TEST(KernelTierEquivalence, ForwardPositionMatchesAcrossTiers) {
  TierGuard guard;
  ThreadPool pool(2);
  for (const ArchFamily arch : {ArchFamily::kOpt, ArchFamily::kLlama}) {
    const TransformerLM model = tail_model(arch);
    for (const bool fp16 : {false, true}) {
      for (const bool chunked : {false, true}) {
        const ExecConfig exec{fp16, chunked, &pool};
        set_kernel_tier(KernelTier::kSse);
        const PositionRun ref = run_positions(model, exec);
        ASSERT_FALSE(ref.traffic.empty());
        for (const KernelTier tier : supported_kernel_tiers()) {
          SCOPED_TRACE(::testing::Message()
                       << kernel_tier_name(tier) << " arch "
                       << static_cast<int>(arch) << " fp16=" << fp16
                       << " chunked=" << chunked);
          set_kernel_tier(tier);
          const PositionRun run = run_positions(model, exec);
          EXPECT_EQ(run.logits, ref.logits);
          EXPECT_EQ(run.traffic, ref.traffic);
        }
      }
    }
  }
}

// --- Epilogue and range_restrict vs a naive oracle ------------------------

/// Collects (index, original) pairs exactly as the epilogue's event stream
/// does, for comparison against EpilogueTally::events.
class RecordingObserver final : public ClipObserver {
 public:
  void on_oob(float original, std::size_t index) override {
    events.push_back({index, original});
  }
  std::vector<EpilogueEvent> events;
};

/// Naive range restriction, one element at a time with no kernel in sight:
/// the reference range_restrict and epilogue_span must match on every
/// tier, the way ForwardOracle keeps NaiveForward for the engine.
void naive_range_restrict(std::span<float> values, const Bounds& bounds,
                          ClipPolicy policy, bool correct_nan,
                          ProtectionStats* stats, bool detect_only,
                          ClipObserver* observer) {
  if (!bounds.valid()) {
    if (correct_nan) {
      std::size_t n = 0;
      for (float& v : values) {
        if (!std::isnan(v)) continue;
        if (!detect_only) v = 0.0f;
        ++n;
      }
      stats->values_checked += values.size();
      stats->nan_corrected += n;
    }
    return;
  }
  std::size_t nan_fixed = 0;
  std::size_t oob_fixed = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    float& v = values[i];
    if (std::isnan(v)) {
      if (correct_nan) {
        if (!detect_only) v = 0.0f;
        ++nan_fixed;
      }
      continue;
    }
    if (v > bounds.hi || v < bounds.lo) {
      if (observer != nullptr) observer->on_oob(v, i);
      if (!detect_only) {
        switch (policy) {
          case ClipPolicy::kToBound:
            v = v > bounds.hi ? bounds.hi : bounds.lo;
            break;
          case ClipPolicy::kToZero:
            v = 0.0f;
            break;
          case ClipPolicy::kToTypical:
            v = bounds.typical;
            break;
        }
      }
      ++oob_fixed;
    }
  }
  stats->values_checked += values.size();
  stats->nan_corrected += nan_fixed;
  stats->oob_corrected += oob_fixed;
}

/// One adversarial input span: NaNs, infinities, values straddling the
/// bounds, and clean values, with f16-rounding sensitive magnitudes.
std::vector<float> adversarial_span(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v[i] = std::numeric_limits<float>::infinity(); break;
      case 2: v[i] = -std::numeric_limits<float>::infinity(); break;
      case 3: v[i] = rng.uniform_float(1.9f, 2.2f); break;   // near +bound
      case 4: v[i] = rng.uniform_float(-2.2f, -1.9f); break; // near -bound
      default: v[i] = rng.uniform_float(-1.5f, 1.5f); break;
    }
  }
  return v;
}

/// Values (bitwise), counts and the per-event (index, original) stream of
/// one tier's result against the oracle's.
void expect_matches_oracle(std::span<const float> got,
                           std::span<const float> expect, std::size_t nan,
                           std::size_t oob,
                           const std::vector<EpilogueEvent>& events,
                           const ProtectionStats& ref_stats,
                           const RecordingObserver& ref_events) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(f32_bits(got[i]), f32_bits(expect[i])) << "value " << i;
  }
  EXPECT_EQ(nan, ref_stats.nan_corrected);
  EXPECT_EQ(oob, ref_stats.oob_corrected);
  ASSERT_EQ(events.size(), ref_events.events.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(events[e].index, ref_events.events[e].index);
    EXPECT_EQ(f32_bits(events[e].original),
              f32_bits(ref_events.events[e].original));
  }
}

/// For every tier and every clip configuration, the quantizing
/// epilogue_span sweep and range_restrict (on pre-quantized values) must
/// reproduce quantize_f16 + the naive oracle exactly: values (bitwise),
/// counts, and the per-event (index, original) stream.
TEST(KernelTierEquivalence, EpilogueMatchesQuantizePlusRangeRestrict) {
  TierGuard guard;
  Xoshiro256 rng(11);
  const Bounds bounds{-2.0f, 2.0f, 0.25f};
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    for (bool quantize : {false, true}) {
      for (ClipPolicy policy :
           {ClipPolicy::kToBound, ClipPolicy::kToZero, ClipPolicy::kToTypical}) {
        for (bool detect_only : {false, true}) {
          for (bool correct_nan : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << kernel_tier_name(tier) << " policy="
                         << static_cast<int>(policy) << " detect_only="
                         << detect_only << " correct_nan=" << correct_nan
                         << " q=" << quantize);
            const std::vector<float> input = adversarial_span(301, rng);
            std::vector<float> quantized = input;
            if (quantize) {
              for (float& f : quantized) f = quantize_f16(f);
            }

            std::vector<float> expect = quantized;
            ProtectionStats ref_stats;
            RecordingObserver ref_events;
            naive_range_restrict(expect, bounds, policy, correct_nan,
                                 &ref_stats, detect_only, &ref_events);

            // range_restrict on the active tier.
            std::vector<float> restricted = quantized;
            ProtectionStats stats;
            RecordingObserver events;
            range_restrict(restricted, bounds, policy, correct_nan, &stats,
                           detect_only, &events);
            EXPECT_EQ(stats.values_checked, ref_stats.values_checked);
            expect_matches_oracle(restricted, expect, stats.nan_corrected,
                                  stats.oob_corrected, events.events,
                                  ref_stats, ref_events);

            // One quantize + protect epilogue_span sweep on the tier.
            KernelEpilogue epi;
            epi.quantize = quantize;
            epi.protect = KernelEpilogue::Protect::kBounds;
            epi.correct_nan = correct_nan;
            epi.detect_only = detect_only;
            epi.lo = bounds.lo;
            epi.hi = bounds.hi;
            switch (policy) {
              case ClipPolicy::kToBound:
                epi.lo_sub = bounds.lo;
                epi.hi_sub = bounds.hi;
                break;
              case ClipPolicy::kToZero:
                epi.lo_sub = epi.hi_sub = 0.0f;
                break;
              case ClipPolicy::kToTypical:
                epi.lo_sub = epi.hi_sub = bounds.typical;
                break;
            }
            epi.record_events = true;
            std::vector<float> swept = input;
            EpilogueTally tally;
            active_kernel_ops().epilogue_span(swept.data(), swept.size(),
                                              /*flat0=*/0, epi, &tally);
            expect_matches_oracle(swept, expect, tally.nan, tally.oob,
                                  tally.events, ref_stats, ref_events);
          }
        }
      }
    }
  }
}

/// kNanOnly, and range_restrict with invalid bounds, mirror the oracle's
/// NaN-only pass, counting without correcting under detect_only.
TEST(KernelTierEquivalence, NanOnlyMode) {
  TierGuard guard;
  Xoshiro256 rng(13);
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    for (bool detect_only : {false, true}) {
      SCOPED_TRACE(::testing::Message() << kernel_tier_name(tier)
                                        << " detect_only=" << detect_only);
      const std::vector<float> input = adversarial_span(97, rng);
      std::vector<float> expect = input;
      ProtectionStats ref_stats;
      const RecordingObserver no_events;
      naive_range_restrict(expect, Bounds{}, ClipPolicy::kToBound,
                           /*correct_nan=*/true, &ref_stats, detect_only,
                           nullptr);

      std::vector<float> restricted = input;
      ProtectionStats stats;
      RecordingObserver events;
      range_restrict(restricted, Bounds{}, ClipPolicy::kToBound,
                     /*correct_nan=*/true, &stats, detect_only, &events);
      EXPECT_EQ(stats.values_checked, ref_stats.values_checked);
      expect_matches_oracle(restricted, expect, stats.nan_corrected,
                            stats.oob_corrected, events.events, ref_stats,
                            no_events);

      KernelEpilogue epi;
      epi.protect = KernelEpilogue::Protect::kNanOnly;
      epi.detect_only = detect_only;
      std::vector<float> swept = input;
      EpilogueTally tally;
      active_kernel_ops().epilogue_span(swept.data(), swept.size(), 0, epi,
                                        &tally);
      expect_matches_oracle(swept, expect, tally.nan, tally.oob, tally.events,
                            ref_stats, no_events);
    }
  }
}

// --- Exponential, softmax and SiLU -----------------------------------------

/// exp_span inputs: every fp16 value as a float, a strided sweep of all
/// float bit patterns, signed zeros and infinities, NaN payloads of both
/// signs (quiet and signalling), subnormals, and every threshold of
/// expf_ref's special path with its neighbouring floats.
std::vector<float> exp_inputs() {
  std::vector<float> in;
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    in.push_back(f16::from_bits(static_cast<std::uint16_t>(h)).to_float());
  }
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 65521) {
    in.push_back(f32_from_bits(static_cast<std::uint32_t>(b)));
  }
  for (const std::uint32_t bits :
       {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
        0xffc00000u, 0x7fc01234u, 0xffc54321u, 0x7f800001u, 0xff800001u,
        0x7fbfffffu, 0xffbfffffu, 0x00000001u, 0x80000001u, 0x007fffffu,
        0x807fffffu, 0x00400000u, 0x80400000u}) {
    in.push_back(f32_from_bits(bits));
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float t : {88.0f, -88.0f, 0x1.62e42ep6f, -0x1.9fe368p6f}) {
    float lo = t, hi = t;
    for (int i = 0; i < 4; ++i) {
      in.push_back(lo);
      in.push_back(hi);
      lo = std::nextafter(lo, -inf);
      hi = std::nextafter(hi, inf);
    }
  }
  return in;
}

void expect_tier_exp_span_exact(KernelTier tier) {
  const KernelOps& ops = kernel_ops_for(tier);
  const std::vector<float> in = exp_inputs();
  std::vector<float> out(in.size());
  ops.exp_span(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(f32_bits(out[i]), f32_bits(detail::expf_ref(in[i])))
        << kernel_tier_name(tier) << " exp of bits 0x" << std::hex
        << f32_bits(in[i]);
  }
  // Every span length 0..17, out of place and in place, at offsets that
  // put specials in and out of the 8-lane groups; a guard float after the
  // span must stay untouched.
  const float guard = 12345.0f;
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::size_t at = in.size() - 64; at + n <= in.size(); at += 7) {
      std::vector<float> x(in.begin() + static_cast<std::ptrdiff_t>(at),
                           in.begin() + static_cast<std::ptrdiff_t>(at + n));
      std::vector<float> y(n + 1, guard), z = x;
      z.push_back(guard);
      ops.exp_span(x.data(), y.data(), n);
      ops.exp_span(z.data(), z.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t want = f32_bits(detail::expf_ref(x[i]));
        ASSERT_EQ(f32_bits(y[i]), want) << "n=" << n << " i=" << i;
        ASSERT_EQ(f32_bits(z[i]), want) << "in place, n=" << n << " i=" << i;
      }
      ASSERT_EQ(y[n], guard);
      ASSERT_EQ(z[n], guard);
    }
  }
}

TEST(KernelTierEquivalence, SseExpSpanMatchesReference) {
  expect_tier_exp_span_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2ExpSpanMatchesReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_exp_span_exact(KernelTier::kAvx2);
}

/// The softmax contract, one row at a time: running std::max from the
/// first element, expf_ref(x - max), an ascending float sum, and a
/// division only when that sum is positive.
void softmax_rows_naive(std::vector<float>& v, std::size_t m, std::size_t n) {
  for (std::size_t h = 0; h < m; ++h) {
    float* row = v.data() + h * n;
    float mx = row[0];
    for (std::size_t j = 0; j < n; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = detail::expf_ref(row[j] - mx);
      sum += row[j];
    }
    if (sum > 0.0f) {
      for (std::size_t j = 0; j < n; ++j) row[j] /= sum;
    }
  }
}

/// SiLU's contract: x * sigmoid(x), and sigmoid's own NaN for a NaN x.
float silu_naive(float x) {
  const float s = 1.0f / (1.0f + detail::expf_ref(-x));
  return std::isnan(x) ? s : x * s;
}

void expect_tier_softmax_silu_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Xoshiro256 rng(2027);
  for (std::size_t m = 1; m <= 9; ++m) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{9},
                                std::size_t{33}, std::size_t{200}}) {
      std::vector<float> v(m * n);
      fill_uniform(v, rng, -12.0f, 12.0f);
      // Row h gets case h % 7: plain, NaN first, NaN later, +inf, -inf,
      // all -inf (NaN sum, no divide), a +-0 maximum.
      for (std::size_t h = 0; h < m; ++h) {
        float* row = v.data() + h * n;
        switch (h % 7) {
          case 1: row[0] = nan; break;
          case 2: row[n - 1] = nan; break;
          case 3: row[n / 2] = inf; break;
          case 4: row[0] = -inf; break;
          case 5: std::fill(row, row + n, -inf); break;
          case 6:
            for (std::size_t j = 0; j < n; ++j) row[j] = -std::fabs(row[j]);
            row[0] = -0.0f;
            row[n - 1] = 0.0f;
            break;
          default: break;
        }
      }
      std::vector<float> want = v;
      softmax_rows_naive(want, m, n);
      // The rows as the columns of an [n][m] block.
      std::vector<float> got(m * n);
      for (std::size_t h = 0; h < m; ++h) {
        for (std::size_t j = 0; j < n; ++j) got[j * m + h] = v[h * n + j];
      }
      softmax_columns(got.data(), n, m);
      for (std::size_t h = 0; h < m; ++h) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(f32_bits(got[j * m + h]), f32_bits(want[h * n + j]))
              << kernel_tier_name(tier) << " softmax_columns m=" << m
              << " n=" << n << " row " << h << " col " << j;
        }
      }
      // softmax of each row alone is the same function.
      std::vector<float> single = v;
      for (std::size_t h = 0; h < m; ++h) {
        softmax(std::span<float>(single.data() + h * n, n));
      }
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(f32_bits(single[i]), f32_bits(want[i])) << "softmax at " << i;
      }
    }
  }

  std::vector<float> x;
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    x.push_back(f16::from_bits(static_cast<std::uint16_t>(h)).to_float());
  }
  for (const float f : {inf, -inf, nan, -nan, 0.0f, -0.0f, 88.0f, -88.0f,
                        0x1.62e42ep6f, -0x1.62e42ep6f, 0x1.9fe368p6f,
                        -0x1.9fe368p6f, f32_from_bits(0x7fc01234u),
                        f32_from_bits(0x00000001u)}) {
    x.push_back(f);
  }
  std::vector<float> got = x;
  silu(got);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::uint32_t want = f32_bits(silu_naive(x[i]));
    ASSERT_EQ(f32_bits(got[i]), want)
        << kernel_tier_name(tier) << " silu of bits 0x" << std::hex
        << f32_bits(x[i]);
    ASSERT_EQ(f32_bits(silu_scalar(x[i])), want) << "silu_scalar";
  }
}

TEST(KernelTierEquivalence, SseSoftmaxRowsAndSiluMatchScalar) {
  expect_tier_softmax_silu_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2SoftmaxRowsAndSiluMatchScalar) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_softmax_silu_exact(KernelTier::kAvx2);
}

// --- Dispatch plumbing ------------------------------------------------------

TEST(KernelDispatch, ExpRefGoldenValues) {
  // Host-independent values of glibc's algorithm. The first two are the
  // inputs where a build without the four fused steps rounds differently.
  EXPECT_EQ(f32_bits(detail::expf_ref(f32_from_bits(0x4202422fu))),
            0x56fc9f1cu);
  EXPECT_EQ(f32_bits(detail::expf_ref(f32_from_bits(0xc27c65d9u))),
            0x11fa2993u);
  EXPECT_EQ(f32_bits(detail::expf_ref(0.0f)), f32_bits(1.0f));
  EXPECT_EQ(f32_bits(detail::expf_ref(-std::numeric_limits<float>::infinity())),
            0u);
}

TEST(KernelDispatch, TierNamesRoundTrip) {
  EXPECT_EQ(parse_kernel_tier("sse"), KernelTier::kSse);
  EXPECT_EQ(parse_kernel_tier("avx2"), KernelTier::kAvx2);
  EXPECT_FALSE(parse_kernel_tier("avx512").has_value());
  EXPECT_FALSE(parse_kernel_tier("avx1024").has_value());
  for (KernelTier t : supported_kernel_tiers()) {
    EXPECT_EQ(parse_kernel_tier(kernel_tier_name(t)), t);
  }
}

TEST(KernelDispatch, SseAlwaysSupported) {
  EXPECT_TRUE(kernel_tier_compiled(KernelTier::kSse));
  EXPECT_TRUE(kernel_tier_supported(KernelTier::kSse));
  EXPECT_FALSE(supported_kernel_tiers().empty());
}

TEST(KernelDispatch, SetTierNameSwitchesAndAutoRestores) {
  TierGuard guard;
  set_kernel_tier_name("sse");
  EXPECT_EQ(active_kernel_tier(), KernelTier::kSse);
  set_kernel_tier_name("auto");
  // auto re-probes to the widest supported tier.
  EXPECT_EQ(active_kernel_tier(), supported_kernel_tiers().back());
  EXPECT_THROW(set_kernel_tier_name("bogus"), Error);
  EXPECT_THROW(set_kernel_tier_name("avx512"), Error);
}

}  // namespace
}  // namespace ft2
