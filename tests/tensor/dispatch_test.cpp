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
/// separate mul and add. Every tier must reproduce this bit for bit.
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

/// Runs the GEMM on `tier` over shapes with full tiles, a partial last
/// tile and k tails, demanding bit-equality with the scalar reference, in
/// both reduction modes.
void expect_tier_gemm_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  ThreadPool pool(2);
  Xoshiro256 rng(42);
  const struct {
    std::size_t n, k;
  } shapes[] = {{48, 33}, {64, 64}, {100, 17}, {257, 96}};
  for (const auto& shape : shapes) {
    for (std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      Tensor x({rows, shape.k}), w({shape.n, shape.k});
      Tensor y({rows, shape.n}), y_ref({rows, shape.n});
      std::vector<float> bias(shape.n);
      fill_uniform(x.span(), rng, -2.0f, 2.0f);
      fill_uniform(w.span(), rng, -1.0f, 1.0f);
      fill_uniform(bias, rng, -0.5f, 0.5f);
      gemm_scalar_ref(x, rows, w, bias, y_ref);

      linear_forward_span(x, rows, w, bias, y, /*chunked_accum=*/false, pool);
      for (std::size_t i = 0; i < y_ref.numel(); ++i) {
        ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
            << kernel_tier_name(tier) << " span mismatch at " << i << " (n="
            << shape.n << " k=" << shape.k << " rows=" << rows << ")";
      }

      // The same weights in chunked-accumulation mode.
      const PackedLinear pl(w, bias);
      chunked_scalar_ref(x, rows, w, bias, y_ref);
      linear_forward_span_packed(x, rows, pl, y, pool, /*chunked_accum=*/true);
      for (std::size_t i = 0; i < y_ref.numel(); ++i) {
        ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
            << kernel_tier_name(tier) << " chunked mismatch at " << i;
      }
    }
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

TEST(KernelTierEquivalence, SseQuantizeMatchesScalar) {
  expect_tier_quantize_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2QuantizeMatchesScalar) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_quantize_bit_exact(KernelTier::kAvx2);
}

// --- Row GEMV on row-major weights -----------------------------------------

/// One input row per special-value case. Each row holds at most one source
/// of NaN (a NaN entry, or +Inf meeting -Inf), so every NaN's payload is
/// fixed by a single operation and bit comparison stays well defined.
std::vector<std::vector<float>> row_gemv_inputs(std::size_t k,
                                                Xoshiro256& rng) {
  std::vector<float> base(k);
  fill_uniform(base, rng, -2.0f, 2.0f);
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> rows(6, base);
  rows[1][k / 2] = f32_from_bits(0x7FC01234u);  // quiet NaN with payload
  rows[2][k - 1] = inf;
  rows[3][0] = -inf;
  rows[4][0] = inf;  // +Inf then -Inf: the chain turns NaN mid-row
  rows[4][k - 1] = k > 1 ? -inf : inf;
  for (std::size_t i = 0; i < k; ++i) {
    // Subnormal inputs: products and partial sums stay in the
    // gradual-underflow range.
    rows[5][i] = base[i] * std::numeric_limits<float>::denorm_min() * 4096.0f;
  }
  return rows;
}

/// The tier's row GEMV over shapes with n and k tails for the 8-row group,
/// the 16-row pass and the 8-wide k block, n < 8 and k < 8
/// included, with an empty and a non-empty bias. Demands bit-equality with
/// the scalar reference.
void expect_tier_row_gemv_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  const KernelOps& ops = kernel_ops_for(tier);
  Xoshiro256 rng(43);
  const struct {
    std::size_t n, k;
  } shapes[] = {{1, 1},   {3, 5},   {7, 8},     {8, 7},     {9, 16},
                {16, 3},  {17, 9},  {31, 24},   {32, 33},   {33, 64},
                {48, 17}, {63, 40}, {221, 128}, {128, 384}};
  for (const auto& shape : shapes) {
    Tensor w({shape.n, shape.k});
    std::vector<float> bias(shape.n);
    fill_uniform(w.span(), rng, -1.0f, 1.0f);
    fill_uniform(bias, rng, -0.5f, 0.5f);
    const auto inputs = row_gemv_inputs(shape.k, rng);
    for (std::size_t v = 0; v < inputs.size(); ++v) {
      Tensor x({1, shape.k});
      std::copy(inputs[v].begin(), inputs[v].end(), x.span().begin());
      for (const bool with_bias : {false, true}) {
        const std::span<const float> b = with_bias
                                             ? std::span<const float>(bias)
                                             : std::span<const float>{};
        Tensor y_ref({1, shape.n});
        gemm_scalar_ref(x, 1, w, b, y_ref);
        std::vector<float> y(shape.n);
        ops.gemv_row(x.data(), w.data(), shape.k, shape.n, shape.k,
                     with_bias ? bias.data() : nullptr, y.data());
        for (std::size_t o = 0; o < shape.n; ++o) {
          ASSERT_EQ(f32_bits(y[o]), f32_bits(y_ref[o]))
              << kernel_tier_name(tier) << " row gemv mismatch at " << o
              << " (n=" << shape.n << " k=" << shape.k << " input " << v
              << " bias=" << with_bias << ")";
        }
      }
    }
  }
}

TEST(KernelTierEquivalence, SseRowGemvMatchesScalarReference) {
  expect_tier_row_gemv_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2RowGemvMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_row_gemv_bit_exact(KernelTier::kAvx2);
}

// --- Attention kernels: strided row GEMV (Q·K) and axpy_rows (P·V) -------

const float kInf = std::numeric_limits<float>::infinity();
const float kNanPayload = f32_from_bits(0x7FC01234u);

/// A row-major [n, ldw] matrix whose padding columns [k, ldw) hold NaN: a
/// kernel that reads past k poisons its outputs.
std::vector<float> strided_rows(std::size_t n, std::size_t k, std::size_t ldw,
                                Xoshiro256& rng) {
  std::vector<float> w(n * ldw, std::numeric_limits<float>::quiet_NaN());
  for (std::size_t o = 0; o < n; ++o) {
    fill_uniform({w.data() + o * ldw, k}, rng, -1.0f, 1.0f);
  }
  return w;
}

/// The chain gemv_row documents, over rows `ldw` floats apart.
std::vector<float> strided_gemv_ref(const std::vector<float>& x,
                                    const std::vector<float>& w,
                                    std::size_t ldw, std::size_t n,
                                    std::size_t k, const float* bias) {
  std::vector<float> y(n);
  for (std::size_t o = 0; o < n; ++o) {
    float acc = bias == nullptr ? 0.0f : bias[o];
    for (std::size_t i = 0; i < k; ++i) acc += w[o * ldw + i] * x[i];
    y[o] = acc;
  }
  return y;
}

/// The tier's row GEMV with a row stride ldw > k, the shape attention runs
/// it in (one head's slice of a run of cached keys). Special values go into
/// x (clean rows) and into the rows (clean x) in turn, so every output has
/// at most one NaN source and bit comparison stays well defined.
void expect_tier_strided_gemv_bit_exact(KernelTier tier) {
  const KernelOps& ops = kernel_ops_for(tier);
  Xoshiro256 rng(47);
  for (const std::size_t n : {1, 7, 8, 9, 17}) {
    for (const std::size_t k : {1, 7, 8, 10, 16}) {
      for (const std::size_t ldw : {k + 1, k + 6, 4 * k + 3}) {
        std::vector<float> bias(n);
        fill_uniform(bias, rng, -0.5f, 0.5f);
        const std::vector<float> clean_w = strided_rows(n, k, ldw, rng);
        // Rows with specials: row o carries case o % 6 of row_gemv_inputs
        // (clean, NaN payload, +Inf, -Inf, +Inf meeting -Inf, subnormal).
        std::vector<float> special_w = clean_w;
        const auto special_rows = row_gemv_inputs(k, rng);
        for (std::size_t o = 0; o < n; ++o) {
          const std::vector<float>& row = special_rows[o % 6];
          std::copy(row.begin(), row.end(), special_w.begin() + o * ldw);
        }
        std::vector<float> clean_x(k);
        fill_uniform(clean_x, rng, -2.0f, 2.0f);
        std::vector<std::pair<std::vector<float>, const std::vector<float>*>>
            cases;
        for (const auto& x : row_gemv_inputs(k, rng)) {
          cases.emplace_back(x, &clean_w);
        }
        cases.emplace_back(clean_x, &special_w);
        for (std::size_t c = 0; c < cases.size(); ++c) {
          const std::vector<float>& x = cases[c].first;
          const std::vector<float>& w = *cases[c].second;
          for (const float* b : {static_cast<const float*>(nullptr),
                                 static_cast<const float*>(bias.data())}) {
            const std::vector<float> want =
                strided_gemv_ref(x, w, ldw, n, k, b);
            std::vector<float> got(n);
            ops.gemv_row(x.data(), w.data(), ldw, n, k, b, got.data());
            for (std::size_t o = 0; o < n; ++o) {
              ASSERT_EQ(f32_bits(got[o]), f32_bits(want[o]))
                  << kernel_tier_name(tier) << " strided gemv mismatch at "
                  << o << " (n=" << n << " k=" << k << " ldw=" << ldw
                  << " case " << c << " bias=" << (b != nullptr) << ")";
            }
          }
        }
      }
    }
  }
}

TEST(KernelTierEquivalence, SseStridedRowGemvMatchesScalarReference) {
  expect_tier_strided_gemv_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2StridedRowGemvMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_strided_gemv_bit_exact(KernelTier::kAvx2);
}

/// The chain axpy_rows documents: y[i] += p[j] * v[j][i], ascending j,
/// zero p[j] skipped.
void axpy_rows_ref(const std::vector<float>& p, const std::vector<float>& v,
                   std::size_t ldv, std::size_t k, std::vector<float>& y) {
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (p[j] == 0.0f) continue;
    for (std::size_t i = 0; i < k; ++i) y[i] += p[j] * v[j * ldv + i];
  }
}

/// One P·V case: probabilities with +0 and -0 entries whose value rows are
/// all Inf/NaN (only the zero skip keeps them out), rows with nonzero
/// probability carrying one +Inf, a -Inf meeting it in the same column,
/// a NaN payload in another column and subnormals, and a y that already
/// holds partial sums.
struct AxpyCase {
  std::vector<float> p, v, y;
};

AxpyCase axpy_case(std::size_t n, std::size_t k, std::size_t ldv,
                   Xoshiro256& rng) {
  AxpyCase c;
  c.p.resize(n);
  fill_uniform(c.p, rng, 0.0f, 1.0f);
  c.v = strided_rows(n, k, ldv, rng);
  c.y.resize(k);
  fill_uniform(c.y, rng, -1.0f, 1.0f);
  for (std::size_t j = 0; j < n; ++j) {
    float* row = c.v.data() + j * ldv;
    switch (j % 5) {
      case 1:  // +0 probability against a row of infinities and NaNs
      case 3:  // -0 probability, same
        c.p[j] = j % 5 == 1 ? 0.0f : -0.0f;
        for (std::size_t i = 0; i < k; ++i) {
          row[i] = i % 3 == 0 ? kInf : i % 3 == 1 ? -kInf : kNanPayload;
        }
        break;
      case 4:  // subnormal values and a subnormal probability
        for (std::size_t i = 0; i < k; ++i) {
          row[i] *= std::numeric_limits<float>::denorm_min() * 64.0f;
        }
        if (j == 4) c.p[j] = std::numeric_limits<float>::denorm_min();
        break;
      default:
        break;
    }
  }
  // Nonzero-probability rows 0, 2 (and 5, 7 when present): column 0 sees
  // +Inf then -Inf, column k - 1 a NaN payload (k > 1 keeps them apart).
  if (k > 1) {
    c.v[0] = kInf;
    if (n > 2) c.v[2 * ldv] = -kInf;
    if (n > 5) c.v[5 * ldv + k - 1] = kNanPayload;
  }
  return c;
}

/// The tier's axpy_rows against the scalar chain, over run lengths and
/// widths with 16-, 8- and scalar-column tails, with a row stride ldv > k
/// (NaN padding past k); splitting a run into two calls must not change a
/// bit either, since attention calls it once per contiguous cache run.
void expect_tier_axpy_rows_bit_exact(KernelTier tier) {
  const KernelOps& ops = kernel_ops_for(tier);
  Xoshiro256 rng(53);
  for (const std::size_t n : {1, 2, 4, 7, 9, 17}) {
    for (const std::size_t k : {1, 7, 8, 10, 16, 17, 33}) {
      const std::size_t ldv = k + 5;
      const AxpyCase c = axpy_case(n, k, ldv, rng);
      std::vector<float> want = c.y;
      axpy_rows_ref(c.p, c.v, ldv, k, want);
      std::vector<float> got = c.y;
      ops.axpy_rows(c.p.data(), c.v.data(), ldv, n, k, got.data());
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(f32_bits(got[i]), f32_bits(want[i]))
            << kernel_tier_name(tier) << " axpy_rows mismatch at " << i
            << " (n=" << n << " k=" << k << ")";
      }
      // The zero skip: columns no nonzero-probability row poisons stay
      // finite although every zero-probability row is Inf/NaN.
      for (std::size_t i = 1; i + 1 < k; ++i) {
        ASSERT_TRUE(std::isfinite(got[i]))
            << kernel_tier_name(tier) << " zero probability reached an "
            << "Inf/NaN value at column " << i << " (n=" << n << " k=" << k
            << ")";
      }
      for (std::size_t split = 0; split <= n; ++split) {
        std::vector<float> two = c.y;
        ops.axpy_rows(c.p.data(), c.v.data(), ldv, split, k, two.data());
        ops.axpy_rows(c.p.data() + split, c.v.data() + split * ldv, ldv,
                      n - split, k, two.data());
        for (std::size_t i = 0; i < k; ++i) {
          ASSERT_EQ(f32_bits(two[i]), f32_bits(got[i]))
              << kernel_tier_name(tier) << " axpy_rows split at " << split
              << " differs at " << i << " (n=" << n << " k=" << k << ")";
        }
      }
    }
  }
}

TEST(KernelTierEquivalence, SseAxpyRowsMatchesScalarReference) {
  expect_tier_axpy_rows_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2AxpyRowsMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_axpy_rows_bit_exact(KernelTier::kAvx2);
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
      std::vector<float> got = v;
      softmax_rows(got.data(), m, n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(f32_bits(got[i]), f32_bits(want[i]))
            << kernel_tier_name(tier) << " softmax_rows m=" << m
            << " n=" << n << " at " << i;
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
