#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/thread_pool.hpp"
#include "numeric/f16.hpp"

namespace ft2 {

namespace {

/// The chunked-accumulation chain over one tile for one input row: per
/// column, eight k-strided partial sums (partial l takes the inputs
/// i = l mod 8 of the full 8-wide k blocks), the k tail accumulated onto
/// the bias, then a pairwise reduction of the partials. Columns are the
/// innermost loop, so each column keeps its own chain.
void chunked_tile_row(const float* x, const float* wt, std::size_t k,
                      const float* bias_padded, float* y, std::size_t width) {
  float part[8][kTileCols] = {};
  std::size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float xi = x[i + l];
      const float* wr = wt + (i + l) * kTileCols;
      for (std::size_t j = 0; j < kTileCols; ++j) part[l][j] += wr[j] * xi;
    }
  }
  float acc[kTileCols];
  std::copy_n(bias_padded, kTileCols, acc);
  for (; i < k; ++i) {
    const float* wr = wt + i * kTileCols;
    for (std::size_t j = 0; j < kTileCols; ++j) acc[j] += wr[j] * x[i];
  }
  for (std::size_t j = 0; j < width; ++j) {
    const float p0 = (part[0][j] + part[4][j]) + (part[2][j] + part[6][j]);
    const float p1 = (part[1][j] + part[5][j]) + (part[3][j] + part[7][j]);
    y[j] = acc[j] + p0 + p1;
  }
}

}  // namespace

std::size_t pool_task_count(std::size_t macs, std::size_t pieces) {
  // Multiply-adds below which a task costs less than handing it to a pool
  // worker (~10 us of kernel time).
  constexpr std::size_t kMinTaskMacs = std::size_t{1} << 17;
  return std::clamp<std::size_t>(macs / kMinTaskMacs, 1,
                                 std::max<std::size_t>(pieces, 1));
}

PackedLinear::PackedLinear(const Tensor& w, std::span<const float> bias_in)
    : n(w.dim(0)), k(w.dim(1)), has_bias(!bias_in.empty()) {
  FT2_CHECK(w.rank() == 2);
  FT2_CHECK(bias_in.empty() || bias_in.size() == n);
  const std::size_t groups = (n + kTileCols - 1) / kTileCols;
  tiles.assign(groups * k * kTileCols, 0.0f);
  bias.assign(groups * kTileCols, 0.0f);
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t i = 0; i < k; ++i) at(o, i) = w.at(o, i);
  }
  std::copy(bias_in.begin(), bias_in.end(), bias.begin());
}

Tensor PackedLinear::unpack_weight() const {
  Tensor w({n, k});
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t i = 0; i < k; ++i) w.at(o, i) = at(o, i);
  }
  return w;
}

Tensor PackedLinear::unpack_bias() const {
  Tensor b({n});
  std::copy_n(bias.data(), n, b.data());
  return b;
}

void linear_forward_span_packed(const Tensor& x, std::size_t rows,
                                const PackedLinear& pl, Tensor& y,
                                ThreadPool& pool, bool chunked_accum) {
  FT2_CHECK(x.rank() == 2 && y.rank() == 2);
  FT2_CHECK(rows <= x.dim(0) && rows <= y.dim(0));
  FT2_CHECK_MSG(x.dim(1) == pl.k && y.dim(1) == pl.n,
                "linear_forward_span_packed: x cols " << x.dim(1) << " w ["
                    << pl.n << "," << pl.k << "] y cols " << y.dim(1));
  if (rows == 0) return;
  const auto kernel =
      chunked_accum ? &detail::kouter_rows_of<&chunked_tile_row>
                    : active_kernel_ops().kouter_rows;
  const std::size_t groups = (pl.n + kTileCols - 1) / kTileCols;
  // Fan out only as far as every task keeps enough work to pay for its
  // dispatch: a one-row decode GEMM runs inline. Which task runs a tile
  // never changes a result.
  const std::size_t tasks = pool_task_count(rows * pl.n * pl.k, groups);
  pool.parallel_for(0, tasks, [&](std::size_t t) {
    for (std::size_t g = t * groups / tasks; g < (t + 1) * groups / tasks;
         ++g) {
      const std::size_t o_lo = g * kTileCols;
      const std::size_t width = std::min(kTileCols, pl.n - o_lo);
      kernel(x.data(), pl.k, rows, pl.tiles.data() + g * pl.k * kTileCols,
             pl.k, pl.bias.data() + o_lo, y.data() + o_lo, pl.n, width);
    }
  });
}

void linear_forward_span(const Tensor& x, std::size_t rows, const Tensor& w,
                         std::span<const float> bias, Tensor& y,
                         bool chunked_accum, ThreadPool& pool) {
  linear_forward_span_packed(x, rows, PackedLinear(w, bias), y, pool,
                             chunked_accum);
}

namespace {

// Column passes of softmax_columns. Each column of the [n][m] block keeps
// its own chains over ascending rows; the SSE forms put 4 columns side by
// side in a register (8 in two), which leaves every chain as it is:
// _mm_max_ps(x, mx) is (x > mx ? x : mx), the std::max(mx, x) of the
// scalar form, NaN and signed zeros included.

/// Subtracts the running max of one column (std::max from row 0).
void column_max_sub(float* v, std::size_t n, std::size_t m) {
  float mx = v[0];
  for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, v[j * m]);
  for (std::size_t j = 0; j < n; ++j) v[j * m] -= mx;
}

/// Divides one column by its ascending sum from 0.0f, when that sum is
/// positive.
void column_normalize(float* v, std::size_t n, std::size_t m) {
  float sum = 0.0f;
  for (std::size_t j = 0; j < n; ++j) sum += v[j * m];
  if (!(sum > 0.0f)) return;
  for (std::size_t j = 0; j < n; ++j) v[j * m] /= sum;
}

#if defined(__SSE2__)
/// column_max_sub of 4 * kRegs adjacent columns.
template <std::size_t kRegs>
void columns_max_sub(float* v, std::size_t n, std::size_t m) {
  __m128 mx[kRegs];
  for (std::size_t b = 0; b < kRegs; ++b) mx[b] = _mm_loadu_ps(v + 4 * b);
  for (std::size_t j = 1; j < n; ++j) {
    for (std::size_t b = 0; b < kRegs; ++b) {
      mx[b] = _mm_max_ps(_mm_loadu_ps(v + j * m + 4 * b), mx[b]);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t b = 0; b < kRegs; ++b) {
      float* x = v + j * m + 4 * b;
      _mm_storeu_ps(x, _mm_sub_ps(_mm_loadu_ps(x), mx[b]));
    }
  }
}

/// column_normalize of 4 * kRegs adjacent columns. A column whose sum is
/// not positive divides by 1.0f instead, which leaves every value an
/// exponential produces (never a signalling NaN) as it is.
template <std::size_t kRegs>
void columns_normalize(float* v, std::size_t n, std::size_t m) {
  __m128 sum[kRegs];
  for (std::size_t b = 0; b < kRegs; ++b) sum[b] = _mm_setzero_ps();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t b = 0; b < kRegs; ++b) {
      sum[b] = _mm_add_ps(sum[b], _mm_loadu_ps(v + j * m + 4 * b));
    }
  }
  for (std::size_t b = 0; b < kRegs; ++b) {
    const __m128 positive = _mm_cmpgt_ps(sum[b], _mm_setzero_ps());
    sum[b] = _mm_or_ps(_mm_and_ps(positive, sum[b]),
                       _mm_andnot_ps(positive, _mm_set1_ps(1.0f)));
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t b = 0; b < kRegs; ++b) {
      float* x = v + j * m + 4 * b;
      _mm_storeu_ps(x, _mm_div_ps(_mm_loadu_ps(x), sum[b]));
    }
  }
}
#endif

}  // namespace

void softmax_columns(float* v, std::size_t n, std::size_t m) {
  if (n == 0) return;
  std::size_t h = 0;
#if defined(__SSE2__)
  for (; h + 8 <= m; h += 8) columns_max_sub<2>(v + h, n, m);
  if (h + 4 <= m) {
    columns_max_sub<1>(v + h, n, m);
    h += 4;
  }
#endif
  for (; h < m; ++h) column_max_sub(v + h, n, m);
  // If a column holds NaN/inf only, the standard stable softmax still
  // runs; NaNs propagate, which is the faithful FP behaviour under
  // injection.
  active_kernel_ops().exp_span(v, v, n * m);
  h = 0;
#if defined(__SSE2__)
  for (; h + 8 <= m; h += 8) columns_normalize<2>(v + h, n, m);
  if (h + 4 <= m) {
    columns_normalize<1>(v + h, n, m);
    h += 4;
  }
#endif
  for (; h < m; ++h) column_normalize(v + h, n, m);
}

void softmax(std::span<float> v) { softmax_columns(v.data(), v.size(), 1); }

void layernorm_row(std::span<const float> in, std::span<const float> gamma,
                   std::span<const float> beta, float eps,
                   std::span<float> out) {
  const std::size_t d = in.size();
  float mean = 0.0f;
  for (float f : in) mean += f;
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (float f : in) var += (f - mean) * (f - mean);
  var /= static_cast<float>(d);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::size_t i = 0; i < d; ++i) {
    out[i] = (in[i] - mean) * inv * gamma[i] + beta[i];
  }
}

void layernorm_rows(const Tensor& x, std::span<const float> gamma,
                    std::span<const float> beta, float eps, Tensor& y) {
  FT2_CHECK(x.rank() == 2);
  const std::size_t d = x.dim(1);
  FT2_CHECK(gamma.size() == d && beta.size() == d);
  if (!y.same_shape(x)) y = Tensor(x.shape());
  for (std::size_t r = 0; r < x.dim(0); ++r) {
    layernorm_row(x.row(r), gamma, beta, eps, y.row(r));
  }
}

void rmsnorm_row(std::span<const float> in, std::span<const float> gamma,
                 float eps, std::span<float> out) {
  const std::size_t d = in.size();
  float ms = 0.0f;
  for (float f : in) ms += f * f;
  ms /= static_cast<float>(d);
  const float inv = 1.0f / std::sqrt(ms + eps);
  for (std::size_t i = 0; i < d; ++i) out[i] = in[i] * inv * gamma[i];
}

void rmsnorm_rows(const Tensor& x, std::span<const float> gamma, float eps,
                  Tensor& y) {
  FT2_CHECK(x.rank() == 2);
  const std::size_t d = x.dim(1);
  FT2_CHECK(gamma.size() == d);
  if (!y.same_shape(x)) y = Tensor(x.shape());
  for (std::size_t r = 0; r < x.dim(0); ++r) {
    rmsnorm_row(x.row(r), gamma, eps, y.row(r));
  }
}

float sigmoid_scalar(float x) {
  return 1.0f / (1.0f + detail::expf_ref(-x));
}

float gelu_scalar(float x) {
  // GPT-2/J tanh approximation.
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
}

float silu_scalar(float x) {
  // A NaN x meets sigmoid's NaN (x quieted, sign flipped) in the product;
  // which of two NaN operands a multiply returns depends on how it was
  // compiled, so the NaN case names its result.
  const float s = sigmoid_scalar(x);
  return std::isnan(x) ? s : x * s;
}

void relu(std::span<float> v) {
  for (float& f : v) f = std::max(f, 0.0f);
}

void gelu(std::span<float> v) {
  for (float& f : v) f = gelu_scalar(f);
}

void silu(std::span<float> v) {
  // silu_scalar's expression, with the exponentials of a chunk in one
  // exp_span call.
  const auto exp_span = active_kernel_ops().exp_span;
  constexpr std::size_t kChunk = 256;
  float e[kChunk];
  for (std::size_t i0 = 0; i0 < v.size(); i0 += kChunk) {
    const std::size_t n = std::min(kChunk, v.size() - i0);
    float* x = v.data() + i0;
    for (std::size_t i = 0; i < n; ++i) e[i] = -x[i];
    exp_span(e, e, n);
    for (std::size_t i = 0; i < n; ++i) {
      const float s = 1.0f / (1.0f + e[i]);
      x[i] = std::isnan(x[i]) ? s : x[i] * s;
    }
  }
}

void rope_apply(std::span<float> qk, std::size_t n_heads, std::size_t head_dim,
                std::size_t pos, float theta) {
  FT2_ASSERT(qk.size() == n_heads * head_dim);
  FT2_ASSERT(head_dim % 2 == 0);
  const std::size_t half = head_dim / 2;
  // Frequency-outer: each (cos, sin) pair is evaluated once and applied to
  // every head. Every element is still rotated by the same float
  // expressions, so the result does not depend on the loop order.
  for (std::size_t i = 0; i < half; ++i) {
    const float freq = std::pow(
        theta, -static_cast<float>(2 * i) / static_cast<float>(head_dim));
    const float angle = static_cast<float>(pos) * freq;
    const float c = std::cos(angle);
    const float s = std::sin(angle);
    for (std::size_t h = 0; h < n_heads; ++h) {
      float* head = qk.data() + h * head_dim;
      const float a = head[i];
      const float b = head[i + half];
      head[i] = a * c - b * s;
      head[i + half] = a * s + b * c;
    }
  }
}

void interleave_heads(std::span<const float> in, std::size_t n_heads,
                      std::size_t head_dim, std::span<float> out) {
  FT2_ASSERT(in.size() == n_heads * head_dim && out.size() == in.size());
  for (std::size_t h = 0; h < n_heads; ++h) {
    for (std::size_t i = 0; i < head_dim; ++i) {
      out[i * n_heads + h] = in[h * head_dim + i];
    }
  }
}

void add_inplace(std::span<float> a, std::span<const float> b) {
  FT2_ASSERT(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void mul_inplace(std::span<float> a, std::span<const float> b) {
  FT2_ASSERT(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= b[i];
}

void quantize_span_f16(std::span<float> v) {
  static constexpr KernelEpilogue kQuantizeOnly{.quantize = true};
  active_kernel_ops().epilogue_span(v.data(), v.size(), 0, kQuantizeOnly,
                                    nullptr);
}

void quantize_tensor_f16(Tensor& t) { quantize_span_f16(t.span()); }

std::size_t argmax(std::span<const float> v) {
  FT2_ASSERT(!v.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace ft2
