#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "numeric/f16.hpp"

namespace ft2 {

void linear_forward_row(std::span<const float> x, const Tensor& w,
                        std::span<const float> bias, std::span<float> y) {
  const std::size_t n = w.dim(0);
  const std::size_t k = w.dim(1);
  FT2_ASSERT(x.size() == k && y.size() == n);
  FT2_ASSERT(bias.empty() || bias.size() == n);
  active_kernel_ops().gemv_row(x.data(), w.data(), k, n, k,
                               bias.empty() ? nullptr : bias.data(), y.data());
}

namespace {

/// Chunked-accumulation dot products for output columns [o_lo, o_hi) of one
/// row: 8-wide partial sums with a pairwise lane reduction (the Fig. 16
/// alternate-reduction-order mode).
void chunked_row_range(std::span<const float> x, const Tensor& w,
                       std::span<const float> bias, std::span<float> y,
                       std::size_t o_lo, std::size_t o_hi) {
  const std::size_t k = w.dim(1);
  const float* wd = w.data();
  for (std::size_t o = o_lo; o < o_hi; ++o) {
    const float* row = wd + o * k;
    float partial[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::size_t i = 0;
    for (; i + 8 <= k; i += 8) {
      for (std::size_t lane = 0; lane < 8; ++lane) {
        partial[lane] += row[i + lane] * x[i + lane];
      }
    }
    float acc = bias.empty() ? 0.0f : bias[o];
    for (; i < k; ++i) acc += row[i] * x[i];
    // Pairwise tree reduction of the lanes.
    partial[0] += partial[4];
    partial[1] += partial[5];
    partial[2] += partial[6];
    partial[3] += partial[7];
    partial[0] += partial[2];
    partial[1] += partial[3];
    y[o] = acc + partial[0] + partial[1];
  }
}

/// Writes weight columns [o_lo, o_lo + width) transposed into
/// wt[k][tile_cols] and their bias into bias_padded[tile_cols], both
/// zero-padded past `width`, so the micro-kernel's inner loop reads
/// contiguous memory. The tile width comes from the dispatch tier
/// (tensor/dispatch.hpp): 16 columns on the SSE reference, 32 on AVX2.
void pack_tile(const Tensor& w, std::span<const float> bias, std::size_t o_lo,
               std::size_t width, std::size_t tile_cols, float* wt,
               float* bias_padded) {
  const std::size_t k = w.dim(1);
  std::fill_n(wt, k * tile_cols, 0.0f);
  std::fill_n(bias_padded, tile_cols, 0.0f);
  for (std::size_t j = 0; j < width; ++j) {
    const float* src = w.data() + (o_lo + j) * k;
    for (std::size_t i = 0; i < k; ++i) wt[i * tile_cols + j] = src[i];
    if (!bias.empty()) bias_padded[j] = bias[o_lo + j];
  }
}

/// One column group's packed weights, as the micro-kernel reads them.
struct TileView {
  const float* wt;           ///< [k x tile_cols]
  const float* bias_padded;  ///< [tile_cols]
};

/// The k-outer span GEMM shared by the packed and repacking paths: one task
/// per tile_cols-wide column group g, covering columns [o_lo, o_lo +
/// width); `tile(g, o_lo, width)` supplies the group's packed weights,
/// which the task runs against every row through the kernel.
/// Partitioning is per output element, so any pool size produces identical
/// results.
template <class TileFn>
void kouter_span(const Tensor& x, std::size_t rows, std::size_t n,
                 std::size_t k, const KernelOps& ops, Tensor& y,
                 ThreadPool& pool, const TileFn& tile) {
  const std::size_t tile_cols = ops.tile_cols;
  const std::size_t col_groups = (n + tile_cols - 1) / tile_cols;
  pool.parallel_for(0, col_groups, [&](std::size_t g) {
    const std::size_t o_lo = g * tile_cols;
    const std::size_t width = std::min(tile_cols, n - o_lo);
    const TileView t = tile(g, o_lo, width);
    for (std::size_t r = 0; r < rows; ++r) {
      ops.kouter_row(x.row(r).data(), t.wt, k, t.bias_padded,
                     y.row(r).data() + o_lo, width);
    }
  });
}

}  // namespace

PackedLinear::PackedLinear(const Tensor& w, std::span<const float> bias_in)
    : n(w.dim(0)),
      k(w.dim(1)),
      ops(&active_kernel_ops()),
      tile_cols(ops->tile_cols) {
  FT2_CHECK(w.rank() == 2);
  FT2_CHECK(bias_in.empty() || bias_in.size() == n);
  const std::size_t groups = (n + tile_cols - 1) / tile_cols;
  tiles.resize(groups * k * tile_cols);
  bias.resize(groups * tile_cols);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t o_lo = g * tile_cols;
    pack_tile(w, bias_in, o_lo, std::min(tile_cols, n - o_lo), tile_cols,
              tiles.data() + g * k * tile_cols, bias.data() + g * tile_cols);
  }
}

void linear_forward_span_packed(const Tensor& x, std::size_t rows,
                                const PackedLinear& pl, Tensor& y,
                                ThreadPool& pool) {
  FT2_CHECK(x.rank() == 2 && y.rank() == 2);
  FT2_CHECK(rows <= x.dim(0) && rows <= y.dim(0));
  FT2_CHECK_MSG(x.dim(1) == pl.k && y.dim(1) == pl.n,
                "linear_forward_span_packed: x cols " << x.dim(1) << " w ["
                    << pl.n << "," << pl.k << "] y cols " << y.dim(1));
  if (rows == 0) return;
  const std::size_t tile_cols = pl.tile_cols;
  kouter_span(x, rows, pl.n, pl.k, *pl.ops, y, pool,
              [&](std::size_t g, std::size_t, std::size_t) {
                return TileView{pl.tiles.data() + g * pl.k * tile_cols,
                                pl.bias.data() + g * tile_cols};
              });
}

void linear_forward_span(const Tensor& x, std::size_t rows, const Tensor& w,
                         std::span<const float> bias, Tensor& y,
                         bool chunked_accum, ThreadPool& pool) {
  FT2_CHECK(x.rank() == 2 && y.rank() == 2 && w.rank() == 2);
  FT2_CHECK(rows <= x.dim(0) && rows <= y.dim(0));
  const std::size_t n = w.dim(0);
  const std::size_t k = w.dim(1);
  FT2_CHECK_MSG(x.dim(1) == k && y.dim(1) == n,
                "linear_forward_span: x [" << x.dim(0) << "," << x.dim(1)
                                           << "] w [" << n << "," << w.dim(1)
                                           << "] y cols " << y.dim(1));
  if (rows == 0) return;

  if (chunked_accum) {
    // Sensitivity-study mode: keep the reference tiling. Split output
    // columns when rows alone cannot feed the pool.
    const std::size_t workers = std::max<std::size_t>(pool.size(), 1);
    std::size_t col_tiles = 1;
    if (rows < 2 * workers) {
      col_tiles = std::min(n, (2 * workers + rows - 1) / rows);
    }
    const std::size_t tile_cols = (n + col_tiles - 1) / col_tiles;
    pool.parallel_for(0, rows * col_tiles, [&](std::size_t task) {
      const std::size_t r = task / col_tiles;
      const std::size_t t = task % col_tiles;
      const std::size_t o_lo = t * tile_cols;
      const std::size_t o_hi = std::min(n, o_lo + tile_cols);
      chunked_row_range(x.row(r), w, bias, y.row(r), o_lo, o_hi);
    });
    return;
  }

  // Fast path: each task packs its weight tile into per-thread scratch
  // (amortized over all chunk rows), then runs the shared k-outer body.
  const KernelOps& ops = active_kernel_ops();
  const std::size_t tile_cols = ops.tile_cols;
  kouter_span(x, rows, n, k, ops, y, pool,
              [&](std::size_t, std::size_t o_lo, std::size_t width) {
                thread_local std::vector<float> scratch;
                scratch.resize((k + 1) * tile_cols);
                float* bias_padded = scratch.data() + k * tile_cols;
                pack_tile(w, bias, o_lo, width, tile_cols, scratch.data(),
                          bias_padded);
                return TileView{scratch.data(), bias_padded};
              });
}

void softmax(std::span<float> v) {
  if (v.empty()) return;
  float mx = v[0];
  for (float f : v) mx = std::max(mx, f);
  // If the row holds NaN/inf only, the standard stable softmax still runs;
  // NaNs propagate, which is the faithful FP behaviour under injection.
  float sum = 0.0f;
  for (float& f : v) {
    f = std::exp(f - mx);
    sum += f;
  }
  if (sum > 0.0f) {
    for (float& f : v) f /= sum;
  }
}

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

float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

float gelu_scalar(float x) {
  // GPT-2/J tanh approximation.
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
}

float silu_scalar(float x) { return x * sigmoid_scalar(x); }

void relu(std::span<float> v) {
  for (float& f : v) f = std::max(f, 0.0f);
}

void gelu(std::span<float> v) {
  for (float& f : v) f = gelu_scalar(f);
}

void silu(std::span<float> v) {
  for (float& f : v) f = silu_scalar(f);
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
