// Numerical kernels used by the inference/training engine.
//
// All kernels compute in FP32. Call sites that model FP16 execution quantize
// outputs via quantize_tensor_f16 after each observable layer, matching
// GPU mixed-precision (FP16 storage, FP32 accumulate).
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "tensor/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace ft2 {

class ThreadPool;  // common/thread_pool.hpp

/// Allocator that starts every buffer on a 64-byte (cache-line) boundary,
/// so where a vector lands never decides whether its vector loads split a
/// line.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// Floats on a 64-byte boundary (PackedLinear's tiles and bias).
using AlignedFloats = std::vector<float, CacheLineAllocator<float>>;

/// One weight matrix W[n, k] (PyTorch Linear layout: y = W x + b) in the
/// k-outer micro-kernel's layout, the only form a model keeps its linears
/// in (nn/model.hpp). Output columns are grouped kTileCols at a time; each
/// group is one tile, stored transposed as [k x kTileCols] floats so the
/// kernel's inner loop reads contiguous memory, with its bias padded to
/// kTileCols. Past the last output both are zero. Weight element (output
/// o, input i) sits at tiles[offset(o, i)]. The layout is the same on
/// every kernel tier, and packing never changes an output's accumulation
/// order.
struct PackedLinear {
  std::size_t n = 0;         ///< output features
  std::size_t k = 0;         ///< input features
  bool has_bias = false;     ///< packed from a non-empty bias
  AlignedFloats tiles;       ///< per tile: [k x kTileCols], zero-padded
  AlignedFloats bias;        ///< per tile: [kTileCols], zero-padded

  PackedLinear() = default;
  /// Packs `w` [n, k] and `bias_in` ([n], or empty for no bias).
  PackedLinear(const Tensor& w, std::span<const float> bias_in);

  /// Index of weight element (output o, input i) in `tiles`.
  std::size_t offset(std::size_t o, std::size_t i) const {
    return (o / kTileCols) * k * kTileCols + i * kTileCols + o % kTileCols;
  }
  float& at(std::size_t o, std::size_t i) { return tiles[offset(o, i)]; }
  float at(std::size_t o, std::size_t i) const { return tiles[offset(o, i)]; }

  /// The row-major weight [n, k] and bias [n] the tiles were packed from.
  Tensor unpack_weight() const;
  Tensor unpack_bias() const;
};

/// Blocked multi-row GEMM on packed tiles: y.row(r) = W * x.row(r) + b for
/// r in [0, rows), with the tiles split over `pool` into as many tasks as
/// the work pays for (a one-row GEMM of the benchmark model's size runs
/// inline). Every output element is one chain computed by exactly one
/// task, so results are bit-exact at any row count, pool size and dispatch
/// tier (tensor/dispatch.hpp): the documented ascending-k mul-then-add
/// chain. `chunked_accum` instead
/// accumulates each output in eight k-strided partial sums with a pairwise
/// reduction: a different reduction order, standing in for a different
/// GPU generation's tiling (the Fig. 16 hardware-sensitivity axis),
/// equally independent of rows, pool and tier. `x` and `y` may have more
/// than `rows` rows (workspace capacity). The output is plain math:
/// quantization and protection run afterwards, as one
/// KernelOps::epilogue_span sweep.
void linear_forward_span_packed(const Tensor& x, std::size_t rows,
                                const PackedLinear& pl, Tensor& y,
                                ThreadPool& pool, bool chunked_accum = false);

/// Pool tasks for `macs` multiply-adds of work that splits into at most
/// `pieces` independent parts: as many as keep ~2^17 multiply-adds (~10 us
/// of kernel time) per task, so small work runs inline instead of paying
/// a pool dispatch. Always in [1, max(pieces, 1)].
std::size_t pool_task_count(std::size_t macs, std::size_t pieces);

/// One-off GEMM on row-major weights (tests, benches): packs `w` and
/// `bias` (may be empty), then runs linear_forward_span_packed.
void linear_forward_span(const Tensor& x, std::size_t rows, const Tensor& w,
                         std::span<const float> bias, Tensor& y,
                         bool chunked_accum, ThreadPool& pool);

/// In-place numerically-stable softmax of one contiguous vector:
/// softmax_columns of an [n][1] block.
void softmax(std::span<float> v);

/// In-place softmax of each of the `m` columns of the row-major [n][m]
/// block at `v`, attention's [keys][heads] score block: per column, the
/// running max over ascending rows (std::max from row 0), the exponentials
/// of x - max through the active tier's exp_span, their sum in ascending
/// order from 0.0f and, when that sum is positive, a division by it.
/// Columns share registers (4 per SSE lane group) but never a chain, so
/// every column's result equals softmax of that column alone, bit for bit.
void softmax_columns(float* v, std::size_t n, std::size_t m);

/// LayerNorm: y = (x - mean) / sqrt(var + eps) * gamma + beta, per row.
void layernorm_rows(const Tensor& x, std::span<const float> gamma,
                    std::span<const float> beta, float eps, Tensor& y);

/// RMSNorm: y = x / sqrt(mean(x^2) + eps) * gamma, per row.
void rmsnorm_rows(const Tensor& x, std::span<const float> gamma, float eps,
                  Tensor& y);

/// Single-row norm kernels (the per-row arithmetic of the *_rows variants).
void layernorm_row(std::span<const float> in, std::span<const float> gamma,
                   std::span<const float> beta, float eps,
                   std::span<float> out);
void rmsnorm_row(std::span<const float> in, std::span<const float> gamma,
                 float eps, std::span<float> out);

/// Activations (elementwise, in place).
void relu(std::span<float> v);
void gelu(std::span<float> v);   // tanh approximation (GPT-style)
void silu(std::span<float> v);   // x * sigmoid(x)

float gelu_scalar(float x);
/// x * sigmoid_scalar(x), and sigmoid_scalar(x) itself for a NaN x;
/// silu() computes the same per element.
float silu_scalar(float x);
/// 1 / (1 + detail::expf_ref(-x)).
float sigmoid_scalar(float x);

/// Rotary position embedding applied in place to a [n_heads * head_dim]
/// vector laid out head-major; rotates pairs (i, i + head_dim/2) within each
/// head using position `pos` and base theta (default 10000).
void rope_apply(std::span<float> qk, std::size_t n_heads, std::size_t head_dim,
                std::size_t pos, float theta = 10000.0f);

/// Reorders one head-major [n_heads * head_dim] row (element (h, i) at
/// h * head_dim + i) into attention's head-interleaved layout, element
/// (h, i) at i * n_heads + h, so one head dim of every head is contiguous.
/// `in` and `out` must not overlap.
void interleave_heads(std::span<const float> in, std::size_t n_heads,
                      std::size_t head_dim, std::span<float> out);

/// Elementwise helpers.
void add_inplace(std::span<float> a, std::span<const float> b);
void mul_inplace(std::span<float> a, std::span<const float> b);

/// Quantizes every element onto the FP16 grid (float->half->float).
/// Dispatched through the active kernel tier (F16C on AVX2 hosts);
/// all tiers are bit-exact with the scalar quantize_f16 for every input,
/// NaN payloads included.
void quantize_tensor_f16(Tensor& t);
void quantize_span_f16(std::span<float> v);

/// Index of the maximum element (first on ties).
std::size_t argmax(std::span<const float> v);

}  // namespace ft2
