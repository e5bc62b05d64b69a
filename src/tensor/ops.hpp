// Numerical kernels used by the inference/training engine.
//
// All kernels compute in FP32. Call sites that model FP16 execution quantize
// outputs via quantize_tensor_f16 after each observable layer, matching
// GPU mixed-precision (FP16 storage, FP32 accumulate).
#pragma once

#include <span>

#include "tensor/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace ft2 {

/// Single-row linear: y[n] = W[n,k] * x[k] + b[n] (W stored [n,k], PyTorch
/// Linear layout; bias may be empty), straight from the row-major weights
/// through the active tier's row GEMV (KernelOps::gemv_row). Every tier
/// accumulates each output as the same ascending-k mul-then-add chain, so
/// results never depend on the tier.
void linear_forward_row(std::span<const float> x, const Tensor& w,
                        std::span<const float> bias, std::span<float> y);

class ThreadPool;  // common/thread_pool.hpp

/// Blocked multi-row GEMM: y.row(r) = W * x.row(r) + b for r in [0, rows),
/// parallelised over `pool` (rows and, for small row counts, output-column
/// tiles). Every output element is produced by exactly one task using the
/// same accumulation order as linear_forward_row, so results are bit-exact
/// with per-row calls at any pool size and on every dispatch tier
/// (tensor/dispatch.hpp). `chunked_accum` instead accumulates each dot
/// product in 8-wide partial sums with a pairwise lane reduction: a
/// different reduction order, standing in for a different GPU generation's
/// tiling (the Fig. 16 hardware-sensitivity axis), equally independent of
/// rows and pool size. `x` and `y` may have more than `rows` rows
/// (workspace capacity). The output is plain math: quantization and
/// protection run afterwards, as one KernelOps::epilogue_span sweep.
void linear_forward_span(const Tensor& x, std::size_t rows, const Tensor& w,
                         std::span<const float> bias, Tensor& y,
                         bool chunked_accum, ThreadPool& pool);

/// One weight matrix packed once into the k-outer micro-kernel's
/// transposed column tiles (bias pre-padded per tile). linear_forward_span
/// repacks each tile on every call; callers that re-run the same layer
/// many times (batched decode every step, prefill every chunk) pack once
/// here instead. Packing only changes memory layout, never the per-element
/// accumulation order, so the packed path stays bit-exact with
/// linear_forward_row.
/// Snapshot semantics: mutating `w` after packing (e.g. a weight fault) is
/// not reflected — construct a fresh PackedLinear instead. The tile width
/// and kernel are snapshotted from the active dispatch tier at pack time;
/// repack after set_kernel_tier.
struct PackedLinear {
  std::size_t n = 0;          ///< output features
  std::size_t k = 0;          ///< input features
  const KernelOps* ops = nullptr;  ///< dispatch tier the tiles were packed for
  std::size_t tile_cols = 0;  ///< ops->tile_cols at pack time
  std::vector<float> tiles;   ///< per tile: [k x tile_cols], zero-padded
  std::vector<float> bias;    ///< per tile: [tile_cols], zero-padded

  PackedLinear() = default;
  PackedLinear(const Tensor& w, std::span<const float> bias_in);

  bool empty() const { return n == 0; }
  std::size_t memory_bytes() const {
    return (tiles.size() + bias.size()) * sizeof(float);
  }
};

/// Packed counterpart of linear_forward_span (non-chunked accumulation
/// only): y.row(r) = W * x.row(r) + b for r in [0, rows). Bit-exact with
/// linear_forward_row at any pool size. Both functions run the same
/// per-tile body, so packed and repacked results are identical.
void linear_forward_span_packed(const Tensor& x, std::size_t rows,
                                const PackedLinear& pl, Tensor& y,
                                ThreadPool& pool);

/// In-place numerically-stable softmax of one contiguous vector.
void softmax(std::span<float> v);

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
float silu_scalar(float x);
float sigmoid_scalar(float x);

/// Rotary position embedding applied in place to a [n_heads * head_dim]
/// vector laid out head-major; rotates pairs (i, i + head_dim/2) within each
/// head using position `pos` and base theta (default 10000).
void rope_apply(std::span<float> qk, std::size_t n_heads, std::size_t head_dim,
                std::size_t pos, float theta = 10000.0f);

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
