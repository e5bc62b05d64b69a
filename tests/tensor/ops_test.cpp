#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "numeric/f16.hpp"

namespace ft2 {
namespace {

TEST(Ops, LinearForwardMatchesNaive) {
  // Weights on the binary16 grid, as packing stores them; inputs off it.
  Xoshiro256 rng(1);
  Tensor x({3, 5}), w({4, 5});
  for (float& f : x.span()) f = rng.uniform_float(-1.0f, 1.0f);
  for (float& f : w.span()) f = quantize_f16(rng.uniform_float(-1.0f, 1.0f));
  std::vector<float> bias = {0.1f, -0.2f, 0.3f, 0.0f};

  Tensor y({3, 4});
  linear_forward_span(x, 3, w, bias, y, /*chunked_accum=*/false,
                      ThreadPool::global());
  ASSERT_EQ(y.dim(0), 3u);
  ASSERT_EQ(y.dim(1), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t o = 0; o < 4; ++o) {
      float expect = bias[o];
      for (std::size_t i = 0; i < 5; ++i) expect += x.at(r, i) * w.at(o, i);
      EXPECT_EQ(f32_bits(y.at(r, o)), f32_bits(expect));
    }
  }
}

TEST(Ops, PackingRoundsWeightsToBinary16) {
  // Off-grid weights round to the nearest binary16, ties to even, NaN to
  // the canonical quiet NaN; the bias is kept as given.
  Tensor w({3, 4});
  const float vals[] = {0.1f, 1.0f + 0x1p-11f, 1.0f + 3 * 0x1p-11f, 65519.0f,
                        70000.0f, -1e-9f, 3.0f, std::nanf("7"),
                        -0.0f, 0x1p-24f, 0x1.8p-24f, 2.5f};
  std::copy(std::begin(vals), std::end(vals), w.span().begin());
  const std::vector<float> bias = {0.1f, 0.2f, 0.3f};
  const PackedLinear pl(w, bias);
  const Tensor back = pl.unpack_weight();
  for (std::size_t o = 0; o < 3; ++o) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(pl.at(o, i), f16::from_float(w.at(o, i)).bits());
      EXPECT_EQ(f32_bits(back.at(o, i)), f32_bits(pl.weight(o, i)));
    }
  }
  EXPECT_EQ(pl.at(0, 1), 0x3C00u);  // 1 + 2^-11: a tie, to even
  EXPECT_EQ(pl.at(0, 2), 0x3C02u);  // 1 + 3 * 2^-11: a tie, to even
  EXPECT_EQ(pl.at(0, 3), 0x7BFFu);  // below 65520: 65504
  EXPECT_EQ(pl.at(1, 0), 0x7C00u);  // 70000 overflows to +Inf
  EXPECT_EQ(pl.at(1, 3), 0x7E00u);  // NaN payload canonicalized
  EXPECT_EQ(pl.at(2, 1), 0x0001u);  // 2^-24: smallest subnormal
  EXPECT_EQ(pl.at(2, 2), 0x0002u);  // 1.5 * 2^-24: a tie, to even
  EXPECT_EQ(pl.unpack_bias().span()[0], 0.1f);
}

TEST(Ops, LinearShapeMismatchThrows) {
  Tensor x({2, 3}), w({4, 5}), y({2, 4});
  EXPECT_THROW(linear_forward_span(x, 2, w, {}, y, /*chunked_accum=*/false,
                                   ThreadPool::global()),
               Error);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Xoshiro256 rng(2);
  Tensor t({4, 7});
  for (float& f : t.span()) f = rng.uniform_float(-5.0f, 5.0f);
  for (std::size_t r = 0; r < 4; ++r) {
    softmax(t.row(r));
    float sum = 0.0f;
    for (float f : t.row(r)) {
      EXPECT_GE(f, 0.0f);
      sum += f;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {1001.0f, 1002.0f, 1003.0f};
  softmax(a);
  softmax(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-6f);

  std::vector<float> huge = {1e30f, -1e30f};
  softmax(huge);
  EXPECT_NEAR(huge[0], 1.0f, 1e-6f);
  EXPECT_NEAR(huge[1], 0.0f, 1e-6f);
}

TEST(Ops, SoftmaxPropagatesNan) {
  std::vector<float> v = {1.0f, std::nanf(""), 2.0f};
  softmax(v);
  // NaN contaminates the max/sum: outputs are not a valid distribution.
  bool any_nan = false;
  for (float f : v) any_nan |= std::isnan(f);
  EXPECT_TRUE(any_nan);
}

TEST(Ops, LayerNormNormalizesRows) {
  Xoshiro256 rng(3);
  Tensor x({2, 16}), y;
  for (float& f : x.span()) f = rng.uniform_float(-3.0f, 7.0f);
  std::vector<float> gamma(16, 1.0f), beta(16, 0.0f);
  layernorm_rows(x, gamma, beta, 1e-5f, y);
  for (std::size_t r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (float f : y.row(r)) mean += f;
    mean /= 16.0f;
    for (float f : y.row(r)) var += (f - mean) * (f - mean);
    var /= 16.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(Ops, LayerNormAffineApplied) {
  Tensor x({1, 4}), y;
  x.row(0)[0] = 1.0f;
  x.row(0)[1] = 2.0f;
  x.row(0)[2] = 3.0f;
  x.row(0)[3] = 4.0f;
  std::vector<float> gamma = {2.0f, 2.0f, 2.0f, 2.0f};
  std::vector<float> beta = {1.0f, 1.0f, 1.0f, 1.0f};
  layernorm_rows(x, gamma, beta, 0.0f, y);
  float mean = 0.0f;
  for (float f : y.row(0)) mean += f;
  EXPECT_NEAR(mean / 4.0f, 1.0f, 1e-5f);  // beta shifts the mean
}

TEST(Ops, RmsNormMatchesDefinition) {
  Tensor x({1, 4}), y;
  x.row(0)[0] = 1.0f;
  x.row(0)[1] = -2.0f;
  x.row(0)[2] = 3.0f;
  x.row(0)[3] = -4.0f;
  std::vector<float> gamma = {1.0f, 1.0f, 1.0f, 2.0f};
  const float eps = 1e-6f;
  rmsnorm_rows(x, gamma, eps, y);
  const float ms = (1.0f + 4.0f + 9.0f + 16.0f) / 4.0f;
  const float inv = 1.0f / std::sqrt(ms + eps);
  EXPECT_NEAR(y.at(0, 0), 1.0f * inv, 1e-6f);
  EXPECT_NEAR(y.at(0, 3), -4.0f * inv * 2.0f, 1e-6f);
}

TEST(Ops, ActivationValues) {
  EXPECT_EQ(gelu_scalar(0.0f), 0.0f);
  EXPECT_NEAR(gelu_scalar(1.0f), 0.8412f, 1e-3f);
  EXPECT_NEAR(gelu_scalar(-1.0f), -0.1588f, 1e-3f);
  EXPECT_NEAR(silu_scalar(1.0f), 0.7311f, 1e-3f);
  EXPECT_EQ(silu_scalar(0.0f), 0.0f);
  EXPECT_NEAR(sigmoid_scalar(0.0f), 0.5f, 1e-6f);

  std::vector<float> v = {-2.0f, -0.5f, 0.0f, 0.5f, 2.0f};
  relu(v);
  EXPECT_EQ(v[0], 0.0f);
  EXPECT_EQ(v[1], 0.0f);
  EXPECT_EQ(v[3], 0.5f);
  EXPECT_EQ(v[4], 2.0f);
}

TEST(Ops, ActivationsShrinkLargeNegativeFaults) {
  // The mechanism behind non-critical FC1/GATE: activations squash the
  // negative half, so half of extreme faulty values vanish.
  EXPECT_EQ(std::max(-65504.0f, 0.0f), 0.0f);
  EXPECT_NEAR(silu_scalar(-65504.0f), 0.0f, 1e-3f);
  EXPECT_NEAR(gelu_scalar(-65504.0f), 0.0f, 1e-3f);
}

TEST(Ops, RopePreservesNormAndIsPositionDependent) {
  Xoshiro256 rng(4);
  std::vector<float> v(16);
  for (float& f : v) f = rng.uniform_float(-1.0f, 1.0f);
  std::vector<float> v0 = v, v5 = v;
  rope_apply(v0, 2, 8, 0);
  rope_apply(v5, 2, 8, 5);

  auto norm = [](const std::vector<float>& x) {
    float s = 0.0f;
    for (float f : x) s += f * f;
    return std::sqrt(s);
  };
  EXPECT_NEAR(norm(v0), norm(v), 1e-4f);
  EXPECT_NEAR(norm(v5), norm(v), 1e-4f);
  // Position 0 is the identity rotation.
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v0[i], v[i], 1e-6f);
  // Position 5 differs.
  float diff = 0.0f;
  for (std::size_t i = 0; i < v.size(); ++i) diff += std::fabs(v5[i] - v[i]);
  EXPECT_GT(diff, 0.1f);
}

TEST(Ops, RopeRelativeDotProductProperty) {
  // RoPE makes q(m).k(n) depend only on m-n: rotating both by +1 position
  // preserves the per-head dot product.
  Xoshiro256 rng(5);
  std::vector<float> q(8), k(8);
  for (float& f : q) f = rng.uniform_float(-1.0f, 1.0f);
  for (float& f : k) f = rng.uniform_float(-1.0f, 1.0f);

  auto dot = [](const std::vector<float>& a, const std::vector<float>& b) {
    float s = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };
  auto q3 = q, k7 = k, q4 = q, k8 = k;
  rope_apply(q3, 1, 8, 3);
  rope_apply(k7, 1, 8, 7);
  rope_apply(q4, 1, 8, 4);
  rope_apply(k8, 1, 8, 8);
  EXPECT_NEAR(dot(q3, k7), dot(q4, k8), 1e-4f);
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> a = {1.0f, 2.0f};
  const std::vector<float> b = {3.0f, 4.0f};
  add_inplace(a, b);
  EXPECT_EQ(a[0], 4.0f);
  EXPECT_EQ(a[1], 6.0f);
  mul_inplace(a, b);
  EXPECT_EQ(a[0], 12.0f);
  EXPECT_EQ(a[1], 24.0f);
}

TEST(Ops, QuantizeTensorF16) {
  Tensor t({1, 3});
  t[0] = 1.0f / 3.0f;
  t[1] = 100000.0f;  // overflows half
  t[2] = 1.0f;
  quantize_tensor_f16(t);
  EXPECT_EQ(t[0], quantize_f16(1.0f / 3.0f));
  EXPECT_TRUE(std::isinf(t[1]));
  EXPECT_EQ(t[2], 1.0f);
}

TEST(Ops, ArgmaxFirstOnTiesAndNan) {
  std::vector<float> v = {1.0f, 3.0f, 3.0f, 2.0f};
  EXPECT_EQ(argmax(v), 1u);
  std::vector<float> allnan = {std::nanf(""), std::nanf("")};
  EXPECT_EQ(argmax(allnan), 0u);  // deterministic garbage-token behaviour
}

}  // namespace
}  // namespace ft2
