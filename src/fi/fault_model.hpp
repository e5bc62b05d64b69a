// Fault models: bit flips in the floating-point encoding of neuron values.
//
// Three models from the paper (§2.2), each applied to either the FP16 or
// FP32 encoding of a linear-layer output neuron:
//  * kSingleBit   — one uniformly random bit flip;
//  * kDoubleBit   — two distinct uniformly random bit flips;
//  * kExponentBit — one flip uniformly within the exponent bits (the most
//                   aggressive model: large magnitude changes and NaN/inf).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "numeric/f16.hpp"

namespace ft2 {

enum class FaultModel { kSingleBit, kDoubleBit, kExponentBit };

enum class ValueType { kF16, kF32 };

constexpr const char* fault_model_name(FaultModel m) {
  switch (m) {
    case FaultModel::kSingleBit: return "1-bit";
    case FaultModel::kDoubleBit: return "2-bit";
    case FaultModel::kExponentBit: return "EXP";
  }
  return "unknown";
}

constexpr const char* value_type_name(ValueType v) {
  return v == ValueType::kF16 ? "fp16" : "fp32";
}

inline const std::array<FaultModel, 3>& all_fault_models() {
  static const std::array<FaultModel, 3> models = {
      FaultModel::kSingleBit, FaultModel::kDoubleBit, FaultModel::kExponentBit};
  return models;
}

/// A concrete set of bit positions to flip (sampled once per trial so the
/// whole trial is reproducible from its Philox stream).
struct BitFlips {
  std::array<int, 2> bits{};
  int count = 0;
};

/// Samples the bit positions for `model` on a `vtype` encoding.
BitFlips sample_bit_flips(FaultModel model, ValueType vtype,
                          PhiloxStream& rng);

/// Flips `flips`' bits of a binary16 encoding: what a weight fault does to
/// a stored weight (fi/weight_fault.hpp), with no conversion on either
/// side.
std::uint16_t flip_f16_bits(std::uint16_t bits, const BitFlips& flips);

/// Applies `flips` to the encoding of activation `value` and returns the
/// faulty value. For kF16 the value is first quantized onto the FP16 grid
/// (it already is on the FP16 path of the engine; quantization is then a
/// no-op), flipped with flip_f16_bits and widened back.
float apply_bit_flips(float value, const BitFlips& flips, ValueType vtype);

}  // namespace ft2
