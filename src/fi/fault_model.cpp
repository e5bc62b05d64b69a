#include "fi/fault_model.hpp"

#include "common/check.hpp"

namespace ft2 {
namespace {

// Exponent bit ranges: FP16 bits [10,14], FP32 bits [23,30].
constexpr int kF16ExpLo = 10, kF16ExpHi = 14;
constexpr int kF32ExpLo = 23, kF32ExpHi = 30;

int total_bits(ValueType vtype) { return vtype == ValueType::kF16 ? 16 : 32; }

}  // namespace

BitFlips sample_bit_flips(FaultModel model, ValueType vtype,
                          PhiloxStream& rng) {
  BitFlips flips;
  const int nbits = total_bits(vtype);
  switch (model) {
    case FaultModel::kSingleBit:
      flips.count = 1;
      flips.bits[0] = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(nbits)));
      break;
    case FaultModel::kDoubleBit: {
      flips.count = 2;
      const int b0 =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(nbits)));
      int b1 =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(nbits - 1)));
      if (b1 >= b0) ++b1;  // distinct bits, uniform over pairs
      flips.bits[0] = b0;
      flips.bits[1] = b1;
      break;
    }
    case FaultModel::kExponentBit: {
      flips.count = 1;
      const int lo = vtype == ValueType::kF16 ? kF16ExpLo : kF32ExpLo;
      const int hi = vtype == ValueType::kF16 ? kF16ExpHi : kF32ExpHi;
      flips.bits[0] =
          lo + static_cast<int>(
                   rng.uniform(static_cast<std::uint64_t>(hi - lo + 1)));
      break;
    }
  }
  return flips;
}

std::uint16_t flip_f16_bits(std::uint16_t bits, const BitFlips& flips) {
  FT2_ASSERT(flips.count >= 1 && flips.count <= 2);
  for (int i = 0; i < flips.count; ++i) {
    FT2_ASSERT(flips.bits[i] >= 0 && flips.bits[i] < f16::kBits);
    bits = static_cast<std::uint16_t>(bits ^ (1u << flips.bits[i]));
  }
  return bits;
}

float apply_bit_flips(float value, const BitFlips& flips, ValueType vtype) {
  FT2_ASSERT(flips.count >= 1 && flips.count <= 2);
  if (vtype == ValueType::kF16) {
    return f16::from_bits(flip_f16_bits(f16::from_float(value).bits(), flips))
        .to_float();
  }
  std::uint32_t bits = f32_bits(value);
  for (int i = 0; i < flips.count; ++i) {
    bits ^= (1u << flips.bits[i]);
  }
  return f32_from_bits(bits);
}

}  // namespace ft2
