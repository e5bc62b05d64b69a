// IEEE-754 binary16 ("half", FP16) implemented in software.
//
// The FT2 fault model flips bits in the FP16 encoding of linear-layer
// outputs, so the numeric behaviour of this type must be bit-exact IEEE:
//  * 1 sign bit, 5 exponent bits, 10 mantissa bits;
//  * round-to-nearest-even conversion from float;
//  * overflow to +/-inf (values above 65504 in magnitude);
//  * NaN when all exponent bits are set and the mantissa is non-zero.
//
// Values in +/-(1, 2) have exponent pattern 01111; flipping the top exponent
// bit yields 11111 with a (generally) non-zero mantissa => NaN. The paper
// calls +/-(1,2) the "NaN-vulnerable area"; helpers below expose that notion.
#pragma once

#include <cstdint>
#include <cstring>

namespace ft2 {

/// Raw 16-bit storage of a binary16 value plus conversion and
/// classification helpers. Arithmetic is performed by converting to float;
/// tensors quantize layer outputs back onto the FP16 grid (matching FP32
/// accumulation on GPU tensor cores).
class f16 {
 public:
  constexpr f16() = default;

  /// Construct from raw bits (no conversion).
  static constexpr f16 from_bits(std::uint16_t bits) {
    f16 h;
    h.bits_ = bits;
    return h;
  }

  /// Round-to-nearest-even conversion from float, with IEEE overflow,
  /// underflow (subnormals) and NaN handling.
  static f16 from_float(float f);

  /// Exact widening. A NaN keeps its payload and sign and comes out
  /// quiet (a signalling NaN gains the quiet bit), bit for bit as F16C's
  /// VCVTPH2PS widens it, so every kernel tier widens weights alike.
  float to_float() const;

  constexpr std::uint16_t bits() const { return bits_; }

  constexpr bool sign() const { return (bits_ & 0x8000u) != 0; }
  constexpr std::uint16_t exponent_bits() const {
    return static_cast<std::uint16_t>((bits_ >> 10) & 0x1Fu);
  }
  constexpr std::uint16_t mantissa_bits() const {
    return static_cast<std::uint16_t>(bits_ & 0x3FFu);
  }

  constexpr bool is_nan() const {
    return exponent_bits() == 0x1F && mantissa_bits() != 0;
  }
  constexpr bool is_inf() const {
    return exponent_bits() == 0x1F && mantissa_bits() == 0;
  }
  constexpr bool is_finite() const { return exponent_bits() != 0x1F; }
  constexpr bool is_subnormal() const {
    return exponent_bits() == 0 && mantissa_bits() != 0;
  }
  constexpr bool is_zero() const { return (bits_ & 0x7FFFu) == 0; }

  friend constexpr bool operator==(f16 a, f16 b) { return a.bits_ == b.bits_; }

  static constexpr int kSignBit = 15;
  static constexpr int kExponentHigh = 14;  // most significant exponent bit
  static constexpr int kExponentLow = 10;   // least significant exponent bit
  static constexpr int kBits = 16;
  static constexpr float kMax = 65504.0f;

 private:
  std::uint16_t bits_ = 0;
};

/// Quantizes `f` onto the FP16 grid: float -> f16 -> float. Preserves
/// inf/NaN; finite values round to the nearest representable half.
float quantize_f16(float f);

/// True if `f` lies in the paper's NaN-vulnerable area +/-(1, 2): the FP16
/// exponent pattern is 01111, so flipping the top exponent bit produces
/// 11111 => NaN whenever the mantissa is non-zero (i.e. |f| != exactly 1).
bool nan_vulnerable_f16(float f);

/// Single-precision helpers used by the FP32 fault model (Fig. 15).
std::uint32_t f32_bits(float f);
float f32_from_bits(std::uint32_t bits);

}  // namespace ft2
