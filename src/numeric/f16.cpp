#include "numeric/f16.hpp"

#include <cmath>

namespace ft2 {

f16 f16::from_float(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));

  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7FFFFFFFu;

  // NaN: keep a quiet NaN with some mantissa payload.
  if (abs > 0x7F800000u) {
    return from_bits(static_cast<std::uint16_t>(sign | 0x7E00u));
  }
  // Infinity or overflow after rounding. Values >= 65520 round to inf.
  if (abs >= 0x477FF000u) {  // 65520.0f
    return from_bits(static_cast<std::uint16_t>(sign | 0x7C00u));
  }
  // Subnormal half or zero: |f| < 2^-14.
  if (abs < 0x38800000u) {
    // Add the implicit bit and shift; round-to-nearest-even via the
    // "magic add" of 0.5 ulp expressed in float arithmetic.
    const float scaled = std::fabs(f32_from_bits(abs)) * 0x1.0p24f;  // * 2^24
    std::uint32_t q = static_cast<std::uint32_t>(scaled);
    const float rem = scaled - static_cast<float>(q);
    if (rem > 0.5f || (rem == 0.5f && (q & 1u))) ++q;
    if (q > 0x3FFu) {
      // Rounded up into the normal range: 2^-14.
      return from_bits(static_cast<std::uint16_t>(sign | 0x0400u));
    }
    return from_bits(static_cast<std::uint16_t>(sign | q));
  }

  // Normal range: re-bias exponent (127 -> 15) and round mantissa.
  std::uint32_t exp = (abs >> 23) - 127 + 15;
  std::uint32_t mant = abs & 0x7FFFFFu;
  std::uint32_t half = (exp << 10) | (mant >> 13);
  const std::uint32_t round_bits = mant & 0x1FFFu;
  if (round_bits > 0x1000u || (round_bits == 0x1000u && (half & 1u))) {
    ++half;  // may carry into exponent; 65504 -> inf handled by cutoff above
  }
  return from_bits(static_cast<std::uint16_t>(sign | half));
}

float f16::to_float() const {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits_ & 0x8000u) << 16;
  const std::uint32_t exp = exponent_bits();
  const std::uint32_t mant = mantissa_bits();

  std::uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // +/- zero
    } else {
      // Subnormal: value = mant * 2^-24.
      const float v = static_cast<float>(mant) * 0x1.0p-24f;
      std::uint32_t v_bits;
      std::memcpy(&v_bits, &v, sizeof(v_bits));
      out = sign | v_bits;
    }
  } else if (exp == 0x1F) {
    // Inf, or NaN with its payload kept and the quiet bit set: a
    // signalling NaN widens quiet, as F16C's VCVTPH2PS widens it.
    out = sign | 0x7F800000u | (mant << 13) | (mant != 0 ? 0x400000u : 0u);
  } else {
    out = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &out, sizeof(f));
  return f;
}

float quantize_f16(float f) { return f16::from_float(f).to_float(); }

bool nan_vulnerable_f16(float f) {
  const f16 h = f16::from_float(f);
  return h.exponent_bits() == 0x0F && h.mantissa_bits() != 0;
}

std::uint32_t f32_bits(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  return x;
}

float f32_from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

}  // namespace ft2
