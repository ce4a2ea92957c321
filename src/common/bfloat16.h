// Software bfloat16: the storage and compute element type of OPAL's FP path.
//
// The paper keeps activation/weight outliers and all accumulations in
// bfloat16 (1 sign | 8 exponent | 7 mantissa). We model it as a 16-bit
// storage type with round-to-nearest-even conversion from binary32 and
// arithmetic performed in binary32, matching the usual hardware convention
// (BF16 multiplier feeding an FP32/BF16 accumulator).
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>

#include "common/float_bits.h"

namespace opal {

class bfloat16 {
 public:
  constexpr bfloat16() = default;

  /// Converts from binary32 with round-to-nearest-even (ties to even).
  explicit bfloat16(float v) : bits_(round_from_f32(v)) {}

  /// Reinterprets raw storage bits as a bfloat16.
  [[nodiscard]] static constexpr bfloat16 from_bits(std::uint16_t bits) {
    bfloat16 r;
    r.bits_ = bits;
    return r;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const { return bits_; }

  /// Widening conversion is exact: bfloat16 is a prefix of binary32.
  [[nodiscard]] float to_float() const {
    return f32_from_bits(static_cast<std::uint32_t>(bits_) << 16);
  }
  explicit operator float() const { return to_float(); }

  [[nodiscard]] constexpr int sign() const { return bits_ >> 15; }
  /// Biased exponent field (0..255), bias 127.
  [[nodiscard]] constexpr int biased_exponent() const {
    return (bits_ >> kBF16MantissaBits) & 0xFF;
  }
  [[nodiscard]] constexpr int unbiased_exponent() const {
    return biased_exponent() - kBF16ExponentBias;
  }
  /// 7-bit mantissa field without the implicit one.
  [[nodiscard]] constexpr std::uint16_t mantissa() const {
    return bits_ & ((1u << kBF16MantissaBits) - 1);
  }
  [[nodiscard]] constexpr bool is_zero() const {
    return (bits_ & 0x7FFF) == 0;
  }

  friend bool operator==(bfloat16 a, bfloat16 b) {
    return a.to_float() == b.to_float();  // so +0 == -0, NaN != NaN
  }
  friend auto operator<=>(bfloat16 a, bfloat16 b) {
    return a.to_float() <=> b.to_float();
  }

 private:
  // Branch-free, so per-element callers stay free of data-dependent jumps.
  [[nodiscard]] static std::uint16_t round_from_f32(float v) {
    const std::uint32_t bits = f32_bits(v);
    // Round to nearest even on the 16 bits being discarded.
    const std::uint32_t rounded = (bits + 0x7FFFu + ((bits >> 16) & 1u)) >> 16;
    // A NaN becomes a quiet NaN, preserving sign, instead of having its
    // payload rounded down to infinity.
    const std::uint32_t quiet_nan = (bits >> 16) | 0x0040u;
    return static_cast<std::uint16_t>(
        (bits & 0x7FFFFFFFu) > 0x7F800000u ? quiet_nan : rounded);
  }

  std::uint16_t bits_ = 0;
};

/// Round a binary32 value to bfloat16 precision and widen back. This is the
/// single rounding step every value passing through a BF16 datapath incurs.
[[nodiscard]] inline float to_bf16(float v) { return bfloat16(v).to_float(); }

inline bfloat16 operator+(bfloat16 a, bfloat16 b) {
  return bfloat16(a.to_float() + b.to_float());
}
inline bfloat16 operator-(bfloat16 a, bfloat16 b) {
  return bfloat16(a.to_float() - b.to_float());
}
inline bfloat16 operator*(bfloat16 a, bfloat16 b) {
  return bfloat16(a.to_float() * b.to_float());
}
inline bfloat16 operator/(bfloat16 a, bfloat16 b) {
  return bfloat16(a.to_float() / b.to_float());
}
inline bfloat16 operator-(bfloat16 a) {
  return bfloat16::from_bits(static_cast<std::uint16_t>(a.bits() ^ 0x8000u));
}

std::ostream& operator<<(std::ostream& os, bfloat16 v);

}  // namespace opal
