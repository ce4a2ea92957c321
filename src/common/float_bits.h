// IEEE-754 bit-field utilities shared by the bfloat16 type, the microscaling
// quantizers (which operate directly on exponent fields), and the log2-based
// softmax unit (which computes on exponent/mantissa integers).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

namespace opal {

// Field layout of IEEE-754 binary32: 1 sign | 8 exponent | 23 mantissa.
inline constexpr int kF32MantissaBits = 23;
inline constexpr int kF32ExponentBits = 8;
inline constexpr int kF32ExponentBias = 127;
inline constexpr std::uint32_t kF32MantissaMask = (1u << kF32MantissaBits) - 1;
inline constexpr std::uint32_t kF32ExponentMask = 0xFFu;

// bfloat16 is the top 16 bits of binary32: 1 sign | 8 exponent | 7 mantissa.
inline constexpr int kBF16MantissaBits = 7;
inline constexpr int kBF16ExponentBias = 127;

/// Raw bits of a binary32 value.
[[nodiscard]] inline std::uint32_t f32_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v);
}

/// Reassemble a binary32 value from raw bits.
[[nodiscard]] inline float f32_from_bits(std::uint32_t bits) noexcept {
  return std::bit_cast<float>(bits);
}

/// Sign bit (0 or 1).
[[nodiscard]] inline int f32_sign(float v) noexcept {
  return static_cast<int>(f32_bits(v) >> 31);
}

/// Biased exponent field (0..255). 0 means zero/subnormal, 255 means inf/NaN.
[[nodiscard]] inline int f32_biased_exponent(float v) noexcept {
  return static_cast<int>((f32_bits(v) >> kF32MantissaBits) & kF32ExponentMask);
}

/// Unbiased exponent, i.e. floor(log2(|v|)) for normal values.
[[nodiscard]] inline int f32_unbiased_exponent(float v) noexcept {
  return f32_biased_exponent(v) - kF32ExponentBias;
}

/// 23-bit mantissa field (without the implicit leading one).
[[nodiscard]] inline std::uint32_t f32_mantissa(float v) noexcept {
  return f32_bits(v) & kF32MantissaMask;
}

/// The value `1.M` in [1, 2) for a normal float: implicit bit plus mantissa.
[[nodiscard]] inline float f32_significand(float v) noexcept {
  if (v == 0.0f) return 0.0f;
  const std::uint32_t bits =
      (f32_bits(v) & kF32MantissaMask) |
      (static_cast<std::uint32_t>(kF32ExponentBias) << kF32MantissaBits);
  return f32_from_bits(bits);
}

/// Compose a normal binary32 value from sign/biased-exponent/mantissa fields.
[[nodiscard]] inline float f32_compose(int sign, int biased_exponent,
                                       std::uint32_t mantissa) noexcept {
  const std::uint32_t bits = (static_cast<std::uint32_t>(sign & 1) << 31) |
                             (static_cast<std::uint32_t>(biased_exponent & 0xFF)
                              << kF32MantissaBits) |
                             (mantissa & kF32MantissaMask);
  return f32_from_bits(bits);
}

/// 2^e as a float: exact for e in the normal range [-126, 127], +0 below
/// it (as a right shift past the last bit gives) and +inf above it.
[[nodiscard]] inline float exp2i(int e) noexcept {
  const int biased = std::clamp(e, -kF32ExponentBias, kF32ExponentBias + 1) +
                     kF32ExponentBias;
  return f32_compose(0, biased, 0);
}

}  // namespace opal
