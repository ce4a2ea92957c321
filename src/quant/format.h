// Data-format descriptions and encoded representations for the three
// quantizers the paper compares: MinMax (ZeroQuant-style dynamic), MXINT
// (microscaling / block floating point), and MX-OPAL (outlier-preserved
// microscaling, the paper's contribution).
//
// Encoding conventions (Fig 2):
//  * Elements enter the quantizer as bfloat16 values (1|8|7); the quantizers
//    operate on their exponent/mantissa fields.
//  * A b-bit MX element is sign + (b-1) magnitude bits of the significand
//    aligned to the shared scale: code = round_or_trunc(x / 2^(s-(b-2))),
//    saturated to +/-(2^(b-1)-1). The element owning the maximum exponent
//    therefore keeps its implicit bit plus its top (b-2) mantissa bits, and
//    every other element is right-shifted by (s - e_i) first.
//  * Dequantization is code * 2^(s-(b-2)) -- a shift, never a divide, which
//    is the hardware point of the format.
//  * MX-OPAL removes the top-n magnitudes from the block before scale
//    selection, stores them verbatim in bfloat16 with their 7-bit in-block
//    index, and uses the (n+1)-th highest exponent as the shared scale. The
//    shared scale itself is stored as a 4-bit offset from a tensor-wise
//    global scale (Fig 2(c)).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/bfloat16.h"
#include "common/float_bits.h"

namespace opal {

/// How shifted-out significand bits are resolved. Hardware shifters truncate
/// (Fig 2 crosses the bits out); the MX spec rounds to nearest. Both are
/// supported; experiments default to nearest.
enum class RoundingMode : std::uint8_t { kNearest, kTruncate };

/// Block-format parameters. `bits` is the paper's b = sign + mantissa bits of
/// a non-outlier element; `outliers` is n, the bf16 values preserved per
/// block (0 for plain MXINT / MinMax).
struct BlockFormat {
  std::size_t block_size = 128;  // k
  int bits = 4;                  // b (>= 2)
  std::size_t outliers = 0;      // n
  RoundingMode rounding = RoundingMode::kNearest;

  [[nodiscard]] int max_code() const { return (1 << (bits - 1)) - 1; }
};

/// One preserved outlier: its position within the block and its bf16 value.
struct Outlier {
  std::uint16_t index = 0;
  bfloat16 value{};
};

/// Encoded form of one k-element block.
struct QuantizedBlock {
  /// Shared-scale offset from the tensor's global scale, 4-bit in hardware.
  std::uint8_t scale_offset = 0;
  /// Signed non-outlier codes, |code| <= 2^(b-1)-1. Outlier slots hold 0.
  std::vector<std::int16_t> codes;
  /// Preserved outliers (empty for MXINT).
  std::vector<Outlier> outliers;
};

/// Encoded form of a tensor: a sequence of blocks plus the tensor-wise global
/// shared scale (an unbiased power-of-two exponent).
struct QuantizedTensor {
  BlockFormat format;
  int global_scale = 0;
  std::size_t count = 0;  // original element count (last block may be short)
  std::vector<QuantizedBlock> blocks;

  /// Exact storage footprint of this encoding in bits, counting element
  /// codes, per-block 4-bit scale offsets, outlier values and their 7-bit
  /// in-block indices, and the amortized 8-bit global scale.
  [[nodiscard]] std::size_t storage_bits() const;

  /// Effective shared-scale exponent of block `i` (global + offset).
  [[nodiscard]] int block_scale(std::size_t i) const {
    return global_scale + static_cast<int>(blocks[i].scale_offset);
  }
};

/// Paper Eq. (1): memory overhead of MX-OPAL relative to MXINT/MinMax,
/// OMEM = ((k-n)b + 16n + 4) / (kb + 8).
[[nodiscard]] double mx_opal_memory_overhead(std::size_t k, std::size_t n,
                                             int b);

/// Unbiased exponent of a value after bfloat16 rounding; returns
/// `kZeroExponent` for zero (so it never wins a max-exponent scan).
inline constexpr int kZeroExponent = -127;
[[nodiscard]] int bf16_exponent_of(float v);

/// Tensor-wise global scale over per-block shared scales: the lowest one,
/// skipping all-zero blocks (`kZeroExponent`); 0 when every block is zero.
[[nodiscard]] inline int global_scale_of(std::span<const int> block_scales) {
  int global = std::numeric_limits<int>::max();
  for (const int s : block_scales) {
    if (s != kZeroExponent) global = std::min(global, s);
  }
  return global == std::numeric_limits<int>::max() ? 0 : global;
}

/// 4-bit scale-offset field of a block against the tensor's global scale.
/// A block more than 15 octaves above the global scale saturates (its large
/// elements clip to max code); a block with no scale (`kZeroExponent`, all
/// zero) takes offset 0.
[[nodiscard]] inline int block_scale_offset(int block_scale,
                                            int global_scale) {
  if (block_scale == kZeroExponent) return 0;
  return std::clamp(block_scale - global_scale, 0, 15);
}

/// Signed code of `v` at bfloat16 precision (what the quantizer hardware
/// sees) on the grid whose step is 1 / `inv_step`: |x| / step rounded
/// (kNearest: half away from zero) or truncated, saturated at `max_code`.
/// Zero and NaN give 0 (hardware treats NaN payloads as zero); infinities
/// and any quotient at or past the grid edge saturate. Written with integer
/// masks instead of branches so the fused MX element loop vectorizes.
[[nodiscard]] inline std::int32_t quantize_to_code(float v, float inv_step,
                                                   std::int32_t max_code,
                                                   RoundingMode rounding) {
  const std::uint32_t bits = static_cast<std::uint32_t>(bfloat16(v).bits())
                             << 16;
  const std::uint32_t abs_bits = bits & 0x7FFFFFFFu;
  // Exact: scaling by a power of two is the shifter's job, and x * 2^-e
  // rounds like x / 2^e (the same real value, rounded once).
  const float magnitude = f32_from_bits(abs_bits) * inv_step;
  // Saturating shifter output. Non-negative floats order like their bits,
  // and a NaN quotient's bits exceed every finite bound, so it saturates.
  const float clipped = f32_from_bits(std::min(
      f32_bits(magnitude), f32_bits(static_cast<float>(max_code))));
  std::int32_t q = static_cast<std::int32_t>(clipped);  // truncate
  // clipped - q is exact (clipped < 2^15) and non-negative, so this is
  // lround's half away from zero without its double rounding.
  const float frac = clipped - static_cast<float>(q);
  q += static_cast<std::int32_t>(rounding == RoundingMode::kNearest) &
       static_cast<std::int32_t>(f32_bits(frac) >= f32_bits(0.5f));
  // Zero and NaN give 0: keep q only for 0 < |x| <= inf.
  q &= -static_cast<std::int32_t>(abs_bits - 1u < 0x7F800000u);
  const std::int32_t sign = -static_cast<std::int32_t>(bits >> 31);
  return (q ^ sign) - sign;
}

/// Reciprocal of the grid step of a b-bit element under shared scale s:
/// 2^-(s-(b-2)), exact because the step is a power of two.
[[nodiscard]] inline float inverse_step(int shared_scale, int bits) {
  return 1.0f / exp2i(shared_scale - (bits - 2));
}

/// Dequantizes one code against a shared-scale exponent: code * 2^(s-(b-2)).
[[nodiscard]] inline float dequantize_code(std::int16_t code, int shared_scale,
                                           int bits) {
  if (code == 0) return 0.0f;
  return static_cast<float>(code) * exp2i(shared_scale - (bits - 2));
}

/// Quantizes one value against a shared-scale exponent with saturation.
/// The quantizer hardware sees the value at bfloat16 precision.
[[nodiscard]] inline std::int16_t quantize_code(float v, int shared_scale,
                                                int bits,
                                                RoundingMode rounding) {
  return static_cast<std::int16_t>(quantize_to_code(
      v, inverse_step(shared_scale, bits), (1 << (bits - 1)) - 1, rounding));
}

}  // namespace opal
