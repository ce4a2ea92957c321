#include "quant/mxint.h"

#include <algorithm>
#include <cmath>

#include "common/float_bits.h"
#include "common/tensor.h"
#include "quant/mx_opal.h"

namespace opal {

MxIntQuantizer::MxIntQuantizer(std::size_t block_size, int bits,
                               RoundingMode rounding)
    : format_{block_size, bits, /*outliers=*/0, rounding} {
  require(block_size >= 1, "MxIntQuantizer: block_size >= 1");
  require(bits >= 2 && bits <= 15, "MxIntQuantizer: bits in [2,15]");
}

std::string MxIntQuantizer::name() const {
  return "MXINT" + std::to_string(format_.bits);
}

int select_shared_scale(std::span<const float> block, std::size_t m) {
  require(m >= 1, "select_shared_scale: m >= 1");
  std::vector<int> exps;
  exps.reserve(block.size());
  for (const float v : block) exps.push_back(bf16_exponent_of(v));
  if (m > exps.size()) return kZeroExponent;
  std::nth_element(exps.begin(), exps.begin() + static_cast<long>(m - 1),
                   exps.end(), std::greater<int>());
  return exps[m - 1];
}

void assign_global_scale(QuantizedTensor& qt,
                         std::span<const int> block_scales) {
  require(block_scales.size() == qt.blocks.size(),
          "assign_global_scale: scale count mismatch");
  const int global = global_scale_of(block_scales);
  qt.global_scale = global;
  for (std::size_t i = 0; i < qt.blocks.size(); ++i) {
    qt.blocks[i].scale_offset =
        static_cast<std::uint8_t>(block_scale_offset(block_scales[i], global));
  }
}

QuantizedTensor MxIntQuantizer::encode(std::span<const float> in) const {
  return mx_encode(format_, in);
}

std::vector<float> decode(const QuantizedTensor& qt) {
  std::vector<float> out;
  out.reserve(qt.count);
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    const auto& block = qt.blocks[b];
    const int scale = qt.block_scale(b);
    const std::size_t base = out.size();
    for (const std::int16_t code : block.codes) {
      out.push_back(dequantize_code(code, scale, qt.format.bits));
    }
    for (const auto& outlier : block.outliers) {
      out[base + outlier.index] = outlier.value.to_float();
    }
  }
  return out;
}

void MxIntQuantizer::quantize_dequantize(std::span<const float> in,
                                         std::span<float> out) const {
  // MXINT is MX-OPAL with no outliers: its scale select_shared_scale(block,
  // 1) is the fused routine's at n = 0.
  mx_quantize_dequantize(format_, in, out);
}

std::size_t MxIntQuantizer::storage_bits(std::size_t count) const {
  const std::size_t blocks =
      (count + format_.block_size - 1) / format_.block_size;
  return count * static_cast<std::size_t>(format_.bits) + blocks * 8;
}

}  // namespace opal
