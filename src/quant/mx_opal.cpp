#include "quant/mx_opal.h"

#include <algorithm>
#include <cstdint>

#include "common/float_bits.h"
#include "common/tensor.h"
#include "quant/mxint.h"

namespace opal {

MxOpalQuantizer::MxOpalQuantizer(std::size_t block_size, int bits,
                                 std::size_t outliers, RoundingMode rounding)
    : format_{block_size, bits, outliers, rounding} {
  require(block_size >= 1, "MxOpalQuantizer: block_size >= 1");
  require(bits >= 2 && bits <= 15, "MxOpalQuantizer: bits in [2,15]");
  require(outliers < block_size, "MxOpalQuantizer: outliers < block_size");
}

std::string MxOpalQuantizer::name() const {
  return "MX-OPAL" + std::to_string(format_.bits);
}

namespace {

// A kept element of the pass-1 selection: its magnitude key and in-block
// index.
struct Candidate {
  std::uint32_t key;
  std::uint32_t index;
};

// |x| as an integer; see the header for the order it gives.
std::uint32_t magnitude_key(float x) { return f32_bits(x) & 0x7FFFFFFFu; }

struct BlockPlan {
  int scale;             // shared scale of the non-outliers
  std::size_t outliers;  // min(n, len); top[0, outliers) sorted by index
};

// Pass 1 for one block, with `top` holding n + 1 slots. A fixed insertion
// keeps the n + 1 largest keys (descending, ties to the lower index). The
// first n are the outliers; the (n+1)-th is the largest non-outlier, whose
// bf16 exponent is the block's shared scale. That equals
// select_shared_scale(block, n + 1) because bf16 rounding and exponent
// extraction are monotone in the key. A block of len <= n has no
// remainder and gets kZeroExponent.
BlockPlan plan_block(std::span<const float> block, std::span<Candidate> top) {
  const std::size_t slots = top.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const std::uint32_t key = magnitude_key(block[i]);
    if (kept == slots && key <= top[slots - 1].key) continue;
    std::size_t j = kept < slots ? kept++ : slots - 1;
    for (; j > 0 && top[j - 1].key < key; --j) top[j] = top[j - 1];
    top[j] = {key, static_cast<std::uint32_t>(i)};
  }
  const BlockPlan plan{
      kept == slots ? bf16_exponent_of(f32_from_bits(top[slots - 1].key))
                    : kZeroExponent,
      std::min(slots - 1, kept)};
  std::sort(top.begin(), top.begin() + static_cast<long>(plan.outliers),
            [](Candidate a, Candidate b) { return a.index < b.index; });
  return plan;
}

// Elements per stack chunk of the fused element loop.
constexpr std::size_t kChunk = 16;

// Per-thread plan of the fused path: each block's scale and its n + 1
// candidate slots. Grow-only, so steady-state calls do not allocate.
struct FusedScratch {
  std::vector<int> scales;
  std::vector<Candidate> top;
};

}  // namespace

std::vector<std::size_t> top_n_magnitude_indices(std::span<const float> block,
                                                 std::size_t n) {
  std::vector<Candidate> top(std::min(n, block.size()) + 1);
  const BlockPlan plan = plan_block(block, top);
  std::vector<std::size_t> idx(plan.outliers);
  for (std::size_t j = 0; j < idx.size(); ++j) idx[j] = top[j].index;
  return idx;
}

QuantizedTensor mx_encode(const BlockFormat& format,
                          std::span<const float> in) {
  QuantizedTensor qt;
  qt.format = format;
  qt.count = in.size();

  // Pass 1: pick outliers and block scales.
  std::vector<Candidate> top(format.outliers + 1);
  std::vector<int> scales;
  for (std::size_t off = 0; off < in.size(); off += format.block_size) {
    const auto block =
        in.subspan(off, std::min(format.block_size, in.size() - off));
    const BlockPlan plan = plan_block(block, top);
    scales.push_back(plan.scale);
    auto& qb = qt.blocks.emplace_back();
    qb.codes.resize(block.size(), 0);
    for (std::size_t j = 0; j < plan.outliers; ++j) {
      const std::uint32_t i = top[j].index;
      qb.outliers.push_back(
          {static_cast<std::uint16_t>(i), bfloat16(block[i])});
    }
  }
  assign_global_scale(qt, scales);

  // Pass 2: encode against the (possibly offset-saturated) effective scale.
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    const std::size_t off = b * format.block_size;
    const auto block =
        in.subspan(off, std::min(format.block_size, in.size() - off));
    auto& qb = qt.blocks[b];
    const int scale = qt.block_scale(b);
    for (std::size_t i = 0; i < block.size(); ++i) {
      qb.codes[i] =
          quantize_code(block[i], scale, format.bits, format.rounding);
    }
    for (const Outlier& o : qb.outliers) qb.codes[o.index] = 0;
  }
  return qt;
}

void mx_quantize_dequantize(const BlockFormat& format,
                            std::span<const float> in, std::span<float> out) {
  require(in.size() == out.size(), "MX quantize_dequantize: size mismatch");
  const std::size_t k = format.block_size;
  const std::size_t slots = format.outliers + 1;
  const std::size_t n_blocks = (in.size() + k - 1) / k;
  thread_local FusedScratch scratch;
  if (scratch.scales.size() < n_blocks) scratch.scales.resize(n_blocks);
  if (scratch.top.size() < n_blocks * slots) {
    scratch.top.resize(n_blocks * slots);
  }

  // Pass 1: per-block plans, then the global scale over them.
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t off = b * k;
    const auto block = in.subspan(off, std::min(k, in.size() - off));
    scratch.scales[b] =
        plan_block(block, std::span(scratch.top).subspan(b * slots, slots))
            .scale;
  }
  const int global =
      global_scale_of(std::span(scratch.scales).first(n_blocks));

  // Pass 2: fake-quantize every element against the effective block scale,
  // then restore the outliers at bf16. Their inputs are read first, since
  // `in` and `out` may alias.
  const int max_code = format.max_code();
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t off = b * k;
    const std::size_t len = std::min(k, in.size() - off);
    const auto src = in.subspan(off, len);
    const auto dst = out.subspan(off, len);
    const int scale = global + block_scale_offset(scratch.scales[b], global);
    const float step = exp2i(scale - (format.bits - 2));
    const float inv_step = inverse_step(scale, format.bits);
    const auto outliers = std::span(scratch.top).subspan(
        b * slots, std::min(format.outliers, len));
    for (Candidate& c : outliers) c.key = f32_bits(to_bf16(src[c.index]));
    // Each chunk is read whole before it is written, which keeps an aliased
    // call correct and lets the compiler vectorize the chunk loop.
    for (std::size_t i = 0; i < len; i += kChunk) {
      const std::size_t m = std::min(kChunk, len - i);
      float chunk[kChunk];
      for (std::size_t j = 0; j < m; ++j) {
        const std::int32_t q =
            quantize_to_code(src[i + j], inv_step, max_code, format.rounding);
        // dequantize_code: code 0 is +0.0f even when the step is not finite.
        const float value = static_cast<float>(q) * step;
        chunk[j] = f32_from_bits(f32_bits(value) &
                                 -static_cast<std::uint32_t>(q != 0));
      }
      std::copy_n(chunk, m, dst.begin() + static_cast<long>(i));
    }
    for (const Candidate& c : outliers) dst[c.index] = f32_from_bits(c.key);
  }
}

QuantizedTensor MxOpalQuantizer::encode(std::span<const float> in) const {
  return mx_encode(format_, in);
}

void MxOpalQuantizer::quantize_dequantize(std::span<const float> in,
                                          std::span<float> out) const {
  mx_quantize_dequantize(format_, in, out);
}

std::size_t MxOpalQuantizer::storage_bits(std::size_t count) const {
  // Eq. (1) numerator per full block; short tail blocks accounted pro rata
  // through the encoding path (tests use full blocks).
  const std::size_t k = format_.block_size;
  const std::size_t n = format_.outliers;
  const auto b = static_cast<std::size_t>(format_.bits);
  const std::size_t blocks = (count + k - 1) / k;
  std::size_t bits = 0;
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t len = std::min(k, count - i * k);
    const std::size_t nn = std::min(n, len);
    bits += (len - nn) * b + 16 * nn + 4;
  }
  return bits;
}

double MxOpalQuantizer::memory_overhead() const {
  return mx_opal_memory_overhead(format_.block_size, format_.outliers,
                                 format_.bits);
}

}  // namespace opal
