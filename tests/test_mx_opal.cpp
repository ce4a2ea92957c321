#include "quant/mx_opal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <tuple>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "quant/mxint.h"

// Every global operator new in this binary is counted, so a test can assert
// that a steady-state call allocates nothing. The array and sized forms
// forward here and to the operator delete below by default.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// All out of line, so no caller sees malloc paired with operator delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace opal {
namespace {

std::vector<float> outlier_block(std::size_t size, std::size_t outlier_pos,
                                 float outlier_value, std::uint64_t seed) {
  Rng rng = make_rng(seed);
  std::vector<float> block(size);
  fill_laplace(rng, block, 0.5f);
  block[outlier_pos] = outlier_value;
  return block;
}

TEST(MxOpal, PreservesOutliersExactly) {
  auto block = outlier_block(128, 17, 96.0f, 5);
  MxOpalQuantizer quant(128, 4, 4);
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  // The planted outlier survives at bf16 precision (96 is bf16-exact).
  EXPECT_EQ(out[17], 96.0f);
}

TEST(MxOpal, SharedScaleIsNPlusFirstExponent) {
  // With n=1 the scale must be the 2nd highest exponent (Fig 2(c)):
  // values {96, 3.5, ...small...}: scale = exp(3.5) = 1, not exp(96) = 6.
  std::vector<float> block(8, 0.25f);
  block[0] = 96.0f;
  block[1] = 3.5f;
  MxOpalQuantizer quant(8, 4, 1);
  const auto qt = quant.encode(block);
  EXPECT_EQ(qt.block_scale(0), 1);
  ASSERT_EQ(qt.blocks[0].outliers.size(), 1u);
  EXPECT_EQ(qt.blocks[0].outliers[0].index, 0);
  EXPECT_EQ(qt.blocks[0].outliers[0].value.to_float(), 96.0f);
}

TEST(MxOpal, OutlierSlotsCarryZeroCodes) {
  auto block = outlier_block(64, 9, -50.0f, 6);
  MxOpalQuantizer quant(64, 4, 2);
  const auto qt = quant.encode(block);
  for (const auto& outlier : qt.blocks[0].outliers) {
    EXPECT_EQ(qt.blocks[0].codes[outlier.index], 0);
  }
}

TEST(MxOpal, ExactlyNOutliersPerBlock) {
  Rng rng = make_rng(11);
  std::vector<float> in(128 * 4);
  fill_gaussian(rng, in, 0.0f, 1.0f);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(in);
  ASSERT_EQ(qt.blocks.size(), 4u);
  for (const auto& block : qt.blocks) {
    EXPECT_EQ(block.outliers.size(), 4u);
  }
}

TEST(MxOpal, TopNMagnitudesSelected) {
  std::vector<float> block = {1.0f, -9.0f, 3.0f, 0.5f, 8.0f, -0.1f};
  const auto top2 = top_n_magnitude_indices(block, 2);
  EXPECT_EQ(top2, (std::vector<std::size_t>{1, 4}));
}

TEST(MxOpal, TopNTiesBrokenByPosition) {
  std::vector<float> block = {2.0f, -2.0f, 2.0f};
  const auto top2 = top_n_magnitude_indices(block, 2);
  EXPECT_EQ(top2, (std::vector<std::size_t>{0, 1}));
}

TEST(MxOpal, TopNClampsToBlockSize) {
  std::vector<float> block = {1.0f, 2.0f};
  EXPECT_EQ(top_n_magnitude_indices(block, 10).size(), 2u);
}

TEST(MxOpal, BeatsMxIntOnOutlierBlocks) {
  // The paper's core claim at block level (Fig 3): preserving the outlier
  // moves the shared scale to the bulk and cuts the MSE severalfold.
  double mxint_total = 0.0, opal_total = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto block = outlier_block(128, (seed * 13) % 128, 64.0f, seed);
    MxIntQuantizer mxint(128, 4);
    MxOpalQuantizer opal4(128, 4, 1);
    std::vector<float> out_mxint(block.size()), out_opal(block.size());
    mxint.quantize_dequantize(block, out_mxint);
    opal4.quantize_dequantize(block, out_opal);
    mxint_total += mse(block, out_mxint);
    opal_total += mse(block, out_opal);
  }
  EXPECT_LT(opal_total, mxint_total / 4.0);
}

TEST(MxOpal, ZeroOutliersDegeneratesToMxInt) {
  Rng rng = make_rng(21);
  std::vector<float> in(256);
  fill_gaussian(rng, in, 0.0f, 2.0f);
  MxOpalQuantizer opal0(128, 4, 0);
  MxIntQuantizer mxint(128, 4);
  std::vector<float> a(in.size()), b(in.size());
  opal0.quantize_dequantize(in, a);
  mxint.quantize_dequantize(in, b);
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(MxOpal, MoreOutliersNeverHurtOnHeavyTails) {
  Rng rng = make_rng(31);
  std::vector<float> in(128 * 8);
  fill_laplace(rng, in, 1.0f);
  for (std::size_t i = 0; i < in.size(); i += 64) in[i] *= 32.0f;
  double prev = 1e300;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    MxOpalQuantizer quant(128, 4, n);
    std::vector<float> out(in.size());
    quant.quantize_dequantize(in, out);
    const double err = mse(in, out);
    EXPECT_LE(err, prev * 1.05) << "n=" << n;
    prev = err;
  }
}

TEST(MxOpal, DecodeMatchesQuantizeDequantize) {
  Rng rng = make_rng(41);
  std::vector<float> in(300);
  fill_laplace(rng, in, 2.0f);
  MxOpalQuantizer quant(128, 5, 4);
  std::vector<float> direct(in.size());
  quant.quantize_dequantize(in, direct);
  const auto decoded = decode(quant.encode(in));
  ASSERT_EQ(decoded.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(decoded[i], direct[i]) << i;
  }
}

TEST(MxOpal, StorageBitsMatchesEq1) {
  MxOpalQuantizer quant(128, 4, 4);
  // One full block: (128-4)*4 + 16*4 + 4 bits.
  EXPECT_EQ(quant.storage_bits(128), (128u - 4) * 4 + 16 * 4 + 4);
  EXPECT_NEAR(quant.memory_overhead(),
              static_cast<double>(quant.storage_bits(128) + 4) /
                  (128.0 * 4 + 8),
              0.01);
}

TEST(MxOpal, GlobalScalePlusOffsetExample) {
  // Two blocks with very different magnitudes: global scale is the lower
  // block scale and the hotter block carries the offset (Fig 2(c)).
  std::vector<float> in(256, 0.0f);
  for (std::size_t i = 0; i < 128; ++i) in[i] = 0.01f;       // exp -7
  for (std::size_t i = 128; i < 256; ++i) in[i] = 20.0f;     // exp 4
  MxOpalQuantizer quant(128, 4, 0);
  const auto qt = quant.encode(in);
  EXPECT_EQ(qt.global_scale, -7);
  EXPECT_EQ(qt.blocks[0].scale_offset, 0);
  EXPECT_EQ(qt.blocks[1].scale_offset, 11);
}

TEST(MxOpal, OffsetSaturationClipsHotBlock) {
  // Block scale > global + 15: codes saturate instead of exploding.
  std::vector<float> in(256, 0.0f);
  for (std::size_t i = 0; i < 128; ++i) in[i] = 0.001f;       // exp -10
  for (std::size_t i = 128; i < 256; ++i) in[i] = 5000.0f;    // exp 12
  MxOpalQuantizer quant(128, 4, 0);
  const auto qt = quant.encode(in);
  EXPECT_EQ(qt.blocks[1].scale_offset, 15);
  // Saturated codes: max code at the effective scale.
  EXPECT_EQ(qt.blocks[1].codes[0], 7);
}

TEST(MxOpal, RejectsOutliersGEBlockSize) {
  EXPECT_THROW(MxOpalQuantizer(4, 4, 4), std::invalid_argument);
}

// Parameterized property sweep across (bits, n): MX-OPAL never does worse
// than MXINT on activation-like data with planted outliers, and the
// preserved outliers are always bit-exact at bf16.
class MxOpalSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(MxOpalSweep, NeverWorseThanMxInt) {
  const auto [bits, n] = GetParam();
  ActivationModel acts(99, 512, 0.01f, 1.0f);
  Matrix data = acts.sample_matrix(8);
  MxOpalQuantizer opal(128, bits, n);
  MxIntQuantizer mxint(128, bits);
  std::vector<float> out_opal(data.size()), out_mxint(data.size());
  opal.quantize_dequantize(data.flat(), out_opal);
  mxint.quantize_dequantize(data.flat(), out_mxint);
  EXPECT_LE(mse(data.flat(), out_opal), mse(data.flat(), out_mxint) * 1.001)
      << "bits=" << bits << " n=" << n;
}

TEST_P(MxOpalSweep, OutliersBitExact) {
  const auto [bits, n] = GetParam();
  ActivationModel acts(123, 256, 0.02f, 1.0f);
  std::vector<float> data(256);
  acts.sample(data);
  MxOpalQuantizer quant(128, bits, n);
  const auto qt = quant.encode(data);
  std::size_t base = 0;
  for (const auto& block : qt.blocks) {
    for (const auto& outlier : block.outliers) {
      EXPECT_EQ(outlier.value.to_float(),
                to_bf16(data[base + outlier.index]));
    }
    base += block.codes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndOutliers, MxOpalSweep,
    ::testing::Combine(::testing::Values(3, 4, 5, 7, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})));


// ---------------------------------------------------------------------------
// Oracle: the encode-then-decode path as it stood before the fused routine
// (partial_sort outlier selection, nth_element scale selection, lround
// codes, then decode), kept here so the proof does not share the library's
// selection or element arithmetic. Its one change is a comparator that is a
// strict weak order with NaN in the block (NaN above every number, NaNs
// tied and broken by index); the old one was undefined behaviour there.

std::vector<std::size_t> oracle_top_n(std::span<const float> block,
                                      std::size_t n) {
  n = std::min(n, block.size());
  std::vector<std::size_t> idx(block.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(n),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      const bool na = std::isnan(block[a]);
                      const bool nb = std::isnan(block[b]);
                      if (na || nb) return na != nb ? na : a < b;
                      const float ma = std::abs(block[a]);
                      const float mb = std::abs(block[b]);
                      return ma != mb ? ma > mb : a < b;
                    });
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  return idx;
}

int oracle_shared_scale(std::span<const float> block, std::size_t m) {
  std::vector<int> exps;
  for (const float v : block) exps.push_back(bf16_exponent_of(v));
  if (m > exps.size()) return kZeroExponent;
  std::nth_element(exps.begin(), exps.begin() + static_cast<long>(m - 1),
                   exps.end(), std::greater<int>());
  return exps[m - 1];
}

std::int16_t oracle_code(float v, int shared_scale, int bits,
                         RoundingMode rounding) {
  const float x = to_bf16(v);
  if (x == 0.0f || std::isnan(x)) return 0;
  const long max_code = (1L << (bits - 1)) - 1;
  if (std::isinf(x)) {
    return static_cast<std::int16_t>(x < 0.0f ? -max_code : max_code);
  }
  const float magnitude = std::abs(x / exp2i(shared_scale - (bits - 2)));
  long q = rounding == RoundingMode::kNearest ? std::lround(magnitude)
                                              : static_cast<long>(magnitude);
  q = std::min(q, max_code);
  return static_cast<std::int16_t>(x < 0.0f ? -q : q);
}

std::vector<float> oracle_quantize_dequantize(std::span<const float> in,
                                              const BlockFormat& f) {
  std::vector<int> scales;
  std::vector<std::vector<std::size_t>> tops;
  for (std::size_t off = 0; off < in.size(); off += f.block_size) {
    const auto block = in.subspan(off, std::min(f.block_size, in.size() - off));
    tops.push_back(oracle_top_n(block, f.outliers));
    scales.push_back(oracle_shared_scale(block, tops.back().size() + 1));
  }
  int global = 0;
  bool any = false;
  for (const int s : scales) {
    if (s == kZeroExponent) continue;
    global = any ? std::min(global, s) : s;
    any = true;
  }
  std::vector<float> out(in.size());
  for (std::size_t b = 0; b < scales.size(); ++b) {
    const int offset =
        scales[b] == kZeroExponent ? 0 : std::clamp(scales[b] - global, 0, 15);
    const int scale = global + offset;
    const std::size_t off = b * f.block_size;
    const std::size_t len = std::min(f.block_size, in.size() - off);
    std::vector<bool> is_outlier(len, false);
    for (const std::size_t i : tops[b]) is_outlier[i] = true;
    for (std::size_t i = 0; i < len; ++i) {
      const auto code = is_outlier[i] ? std::int16_t{0}
                                      : oracle_code(in[off + i], scale, f.bits,
                                                    f.rounding);
      out[off + i] = code == 0 ? 0.0f
                               : static_cast<float>(code) *
                                     exp2i(scale - (f.bits - 2));
    }
    for (const std::size_t i : tops[b]) out[off + i] = to_bf16(in[off + i]);
  }
  return out;
}

// Bitwise comparison: -0.0 vs +0.0 and NaN payloads count.
void expect_bitwise_equal(std::span<const float> got,
                          std::span<const float> want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(f32_bits(got[i]), f32_bits(want[i]))
        << what << " at " << i << ": got " << got[i] << ", want " << want[i];
  }
}

// Fused path out of place, in place, and decode(encode()), each bitwise
// against the oracle.
void expect_matches_oracle(const MxOpalQuantizer& quant,
                           std::span<const float> in,
                           const std::string& what) {
  const auto want = oracle_quantize_dequantize(in, quant.format());
  std::vector<float> out(in.size(), -1.0f);
  quant.quantize_dequantize(in, out);
  expect_bitwise_equal(out, want, what + " out of place");
  std::vector<float> inplace(in.begin(), in.end());
  quant.quantize_dequantize(inplace, inplace);
  expect_bitwise_equal(inplace, want, what + " in place");
  expect_bitwise_equal(decode(quant.encode(in)), want,
                       what + " decode(encode())");
}

// Test tensors: random, tied, zero, sparse and saturating shapes, with
// lengths that leave short tail blocks (including len <= n).
std::vector<std::pair<std::string, std::vector<float>>> property_inputs(
    std::size_t k, std::size_t n, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::vector<float>>> cases;
  Rng rng = make_rng(seed);
  const std::vector<std::size_t> lengths = {1, n, n + 1, k - 1, k, k + 1,
                                            2 * k + n, 3 * k + 5};
  for (const std::size_t len : lengths) {
    if (len == 0) continue;
    std::vector<float> v(len);
    fill_laplace(rng, v, 1.0f);
    for (std::size_t i = 0; i < len; i += 37) v[i] *= 40.0f;
    cases.emplace_back("laplace len " + std::to_string(len), v);
    fill_gaussian(rng, v, 0.0f, 0.01f);
    cases.emplace_back("small gaussian len " + std::to_string(len), v);
    // Magnitude ties: values from a five-element set, both signs.
    const float tie_set[] = {0.0f, 0.5f, 1.0f, 2.0f, 4.0f};
    for (std::size_t i = 0; i < len; ++i) {
      const float m = tie_set[(i * 7 + seed) % 5];
      v[i] = (i % 3 == 0) ? -m : m;
    }
    cases.emplace_back("ties len " + std::to_string(len), v);
    // Exactly representable grid points and halves (rounding boundaries).
    for (std::size_t i = 0; i < len; ++i) {
      v[i] = static_cast<float>(static_cast<int>((i * 13 + seed) % 33) - 16) *
             0.25f;
    }
    cases.emplace_back("halves len " + std::to_string(len), v);
    std::vector<float> zeros(len, 0.0f);
    for (std::size_t i = 1; i < len; i += 2) zeros[i] = -0.0f;
    cases.emplace_back("all zero len " + std::to_string(len), zeros);
    // Fewer than n nonzeros per block.
    std::vector<float> sparse(len, 0.0f);
    for (std::size_t i = 0; i < len; i += std::max<std::size_t>(k / 2, 1)) {
      sparse[i] = 3.0f + static_cast<float>(i % 5);
    }
    cases.emplace_back("sparse len " + std::to_string(len), sparse);
    // Wide dynamic range: exponents spread over [-30, 30].
    std::uniform_int_distribution<int> e(-30, 30);
    for (std::size_t i = 0; i < len; ++i) {
      v[i] = std::ldexp(1.0f + static_cast<float>(i % 128) / 128.0f, e(rng)) *
             ((i & 1) ? -1.0f : 1.0f);
    }
    cases.emplace_back("wide range len " + std::to_string(len), v);
  }
  // A block whose scale sits 20 octaves above the global scale: the 4-bit
  // offset saturates and the hot block clips.
  std::vector<float> hot(3 * k);
  fill_laplace(rng, hot, 1.0f);
  for (std::size_t i = 0; i < k; ++i) hot[i] *= 1e-3f;
  for (std::size_t i = k; i < 2 * k; ++i) hot[i] *= 2000.0f;
  cases.emplace_back("offset saturation", hot);
  return cases;
}

class MxOpalFusedProperty
    : public ::testing::TestWithParam<
          std::tuple<RoundingMode, int, std::size_t>> {};

TEST_P(MxOpalFusedProperty, BitwiseEqualToEncodeDecodeOracle) {
  const auto [rounding, bits, n] = GetParam();
  for (const std::size_t k : {std::size_t{16}, std::size_t{128}}) {
    const MxOpalQuantizer quant(k, bits, n, rounding);
    const MxIntQuantizer mxint(k, bits, rounding);
    for (const auto& [name, in] :
         property_inputs(k, n, static_cast<std::uint64_t>(bits) * 31 + n)) {
      const std::string what = name + " k=" + std::to_string(k);
      expect_matches_oracle(quant, in, what);
      if (n == 0) {  // MXINT is the zero-outlier case of the same routine
        const auto want = oracle_quantize_dequantize(in, mxint.format());
        std::vector<float> out(in.size());
        mxint.quantize_dequantize(in, out);
        expect_bitwise_equal(out, want, "MXINT " + what);
        expect_bitwise_equal(decode(mxint.encode(in)), want,
                             "MXINT decode(encode()) " + what);
      }
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RoundingBitsOutliers, MxOpalFusedProperty,
    ::testing::Combine(::testing::Values(RoundingMode::kNearest,
                                         RoundingMode::kTruncate),
                       ::testing::Range(2, 16),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{4}, std::size_t{8})));

TEST(MxOpalFused, NonFiniteAndSubnormalBlocks) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float min_normal = std::numeric_limits<float>::min();
  // Each 16-element block carries at most 3 non-finite values among
  // finite, -0.0 and subnormal ones.
  std::vector<float> in(64);
  Rng rng = make_rng(3);
  fill_laplace(rng, in, 1.0f);
  in[2] = nan;
  in[5] = -kInf;
  in[9] = -0.0f;
  in[11] = denorm * 3.0f;
  in[16 + 0] = kInf;
  in[16 + 1] = -nan;
  in[16 + 15] = kInf;
  in[32 + 4] = min_normal / 4.0f;
  in[32 + 5] = -min_normal;
  in[32 + 6] = -0.0f;
  in[48 + 7] = nan;
  for (std::size_t i = 48; i < 64; ++i) {
    if (i != 48 + 7) in[i] = denorm * static_cast<float>(i);
  }
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{8}}) {
    for (const int bits : {4, 7}) {
      const MxOpalQuantizer quant(16, bits, n);
      const std::string what =
          "n=" + std::to_string(n) + " bits=" + std::to_string(bits);
      const auto qt = quant.encode(in);
      ASSERT_EQ(qt.blocks.size(), 4u);
      for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
        const auto block = std::span<const float>(in).subspan(b * 16, 16);
        const auto top = top_n_magnitude_indices(block, n);
        ASSERT_EQ(top.size(), qt.blocks[b].outliers.size()) << what;
        for (std::size_t j = 0; j < top.size(); ++j) {
          EXPECT_EQ(top[j], qt.blocks[b].outliers[j].index) << what;
        }
        // Every non-finite element is an outlier while there are at most n.
        std::size_t non_finite = 0;
        for (const float v : block) non_finite += std::isfinite(v) ? 0 : 1;
        if (non_finite <= n) {
          for (std::size_t i = 0; i < block.size(); ++i) {
            if (!std::isfinite(block[i])) {
              EXPECT_NE(std::find(top.begin(), top.end(), i), top.end())
                  << what << " block " << b << " index " << i;
            }
          }
        }
      }
      expect_matches_oracle(quant, in, what);
    }
  }
}

TEST(MxOpalFused, TopNRanksNanAboveInfAboveFinite) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> block = {1e30f, -kInf, 5.0f, nan, -1e30f, 0.0f};
  EXPECT_EQ(top_n_magnitude_indices(block, 1),
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(top_n_magnitude_indices(block, 2),
            (std::vector<std::size_t>{1, 3}));
  // +-1e30 tie on magnitude: the lower index wins.
  EXPECT_EQ(top_n_magnitude_indices(block, 3),
            (std::vector<std::size_t>{0, 1, 3}));
}

TEST(MxOpalFused, SteadyStateCallsAllocateNothing) {
  // The counter sees this binary's allocations.
  const std::size_t probe = g_allocations.load();
  ::operator delete(::operator new(16));
  ASSERT_EQ(g_allocations.load(), probe + 1);

  const MxOpalQuantizer opal(128, 4, 4);
  const MxIntQuantizer mxint(128, 4);
  ActivationModel acts(5, 2048, 0.01f, 1.0f);
  std::vector<float> wide(2048), out(2048), row(512);
  acts.sample(wide);
  std::copy_n(wide.begin(), row.size(), row.begin());
  // Warm-up: each thread's plan grows to the largest size it quantizes.
  opal.quantize_dequantize(wide, out);
  mxint.quantize_dequantize(wide, out);

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    opal.quantize_dequantize(wide, out);
    opal.quantize_dequantize(row, row);
    mxint.quantize_dequantize(wide, out);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace opal
