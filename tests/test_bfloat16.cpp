#include "common/bfloat16.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "common/float_bits.h"

namespace opal {
namespace {

TEST(Bfloat16, DefaultIsZero) {
  bfloat16 v;
  EXPECT_EQ(v.bits(), 0u);
  EXPECT_EQ(v.to_float(), 0.0f);
  EXPECT_TRUE(v.is_zero());
}

TEST(Bfloat16, ExactValuesRoundTrip) {
  for (const float v : {1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 96.0f, 1.5f}) {
    EXPECT_EQ(bfloat16(v).to_float(), v) << v;
  }
}

TEST(Bfloat16, WideningIsExact) {
  // Every bfloat16 bit pattern widens to a float that rounds back to the
  // same pattern (skip NaN payload normalization).
  for (std::uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const auto h = bfloat16::from_bits(static_cast<std::uint16_t>(bits));
    const float f = h.to_float();
    if (std::isnan(f)) continue;
    EXPECT_EQ(bfloat16(f).bits(), h.bits()) << bits;
  }
}

TEST(Bfloat16, RoundsToNearestEven) {
  // 1.0 + 2^-8 is exactly halfway between 1.0 and the next bf16 value
  // (1 + 2^-7); ties go to even (1.0, whose mantissa LSB is 0).
  const float halfway = 1.0f + std::ldexp(1.0f, -8);
  EXPECT_EQ(bfloat16(halfway).to_float(), 1.0f);
  // Just above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -12);
  EXPECT_EQ(bfloat16(above).to_float(), 1.0f + std::ldexp(1.0f, -7));
}

TEST(Bfloat16, RoundingErrorBounded) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
  for (int i = 0; i < 10000; ++i) {
    const float v = dist(rng);
    const float r = to_bf16(v);
    // Relative error bounded by half ULP = 2^-8 of the magnitude.
    EXPECT_LE(std::abs(r - v), std::ldexp(std::abs(v), -8) + 1e-30f) << v;
  }
}

TEST(Bfloat16, FieldAccessors) {
  const bfloat16 v(-6.5f);  // -1.101b * 2^2
  EXPECT_EQ(v.sign(), 1);
  EXPECT_EQ(v.unbiased_exponent(), 2);
  EXPECT_EQ(v.biased_exponent(), 129);
  EXPECT_EQ(v.mantissa(), 0b1010000u);
}

TEST(Bfloat16, SignedZeroAndNegation) {
  const bfloat16 pz(0.0f);
  const bfloat16 nz = -pz;
  EXPECT_TRUE(nz.is_zero());
  EXPECT_EQ(nz.sign(), 1);
  EXPECT_TRUE(pz == nz);  // numeric comparison: +0 == -0
}

TEST(Bfloat16, NanStaysNan) {
  const bfloat16 nan(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(nan.to_float()));
}

TEST(Bfloat16, InfinityPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bfloat16(inf).to_float(), inf);
  EXPECT_EQ(bfloat16(-inf).to_float(), -inf);
}

TEST(Bfloat16, LargeFiniteDoesNotFlushToZero) {
  const float near_max = 3.3e38f;
  EXPECT_TRUE(std::isfinite(bfloat16(near_max).to_float()));
}

TEST(Bfloat16, Arithmetic) {
  const bfloat16 a(1.5f), b(2.5f);
  EXPECT_EQ((a + b).to_float(), 4.0f);
  EXPECT_EQ((a * b).to_float(), 3.75f);
  EXPECT_EQ((b - a).to_float(), 1.0f);
  EXPECT_EQ((b / a).to_float(), to_bf16(2.5f / 1.5f));
}

TEST(Bfloat16, Ordering) {
  EXPECT_LT(bfloat16(1.0f), bfloat16(2.0f));
  EXPECT_GT(bfloat16(-1.0f), bfloat16(-2.0f));
}

TEST(FloatBits, SignificandInUnitRange) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  for (int i = 0; i < 1000; ++i) {
    float v = dist(rng);
    if (v == 0.0f) continue;
    const float m = f32_significand(v);
    EXPECT_GE(m, 1.0f);
    EXPECT_LT(m, 2.0f);
    // v == +/- m * 2^e reconstructs.
    const float rec = (f32_sign(v) ? -1.0f : 1.0f) * m *
                      exp2i(f32_unbiased_exponent(v));
    EXPECT_FLOAT_EQ(rec, v);
  }
}

TEST(FloatBits, Exp2iMatchesLdexp) {
  // Exact in the normal range, +inf above it (as ldexp), and +0 below it
  // where ldexp would go subnormal — never a wrapped exponent field.
  for (int e = -300; e <= 300; ++e) {
    const float want = e < -126 ? 0.0f : std::ldexp(1.0f, e);
    EXPECT_EQ(f32_bits(exp2i(e)), f32_bits(want)) << e;
  }
}

TEST(FloatBits, ComposeRoundTrips) {
  const float v = -13.625f;
  const float rec =
      f32_compose(f32_sign(v), f32_biased_exponent(v), f32_mantissa(v));
  EXPECT_EQ(rec, v);
}

}  // namespace
}  // namespace opal
