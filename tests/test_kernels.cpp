// Kernel-layer contract tests (common/kernels.h):
//  * dispatch honors the runtime switches and always yields usable tables;
//  * the dispatched SIMD table matches the scalar reference within
//    reduction-reorder tolerance across odd lengths, unaligned spans, and
//    tails;
//  * the multi-row gemm is BITWISE equal to the same table's matvec for
//    every output, across activation-row counts, column tails, odd weight
//    row counts, and thread-tile sub-ranges;
//  * fused dequantize-dot kernels are BITWISE equal to decode-into-scratch
//    then plain-kernel, within each table — the guarantee the quantized
//    attend path builds on;
//  * the in-register log2/int8 decodes match KvBlockPool's scalar decode
//    exactly for every byte value;
//  * end-to-end: ServingEngine token streams agree between SIMD and
//    forced-scalar kernels, and the fused attend path matches the
//    forced-gather reference bitwise in every kv_mode without ever
//    materializing fp32 gather scratch.
#include "common/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <memory>
#include <vector>

#include "eval/schemes.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

// Deterministic LCG so test data is identical across runs and platforms.
std::uint64_t lcg_state = 0x9e3779b97f4a7c15ull;
float frand() {
  lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<float>((lcg_state >> 33) & 0xffffff) / 0x1000000p0f *
             4.0f -
         2.0f;
}

std::vector<float> rand_vec(std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = frand();
  return v;
}

// The table's dot product, reached through a one-row matvec.
float table_dot(const KernelOps& ops, const float* a, const float* b,
                std::size_t n) {
  float y = 0.0f;
  ops.matvec(a, 1, n, b, &y);
  return y;
}

std::vector<std::int8_t> rand_codes(std::size_t n, bool log2_mode) {
  std::vector<std::int8_t> v(n);
  for (auto& c : v) {
    lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
    const auto byte = static_cast<std::uint8_t>(lcg_state >> 40);
    if (log2_mode) {
      c = static_cast<std::int8_t>(byte);  // any sign|code byte is valid
    } else {
      const int q = static_cast<int>(byte) - 128;
      c = static_cast<std::int8_t>(q == -128 ? -127 : q);  // int8 uses ±127
    }
  }
  return v;
}

// Lengths exercising the 8-wide vector body, the scalar tail (1..7), and
// both at once.
const std::size_t kLengths[] = {1, 2, 3, 5, 7, 8, 9, 13, 16,
                                17, 24, 31, 33, 64, 100, 257};

class KernelDispatch : public ::testing::Test {
 protected:
  void TearDown() override { set_force_scalar_kernels(false); }
};

TEST_F(KernelDispatch, ForceScalarSwitchPinsAndReleases) {
  set_force_scalar_kernels(true);
  EXPECT_STREQ(kernels().name, "scalar");
  set_force_scalar_kernels(false);
  if (simd_kernels() != nullptr) {
    EXPECT_STREQ(kernels().name, simd_kernels()->name);
  } else {
    EXPECT_STREQ(kernels().name, "scalar");
  }
}

TEST(Kernels, ScalarTableAlwaysAvailable) {
  const KernelOps& ops = scalar_kernels();
  EXPECT_STREQ(ops.name, "scalar");
  const auto a = rand_vec(16), b = rand_vec(16);
  double ref = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    ref += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  EXPECT_EQ(table_dot(ops, a.data(), b.data(), 16), static_cast<float>(ref));
}

// --- dispatched vs scalar: tolerance across lengths / alignments ------------

void expect_near_rel(float got, float want, const char* what, std::size_t n) {
  const float tol = 1e-5f * (1.0f + std::fabs(want));
  EXPECT_NEAR(got, want, tol) << what << " n=" << n;
}

TEST(KernelsSimd, DotMatchesScalarAcrossLengthsAndAlignment) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t n : kLengths) {
    // +3 slack so the same data can be re-read at unaligned offsets.
    const auto a = rand_vec(n + 3), b = rand_vec(n + 3);
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
      expect_near_rel(table_dot(*simd, a.data() + off, b.data() + off, n),
                      table_dot(ref, a.data() + off, b.data() + off, n),
                      "dot", n);
    }
  }
}

TEST(KernelsSimd, MatvecMatchesScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t cols : {3u, 8u, 17u, 33u}) {
    for (const std::size_t rows : {1u, 5u, 16u}) {
      const auto w = rand_vec(rows * cols);
      const auto x = rand_vec(cols);
      std::vector<float> y_simd(rows), y_ref(rows);
      simd->matvec(w.data(), rows, cols, x.data(), y_simd.data());
      ref.matvec(w.data(), rows, cols, x.data(), y_ref.data());
      for (std::size_t r = 0; r < rows; ++r) {
        expect_near_rel(y_simd[r], y_ref[r], "matvec", cols);
      }
    }
  }
}

TEST(KernelsSimd, AxpyAndScaleMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t n : kLengths) {
    const auto x = rand_vec(n);
    auto y_simd = rand_vec(n);
    auto y_ref = y_simd;
    auto y1_simd = y_simd;
    auto y1_ref = y_simd;
    // General a: SIMD fuses the multiply-add (one rounding) where the
    // scalar reference rounds twice, so the match is tolerance-level...
    simd->axpy(0.37f, x.data(), y_simd.data(), n);
    ref.axpy(0.37f, x.data(), y_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_near_rel(y_simd[i], y_ref[i], "axpy", n);
    }
    // ...but a == 1.0 (the residual-add case the model layers use) and
    // scale (a single multiply per lane) are exact in every table.
    simd->axpy(1.0f, x.data(), y1_simd.data(), n);
    ref.axpy(1.0f, x.data(), y1_ref.data(), n);
    EXPECT_EQ(y1_simd, y1_ref) << "axpy(1.0) n=" << n;
    simd->scale(1.73f, y1_simd.data(), n);
    ref.scale(1.73f, y1_ref.data(), n);
    EXPECT_EQ(y1_simd, y1_ref) << "scale n=" << n;
  }
}

TEST(KernelsSimd, AttendPrimitivesMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  const std::size_t rows = 9, stride = 24, d_head = 20;  // d_head % 8 != 0
  const auto q = rand_vec(d_head);
  const auto kv = rand_vec(rows * stride);
  const auto w = rand_vec(rows);
  std::vector<float> s_simd(rows), s_ref(rows);
  simd->attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.25f,
                      s_simd.data());
  ref.attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.25f,
                    s_ref.data());
  for (std::size_t r = 0; r < rows; ++r) {
    expect_near_rel(s_simd[r], s_ref[r], "attend_scores", d_head);
  }
  std::vector<float> z_simd(d_head, 0.0f), z_ref(d_head, 0.0f);
  simd->attend_accum(w.data(), kv.data(), rows, stride, d_head,
                     z_simd.data());
  ref.attend_accum(w.data(), kv.data(), rows, stride, d_head, z_ref.data());
  for (std::size_t c = 0; c < d_head; ++c) {
    expect_near_rel(z_simd[c], z_ref[c], "attend_accum", rows);
  }
}

// --- gemm == matvec, bitwise, per table -------------------------------------

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

// Every output of gemm over n activation rows — the whole matrix, then a
// thread tile [r0, r1) on its own — must carry exactly the bits of the same
// table's matvec of that activation row.
void check_gemm_bitwise(const KernelOps& ops) {
  const float kSentinel = -12345.0f;
  // cols % 8 in {0, 3, 7}; odd weight-row counts; 512 columns make the
  // AVX2 kernel's weight tile (32 rows) smaller than the 67-row matrix.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {37, 64}, {37, 35}, {37, 23}, {5, 3}, {67, 512}};
  for (const auto& [rows, cols] : shapes) {
    const auto w = rand_vec(rows * cols);
    for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u}) {
      const auto x = rand_vec(n * cols);
      std::vector<float> want(n * rows);
      for (std::size_t b = 0; b < n; ++b) {
        ops.matvec(w.data(), rows, cols, x.data() + b * cols,
                   want.data() + b * rows);
      }
      std::vector<float> got(n * rows, kSentinel);
      ops.gemm(w.data(), rows, cols, x.data(), n, got.data(), rows);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
            << ops.name << " gemm rows=" << rows << " cols=" << cols
            << " n=" << n << " out=" << i;
      }
      // A thread tile: odd-aligned output rows [r0, r1) computed alone.
      const std::size_t r0 = rows / 3 | 1, r1 = rows - rows / 4;
      std::vector<float> tile(n * rows, kSentinel);
      ops.gemm(w.data() + r0 * cols, r1 - r0, cols, x.data(), n,
               tile.data() + r0, rows);
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t r = 0; r < rows; ++r) {
          const float expect =
              r >= r0 && r < r1 ? want[b * rows + r] : kSentinel;
          ASSERT_EQ(bits_of(tile[b * rows + r]), bits_of(expect))
              << ops.name << " tile [" << r0 << "," << r1 << ") rows="
              << rows << " cols=" << cols << " n=" << n << " b=" << b
              << " r=" << r;
        }
      }
    }
  }
}

TEST(Kernels, GemmBitwiseEqualsMatvecScalar) {
  check_gemm_bitwise(scalar_kernels());
}

TEST(Kernels, GemmBitwiseEqualsMatvecDispatched) {
  check_gemm_bitwise(kernels());
}

// --- fused == decode-then-plain, bitwise, per table -------------------------

void check_fused_bitwise(const KernelOps& ops) {
  for (const std::size_t n : kLengths) {
    const auto a = rand_vec(n);
    const auto i8 = rand_codes(n, false);
    const auto lg = rand_codes(n, true);
    const float s = 0.0123f;
    const int exponent = 3;

    std::vector<float> dec(n);
    for (std::size_t i = 0; i < n; ++i) {
      dec[i] = static_cast<float>(i8[i]) * s;
    }
    EXPECT_EQ(ops.dequant_dot_int8(a.data(), i8.data(), n, s),
              table_dot(ops, a.data(), dec.data(), n))
        << ops.name << " int8 n=" << n;

    for (std::size_t i = 0; i < n; ++i) {
      dec[i] = kv_decode_log2(lg[i], exponent);
    }
    EXPECT_EQ(ops.dequant_dot_log2(a.data(), lg.data(), n, exponent),
              table_dot(ops, a.data(), dec.data(), n))
        << ops.name << " log2 n=" << n;
  }
  // Strided score/accum forms, d_head with a tail.
  const std::size_t rows = 7, stride = 24, d_head = 19;
  const auto q = rand_vec(d_head);
  const auto w = rand_vec(rows);
  const auto k8 = rand_codes(rows * stride, false);
  const auto klg = rand_codes(rows * stride, true);
  const float s = 0.004f;
  const int exponent = -2;
  std::vector<float> kdec(rows * stride), got(rows), want(rows);

  for (std::size_t i = 0; i < kdec.size(); ++i) {
    kdec[i] = static_cast<float>(k8[i]) * s;
  }
  ops.dequant_scores_int8(q.data(), k8.data(), rows, stride, d_head, s, 0.5f,
                          got.data());
  ops.attend_scores(q.data(), kdec.data(), rows, stride, d_head, 0.5f,
                    want.data());
  EXPECT_EQ(got, want) << ops.name << " dequant_scores_int8";

  std::vector<float> z_got(d_head, 0.0f), z_want(d_head, 0.0f);
  ops.dequant_accum_int8(w.data(), k8.data(), rows, stride, d_head, s,
                         z_got.data());
  ops.attend_accum(w.data(), kdec.data(), rows, stride, d_head,
                   z_want.data());
  EXPECT_EQ(z_got, z_want) << ops.name << " dequant_accum_int8";

  for (std::size_t i = 0; i < kdec.size(); ++i) {
    kdec[i] = kv_decode_log2(klg[i], exponent);
  }
  ops.dequant_scores_log2(q.data(), klg.data(), rows, stride, d_head,
                          exponent, 0.5f, got.data());
  ops.attend_scores(q.data(), kdec.data(), rows, stride, d_head, 0.5f,
                    want.data());
  EXPECT_EQ(got, want) << ops.name << " dequant_scores_log2";

  std::fill(z_got.begin(), z_got.end(), 0.0f);
  std::fill(z_want.begin(), z_want.end(), 0.0f);
  ops.dequant_accum_log2(w.data(), klg.data(), rows, stride, d_head,
                         exponent, z_got.data());
  ops.attend_accum(w.data(), kdec.data(), rows, stride, d_head,
                   z_want.data());
  EXPECT_EQ(z_got, z_want) << ops.name << " dequant_accum_log2";
}

TEST(KernelsFused, ScalarFusedEqualsGatherThenDotBitwise) {
  check_fused_bitwise(scalar_kernels());
}

TEST(KernelsFused, SimdFusedEqualsGatherThenDotBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_fused_bitwise(*simd);
}

// --- in-register decodes vs the scalar decode, every byte value -------------

TEST(KernelsFused, SimdLog2DecodeExactForAllByteValues) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  // One-hot probes through the fused dot: with a = e_i the dot returns
  // decode(codes[i]) exactly (single product in double, cast once).
  // Exponents cover normals, deep denormals (exponent - 127 down to -137),
  // and the flush-to-zero region.
  for (const int exponent : {-10, -3, 0, 7, 40}) {
    for (int b = 0; b < 256; ++b) {
      std::vector<std::int8_t> codes(8, static_cast<std::int8_t>(b));
      std::vector<float> a(8, 0.0f);
      a[3] = 1.0f;  // lands in the 8-wide vector body, not the tail
      const float got =
          simd->dequant_dot_log2(a.data(), codes.data(), 8, exponent);
      const float want = kv_decode_log2(static_cast<std::int8_t>(b), exponent);
      EXPECT_EQ(got, want) << "byte=" << b << " exponent=" << exponent;
    }
  }
}

TEST(KernelsFused, SimdInt8DecodeExactForAllCodes) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  for (const float s : {1.0f, 0.0371f, 3.25e-4f}) {
    for (int c = -127; c <= 127; ++c) {
      std::vector<std::int8_t> codes(8, static_cast<std::int8_t>(c));
      std::vector<float> a(8, 0.0f);
      a[5] = 1.0f;
      const float got = simd->dequant_dot_int8(a.data(), codes.data(), 8, s);
      const float want = static_cast<float>(c) * s;
      EXPECT_EQ(got, want) << "code=" << c << " s=" << s;
    }
  }
}

// --- end-to-end -------------------------------------------------------------

class KernelsEndToEnd : public ::testing::Test {
 protected:
  void TearDown() override {
    set_force_scalar_kernels(false);
    set_force_gather_attend(false);
  }

  static const SyntheticModel& tiny_model() {
    static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                      42);
    return model;
  }

  static std::vector<Request> requests() {
    return {
        Request{{3, 1, 4, 1, 5}, 8},
        Request{{2, 7}, 10},
        Request{{9, 2, 6, 5, 3, 5, 8}, 5},
    };
  }

  static std::vector<std::vector<std::size_t>> serve_tokens(
      const std::shared_ptr<const PreparedModel>& model) {
    ServingConfig scfg;
    scfg.max_batch = 3;
    ServingEngine engine(model, scfg);
    std::vector<RequestId> ids;
    for (const auto& req : requests()) ids.push_back(engine.submit(req));
    engine.run();
    std::vector<std::vector<std::size_t>> out;
    for (const auto id : ids) out.push_back(engine.result(id).tokens);
    return out;
  }
};

TEST_F(KernelsEndToEnd, ServingTokensMatchForcedScalarInEveryKvMode) {
  if (simd_kernels() == nullptr) {
    GTEST_SKIP() << "no SIMD table on this CPU";
  }
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    set_force_scalar_kernels(false);
    const auto simd_tokens = serve_tokens(model);
    set_force_scalar_kernels(true);
    const auto scalar_tokens = serve_tokens(model);
    EXPECT_EQ(simd_tokens, scalar_tokens) << to_string(mode);
  }
}

TEST_F(KernelsEndToEnd, FusedAttendMatchesForcedGatherBitwise) {
  // The engine-wide hook pins the pre-fusion reference; within one kernel
  // table the fused path must reproduce it bit for bit, in and out of
  // chunked prefill, while never materializing the fp32 gather scratch.
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 48;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    auto pool = model->make_kv_pool(2.0);
    SequenceState fused = model->make_sequence(pool);
    SequenceState gathered = model->make_sequence(pool);

    std::vector<std::size_t> prompt;
    for (std::size_t i = 0; i < 11; ++i) prompt.push_back((i * 29 + 5) % 64);

    model->prefill_chunk(fused, prompt);
    for (std::size_t i = 0; i < 9; ++i) model->step(fused, (i * 7) % 64);
    EXPECT_EQ(fused.gather_count(), 0u) << to_string(mode);

    set_force_gather_attend(true);
    model->prefill_chunk(gathered, prompt);
    for (std::size_t i = 0; i < 9; ++i) model->step(gathered, (i * 7) % 64);
    set_force_gather_attend(false);
    EXPECT_GT(gathered.gather_count(), 0u) << to_string(mode);

    const auto a = fused.logits();
    const auto b = gathered.logits();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << to_string(mode) << " logit " << i;
    }
  }
}

TEST_F(KernelsEndToEnd, PerSequenceForceGatherAlsoMatchesFused) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 8;
  cfg.kv_mode = KvQuantMode::kInt8;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  auto pool = model->make_kv_pool(2.0);
  SequenceState fused = model->make_sequence(pool);
  SequenceState gathered = model->make_sequence(pool);
  gathered.set_force_gather(true);
  for (std::size_t i = 0; i < 13; ++i) {
    model->step(fused, (i * 11 + 2) % 64);
    model->step(gathered, (i * 11 + 2) % 64);
  }
  EXPECT_EQ(fused.gather_count(), 0u);
  EXPECT_GT(gathered.gather_count(), 0u);
  const auto a = fused.logits();
  const auto b = gathered.logits();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "logit " << i;
  }
}

}  // namespace
}  // namespace opal
