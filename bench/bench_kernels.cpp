// Kernel-layer micro bench: scalar reference vs the runtime-dispatched SIMD
// table (common/kernels.h) on the serving hot path's shapes — GEMV, the
// weight-stationary multi-row GEMM at 1 / 4 / 16 activation rows, the fused
// dequantize-dot kernels per kv_mode, and attention score/accumulate over
// realistic block-segment shapes — plus the in-process serving headline
// numbers (fifo chunk-1 vs chunk-8 short-request p50 TTFT steps, decode
// tokens/s) that bench_scheduler/bench_sampling report, persisted together
// as BENCH_kernels.json (path = argv[1], default ./BENCH_kernels.json) to
// start the cross-PR perf trajectory.
//
// Asserted (exit 1): every dispatched kernel matches the scalar reference
// within reduction-reorder tolerance; the fused dequant kernels match
// gather-then-dot and the multi-row gemm matches matvec BITWISE within each
// table; with a SIMD table present, the dispatched GEMV is not slower than
// scalar.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace {

using namespace opal;
using clock_type = std::chrono::steady_clock;

std::uint64_t lcg = 0x2545f4914f6cdd1dull;
float frand() {
  lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<float>((lcg >> 33) & 0xffffff) / 0x1000000p0f * 2.0f -
         1.0f;
}

std::vector<float> rand_vec(std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = frand();
  return v;
}

std::vector<std::int8_t> rand_codes(std::size_t n) {
  std::vector<std::int8_t> v(n);
  for (auto& c : v) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const int q = static_cast<int>((lcg >> 40) & 0xff) - 128;
    c = static_cast<std::int8_t>(q == -128 ? -127 : q);
  }
  return v;
}

float g_sink = 0.0f;  // defeats dead-code elimination across timed calls

// The table's dot product, reached through a one-row matvec.
float table_dot(const KernelOps& ops, const float* a, const float* b,
                std::size_t n) {
  float y = 0.0f;
  ops.matvec(a, 1, n, b, &y);
  return y;
}

template <typename F>
double us_per_call(F&& f, int iters) {
  f();  // warmup
  const auto t0 = clock_type::now();
  for (int i = 0; i < iters; ++i) f();
  return std::chrono::duration<double, std::micro>(clock_type::now() - t0)
             .count() /
         iters;
}

bool g_ok = true;
void check(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    g_ok = false;
  }
}

// --- serving headline numbers (in-process) ----------------------------------

struct ServingHeadline {
  std::size_t chunk1_ttft_p50_steps = 0;
  std::size_t chunk8_ttft_p50_steps = 0;
  double decode_tokens_per_s = 0.0;
};

ServingHeadline serving_headline() {
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);
  EngineConfig cfg;
  cfg.max_seq_len = 128;
  cfg.kv_block_size = 16;
  cfg.kv_mode = KvQuantMode::kInt8;
  auto prepared = std::make_shared<const PreparedModel>(model, cfg);

  std::vector<Request> requests;
  for (std::size_t r = 0; r < 2; ++r) {  // long prompts hog the slots first
    Request req;
    for (std::size_t i = 0; i < 64; ++i) req.prompt.push_back((i * 13 + r) % 256);
    req.max_new_tokens = 8;
    requests.push_back(std::move(req));
  }
  for (std::size_t r = 0; r < 4; ++r) {  // then short interactive requests
    Request req;
    for (std::size_t i = 0; i < 8; ++i) {
      req.prompt.push_back((i * 29 + 7 * r + 3) % 256);
    }
    req.max_new_tokens = 8;
    requests.push_back(std::move(req));
  }

  ServingHeadline out;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{8}}) {
    ServingConfig scfg;
    scfg.max_batch = 3;
    scfg.scheduler = std::make_shared<FifoScheduler>();
    scfg.prefill_chunk_tokens = chunk;
    ServingEngine engine(prepared, scfg);
    std::vector<RequestId> ids;
    for (const auto& req : requests) ids.push_back(engine.submit(req));
    std::vector<std::size_t> short_ttft;
    std::vector<bool> seen(requests.size(), false);
    std::size_t steps = 0, decodes = 0, n;
    const auto t0 = clock_type::now();
    while ((n = engine.step()) > 0) {
      ++steps;
      decodes += n;
      for (std::size_t r = 2; r < requests.size(); ++r) {
        if (!seen[r] && engine.result(ids[r]).generated() > 0) {
          seen[r] = true;
          short_ttft.push_back(steps);
        }
      }
    }
    const double sec =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    std::sort(short_ttft.begin(), short_ttft.end());
    const std::size_t p50 = short_ttft[short_ttft.size() / 2];
    if (chunk == 1) {
      out.chunk1_ttft_p50_steps = p50;
    } else {
      out.chunk8_ttft_p50_steps = p50;
      out.decode_tokens_per_s = static_cast<double>(decodes) / sec;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const KernelOps& scalar = scalar_kernels();
  const KernelOps* simd = simd_kernels();
  const KernelOps& dispatched = simd != nullptr ? *simd : scalar;
  std::printf("kernel dispatch: %s (scalar reference always compiled)\n\n",
              dispatched.name);

  // --- parity ---------------------------------------------------------------
  {
    const std::size_t n = 1037;  // vector body + tail
    const auto a = rand_vec(n), b = rand_vec(n);
    const float got = table_dot(dispatched, a.data(), b.data(), n);
    const float want = table_dot(scalar, a.data(), b.data(), n);
    check(std::fabs(got - want) <= 1e-4f * (1.0f + std::fabs(want)),
          "dispatched dot within tolerance of scalar");

    const auto codes = rand_codes(n);
    const float s = 0.0173f;
    std::vector<float> dec(n);
    for (std::size_t i = 0; i < n; ++i) {
      dec[i] = static_cast<float>(codes[i]) * s;
    }
    for (const KernelOps* ops : {&scalar, &dispatched}) {
      check(ops->dequant_dot_int8(a.data(), codes.data(), n, s) ==
                table_dot(*ops, a.data(), dec.data(), n),
            "fused int8 dequant-dot bitwise == gather-then-dot");
      std::vector<float> lg(n);
      for (std::size_t i = 0; i < n; ++i) {
        lg[i] = kv_decode_log2(codes[i], 2);
      }
      check(ops->dequant_dot_log2(a.data(), codes.data(), n, 2) ==
                table_dot(*ops, a.data(), lg.data(), n),
            "fused log2 dequant-dot bitwise == gather-then-dot");
    }
    // gemm == matvec bitwise, every output, odd rows and a column tail.
    const std::size_t g_rows = 67, g_cols = 515;
    const auto gw = rand_vec(g_rows * g_cols);
    for (const KernelOps* ops : {&scalar, &dispatched}) {
      for (const std::size_t nx : {1u, 4u, 16u, 17u}) {
        const auto gx = rand_vec(nx * g_cols);
        std::vector<float> got(nx * g_rows), want(nx * g_rows);
        ops->gemm(gw.data(), g_rows, g_cols, gx.data(), nx, got.data(),
                  g_rows);
        for (std::size_t bi = 0; bi < nx; ++bi) {
          ops->matvec(gw.data(), g_rows, g_cols, gx.data() + bi * g_cols,
                      want.data() + bi * g_rows);
        }
        check(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)) == 0,
              "multi-row gemm bitwise == matvec");
      }
    }
    std::printf("parity: dispatched-vs-scalar tolerance, fused-vs-gather and "
                "gemm-vs-matvec bitwise checks %s\n\n",
                g_ok ? "PASS" : "FAIL");
  }

  // --- micro timings --------------------------------------------------------
  std::printf("%-26s %12s %12s %9s\n", "kernel", "scalar us", "dispatch us",
              "speedup");
  auto row = [](const char* name, double us_scalar, double us_dispatched) {
    std::printf("%-26s %12.2f %12.2f %8.2fx\n", name, us_scalar,
                us_dispatched, us_scalar / us_dispatched);
    return us_scalar / us_dispatched;
  };

  // GEMV at a serving-layer shape (wo projection of a d_model=512 model).
  const std::size_t rows = 512, cols = 512;
  const auto w = rand_vec(rows * cols);
  const auto x = rand_vec(cols);
  std::vector<float> y(rows);
  const double gemv_scalar = us_per_call(
      [&] { scalar.matvec(w.data(), rows, cols, x.data(), y.data()); }, 200);
  const double gemv_simd = us_per_call(
      [&] { dispatched.matvec(w.data(), rows, cols, x.data(), y.data()); },
      200);
  g_sink += y[0];
  const double gemv_speedup = row("gemv 512x512", gemv_scalar, gemv_simd);
  const double gemv_gflops_scalar =
      2.0 * static_cast<double>(rows * cols) / gemv_scalar / 1e3;
  const double gemv_gflops_simd =
      2.0 * static_cast<double>(rows * cols) / gemv_simd / 1e3;

  // Multi-row GEMM over the same matrix: GFLOP/s at 1, 4 and 16 activation
  // rows (the weight is read once per call, reused by every row).
  struct GemmPoint {
    std::size_t n;
    double scalar_us, dispatched_us;
  };
  std::vector<GemmPoint> gemm_points;
  for (const std::size_t nx : {1u, 4u, 16u}) {
    const auto xs = rand_vec(nx * cols);
    std::vector<float> ys(nx * rows);
    const int iters = 1600 / static_cast<int>(nx) + 40;
    GemmPoint pt{nx, 0.0, 0.0};
    pt.scalar_us = us_per_call(
        [&] {
          scalar.gemm(w.data(), rows, cols, xs.data(), nx, ys.data(), rows);
        },
        iters / 4 + 10);
    pt.dispatched_us = us_per_call(
        [&] {
          dispatched.gemm(w.data(), rows, cols, xs.data(), nx, ys.data(),
                          rows);
        },
        iters);
    g_sink += ys[0];
    const std::string label = "gemm 512x512 x" + std::to_string(nx);
    row(label.c_str(), pt.scalar_us, pt.dispatched_us);
    gemm_points.push_back(pt);
  }
  const auto gflops = [&](std::size_t nx, double us) {
    return 2.0 * static_cast<double>(rows * cols * nx) / us / 1e3;
  };
  for (const GemmPoint& pt : gemm_points) {
    std::printf("  gemm x%-2zu dispatched %.2f GFLOP/s (scalar %.2f)\n", pt.n,
                gflops(pt.n, pt.dispatched_us), gflops(pt.n, pt.scalar_us));
  }

  const std::size_t n = 4096;
  const auto a = rand_vec(n);

  const auto codes = rand_codes(n);
  const double i8_scalar = us_per_call(
      [&] { g_sink += scalar.dequant_dot_int8(a.data(), codes.data(), n,
                                              0.01f); },
      2000);
  const double i8_simd = us_per_call(
      [&] { g_sink += dispatched.dequant_dot_int8(a.data(), codes.data(), n,
                                                  0.01f); },
      2000);
  const double i8_speedup = row("dequant-dot int8 4096", i8_scalar, i8_simd);

  const double lg_scalar = us_per_call(
      [&] { g_sink += scalar.dequant_dot_log2(a.data(), codes.data(), n, 2); },
      2000);
  const double lg_simd = us_per_call(
      [&] { g_sink += dispatched.dequant_dot_log2(a.data(), codes.data(), n,
                                                  2); },
      2000);
  const double lg_speedup = row("dequant-dot log2 4096", lg_scalar, lg_simd);

  // Attend over realistic paged-KV segment shapes: context 256 in 16-row
  // blocks (16 segments), d_model 128, d_head 64, scores then weighted sum.
  const std::size_t segs = 16, seg_rows = 16, d_model = 128, d_head = 64;
  const auto kv = rand_vec(segs * seg_rows * d_model);
  const auto kvc = rand_codes(segs * seg_rows * d_model);
  const auto q = rand_vec(d_head);
  const auto wts = rand_vec(segs * seg_rows);
  std::vector<float> scores(segs * seg_rows), z(d_head);
  auto attend_fp32 = [&](const KernelOps& ops) {
    std::fill(z.begin(), z.end(), 0.0f);
    for (std::size_t sg = 0; sg < segs; ++sg) {
      ops.attend_scores(q.data(), kv.data() + sg * seg_rows * d_model,
                        seg_rows, d_model, d_head, 0.125f,
                        scores.data() + sg * seg_rows);
      ops.attend_accum(wts.data() + sg * seg_rows,
                       kv.data() + sg * seg_rows * d_model, seg_rows, d_model,
                       d_head, z.data());
    }
    g_sink += z[0];
  };
  auto attend_fused_int8 = [&](const KernelOps& ops) {
    std::fill(z.begin(), z.end(), 0.0f);
    for (std::size_t sg = 0; sg < segs; ++sg) {
      ops.dequant_scores_int8(q.data(), kvc.data() + sg * seg_rows * d_model,
                              seg_rows, d_model, d_head, 0.01f, 0.125f,
                              scores.data() + sg * seg_rows);
      ops.dequant_accum_int8(wts.data() + sg * seg_rows,
                             kvc.data() + sg * seg_rows * d_model, seg_rows,
                             d_model, d_head, 0.01f, z.data());
    }
    g_sink += z[0];
  };
  auto attend_fused_log2 = [&](const KernelOps& ops) {
    std::fill(z.begin(), z.end(), 0.0f);
    for (std::size_t sg = 0; sg < segs; ++sg) {
      ops.dequant_scores_log2(q.data(), kvc.data() + sg * seg_rows * d_model,
                              seg_rows, d_model, d_head, 2, 0.125f,
                              scores.data() + sg * seg_rows);
      ops.dequant_accum_log2(wts.data() + sg * seg_rows,
                             kvc.data() + sg * seg_rows * d_model, seg_rows,
                             d_model, d_head, 2, z.data());
    }
    g_sink += z[0];
  };
  const double at_scalar =
      us_per_call([&] { attend_fp32(scalar); }, 500);
  const double at_simd = us_per_call([&] { attend_fp32(dispatched); }, 500);
  const double attend_speedup =
      row("attend fp32 16x16seg", at_scalar, at_simd);
  const double at8_scalar =
      us_per_call([&] { attend_fused_int8(scalar); }, 500);
  const double at8_simd =
      us_per_call([&] { attend_fused_int8(dispatched); }, 500);
  const double attend_i8_speedup =
      row("attend int8 fused", at8_scalar, at8_simd);
  const double atl_scalar =
      us_per_call([&] { attend_fused_log2(scalar); }, 500);
  const double atl_simd =
      us_per_call([&] { attend_fused_log2(dispatched); }, 500);
  const double attend_lg_speedup =
      row("attend log2 fused", atl_scalar, atl_simd);

  if (simd != nullptr) {
    check(gemv_speedup >= 1.0, "dispatched GEMV not slower than scalar");
  }

  // --- serving headline numbers --------------------------------------------
  const ServingHeadline sh = serving_headline();
  std::printf("\nserving headline (int8 paged KV, fifo): short-request p50 "
              "TTFT %zu steps @ chunk 1 -> %zu steps @ chunk 8; decode "
              "%.1f tokens/s\n",
              sh.chunk1_ttft_p50_steps, sh.chunk8_ttft_p50_steps,
              sh.decode_tokens_per_s);

  // --- persist --------------------------------------------------------------
  const std::string path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::ofstream json(path);
  json.precision(4);
  json << std::fixed << "{\n"
       << "  \"bench\": \"kernels\",\n"
       << "  \"dispatch\": \"" << dispatched.name << "\",\n"
       << "  \"parity\": \"" << (g_ok ? "pass" : "fail") << "\",\n"
       << "  \"kernels\": {\n"
       << "    \"gemv_512x512\": {\"scalar_us\": " << gemv_scalar
       << ", \"dispatched_us\": " << gemv_simd << ", \"scalar_gflops\": "
       << gemv_gflops_scalar << ", \"dispatched_gflops\": "
       << gemv_gflops_simd << ", \"speedup\": " << gemv_speedup << "},\n"
       << "    \"gemm_512x512\": {";
  for (std::size_t i = 0; i < gemm_points.size(); ++i) {
    const GemmPoint& pt = gemm_points[i];
    json << (i == 0 ? "" : ", ") << "\"rows_" << pt.n
         << "\": {\"scalar_us\": " << pt.scalar_us
         << ", \"dispatched_us\": " << pt.dispatched_us
         << ", \"scalar_gflops\": " << gflops(pt.n, pt.scalar_us)
         << ", \"dispatched_gflops\": " << gflops(pt.n, pt.dispatched_us)
         << "}";
  }
  json << "},\n"
       << "    \"dequant_dot_int8_4096\": {\"scalar_us\": " << i8_scalar
       << ", \"dispatched_us\": " << i8_simd << ", \"speedup\": "
       << i8_speedup << "},\n"
       << "    \"dequant_dot_log2_4096\": {\"scalar_us\": " << lg_scalar
       << ", \"dispatched_us\": " << lg_simd << ", \"speedup\": "
       << lg_speedup << "},\n"
       << "    \"attend_fp32_segments\": {\"scalar_us\": " << at_scalar
       << ", \"dispatched_us\": " << at_simd << ", \"speedup\": "
       << attend_speedup << "},\n"
       << "    \"attend_int8_fused_segments\": {\"scalar_us\": " << at8_scalar
       << ", \"dispatched_us\": " << at8_simd << ", \"speedup\": "
       << attend_i8_speedup << "},\n"
       << "    \"attend_log2_fused_segments\": {\"scalar_us\": " << atl_scalar
       << ", \"dispatched_us\": " << atl_simd << ", \"speedup\": "
       << attend_lg_speedup << "}\n"
       << "  },\n"
       << "  \"serving\": {\n"
       << "    \"fifo_chunk1_short_ttft_p50_steps\": "
       << sh.chunk1_ttft_p50_steps << ",\n"
       << "    \"fifo_chunk8_short_ttft_p50_steps\": "
       << sh.chunk8_ttft_p50_steps << ",\n"
       << "    \"decode_tokens_per_s\": " << sh.decode_tokens_per_s << "\n"
       << "  }\n"
       << "}\n";
  std::printf("\nwrote %s\n", path.c_str());

  if (g_ok) {
    std::printf("PASS: parity checks clean; dispatched GEMV %.2fx scalar\n",
                gemv_speedup);
    return 0;
  }
  return 1;
}
