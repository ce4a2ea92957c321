#include "accel/device.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace opal {
namespace {

TEST(Device, BufferBytesScaleWithPrecision) {
  const auto bf16 = make_bf16_device();
  const auto owq = make_owq_device(4);
  const auto opal47 = make_opal_device(4, 7, 4);
  const auto opal35 = make_opal_device(3, 5, 3);
  // Weight buffer: 16b -> 4.5b effective (4b codes + g=32 scales) ~3.6x.
  EXPECT_NEAR(static_cast<double>(bf16.weight_buffer_bytes()) /
                  static_cast<double>(owq.weight_buffer_bytes()),
              16.0 / 4.5, 0.05);
  // Activation buffer: BF16 acts vs 7b MX-OPAL acts.
  EXPECT_GT(bf16.act_buffer_bytes(), 2 * opal47.act_buffer_bytes());
  EXPECT_GT(opal47.act_buffer_bytes(), opal35.act_buffer_bytes());
  // OWQ keeps BF16 activations.
  EXPECT_EQ(owq.act_buffer_bytes(), bf16.act_buffer_bytes());
}

TEST(Device, CoreAreaOrderingMatchesFig8b) {
  const double a_bf16 = device_core_area_mm2(make_bf16_device());
  const double a_owq = device_core_area_mm2(make_owq_device(4));
  const double a_47 = device_core_area_mm2(make_opal_device(4, 7, 4));
  const double a_35 = device_core_area_mm2(make_opal_device(3, 5, 3));
  EXPECT_LT(a_35, a_47);
  EXPECT_LT(a_47, a_owq);
  EXPECT_EQ(a_owq, a_bf16);  // OWQ computes on the same BF16 array
  // Abstract: 2.4~3.1x area reduction.
  EXPECT_GT(a_bf16 / a_47, 2.0);
  EXPECT_LT(a_bf16 / a_47, 3.0);
  EXPECT_GT(a_bf16 / a_35, 2.7);
  EXPECT_LT(a_bf16 / a_35, 3.8);
}

TEST(Device, OpalCoreAreaMatchesTable3) {
  const double a_47 = device_core_area_mm2(make_opal_device(4, 7, 4));
  EXPECT_NEAR(a_47, 0.9293, 0.02);
}

TEST(Device, TokenReportComponentsPositive) {
  const auto model = llama2_7b();
  const auto report = simulate_token(make_opal_device(4, 7, 4), model, 512);
  EXPECT_GT(report.latency_s, 0.0);
  EXPECT_GT(report.core_energy_j, 0.0);
  EXPECT_GT(report.mem_access_j, 0.0);
  EXPECT_GT(report.weight_leak_j, 0.0);
  EXPECT_GT(report.act_leak_j, 0.0);
  EXPECT_EQ(report.total_macs, model.macs_per_token(512));
}

TEST(Device, DecodeNeedsNonzeroKvLength) {
  // Decoding a token at KV length seq_len feeds one row at seq_len - 1:
  // seq_len == 0 has no such row.
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const auto dev = make_opal_device(4, 7, 4);
  EXPECT_THROW(static_cast<void>(simulate_token(dev, model, 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(trace_token(dev, model, 0)),
               std::invalid_argument);
}

TEST(Device, EnergyOrderingMatchesFig8a) {
  const auto model = llama2_70b();
  const std::size_t seq = 1024;
  const auto bf16 = simulate_token(make_bf16_device(), model, seq);
  const auto owq = simulate_token(make_owq_device(4), model, seq);
  const auto opal47 = simulate_token(make_opal_device(4, 7, 4), model, seq);
  const auto opal35 = simulate_token(make_opal_device(3, 5, 3), model, seq);
  EXPECT_LT(owq.total_j(), bf16.total_j());
  EXPECT_LT(opal47.total_j(), owq.total_j());
  EXPECT_LT(opal35.total_j(), opal47.total_j());
}

TEST(Device, OpalSavingsVsOwqInPaperBallpark) {
  // Paper: OPAL saves 38.6% (W4A4/7) and 53.5% (W3A3/5) vs OWQ.
  const auto model = llama2_70b();
  const std::size_t seq = 1024;
  const auto owq = simulate_token(make_owq_device(4), model, seq);
  const auto opal47 = simulate_token(make_opal_device(4, 7, 4), model, seq);
  const auto opal35 = simulate_token(make_opal_device(3, 5, 3), model, seq);
  const double save47 = 1.0 - opal47.total_j() / owq.total_j();
  const double save35 = 1.0 - opal35.total_j() / owq.total_j();
  EXPECT_GT(save47, 0.2);
  EXPECT_LT(save47, 0.6);
  EXPECT_GT(save35, 0.35);
  EXPECT_LT(save35, 0.7);
  EXPECT_GT(save35, save47);
}

TEST(Device, Llama70bLatencyNearPaper) {
  // §5.2: 1.98 s per token for Llama2-70B on OPAL (DRAM-streaming bound).
  const auto model = llama2_70b();
  const auto report =
      simulate_token(make_opal_device(4, 7, 4), model, 1024);
  EXPECT_GT(report.latency_s, 1.2);
  EXPECT_LT(report.latency_s, 2.8);
}

TEST(Device, Bf16LatencyRoughlyFourTimesOpal) {
  const auto model = llama2_70b();
  const auto bf16 = simulate_token(make_bf16_device(), model, 1024);
  const auto opal = simulate_token(make_opal_device(4, 7, 4), model, 1024);
  EXPECT_NEAR(bf16.latency_s / opal.latency_s, 16.0 / 4.5, 0.8);
}

TEST(Device, IntMacFractionNearPaper) {
  // Conclusion: "96.9% of computations are done in INT multipliers".
  const auto model = llama2_70b();
  const auto report =
      simulate_token(make_opal_device(4, 7, 4), model, 1024);
  EXPECT_GT(report.int_mac_fraction, 0.95);
  EXPECT_LT(report.int_mac_fraction, 0.985);
}

TEST(Device, BaselinesDoNoIntMacs) {
  const auto model = llama2_7b();
  const auto report = simulate_token(make_bf16_device(), model, 128);
  EXPECT_EQ(report.int_mac_fraction, 0.0);
}

TEST(Device, GenerationAveragesOverSeqGrowth) {
  const auto model = scaled_for_eval(llama2_7b(), 512, 4, 1024);
  const auto dev = make_opal_device(4, 7, 4);
  const auto avg = simulate_generation(dev, model, 64, 8);
  const auto first = simulate_token(dev, model, 64);
  const auto last = simulate_token(dev, model, 71);
  EXPECT_GE(avg.latency_s, first.latency_s * 0.999);
  EXPECT_LE(avg.latency_s, last.latency_s * 1.001);
}

TEST(Device, PrefillIsComputeBoundAndAmortized) {
  // Decode streams all weights per token (DRAM-bound); prefill reuses each
  // streamed weight across the whole prompt, so per-token prefill time is
  // far below decode time.
  const auto model = llama2_7b();
  const auto dev = make_opal_device(4, 7, 4);
  const std::size_t prompt = 512;
  const auto decode = simulate_token(dev, model, prompt);
  StepComposition whole_prompt;
  whole_prompt.seqs.push_back({0, 0, prompt});
  const auto prefill = simulate_step(dev, model, whole_prompt).totals;
  const double prefill_per_token =
      prefill.latency_s / static_cast<double>(prompt);
  EXPECT_LT(prefill_per_token, decode.latency_s / 10.0);
  // Total prefill work exceeds one decode step's work many times over.
  EXPECT_GT(prefill.total_macs, decode.total_macs * (prompt / 2));
}

TEST(Device, TraceSumsToTokenReport) {
  const auto model = scaled_for_eval(llama2_7b(), 512, 3, 1024);
  const auto dev = make_opal_device(4, 7, 4);
  const auto report = simulate_token(dev, model, 128);
  const auto trace = trace_token(dev, model, 128);
  double latency = 0.0, core_energy = 0.0;
  for (const auto& entry : trace) {
    latency += entry.latency_s;
    core_energy += entry.core_energy_j;
  }
  // One op list, one per-op pricing, one addition order: exact.
  EXPECT_EQ(latency, report.latency_s);
  EXPECT_EQ(core_energy, report.core_energy_j);
}

TEST(Device, TraceWeightOpsAreDramBound) {
  // At the paper's bandwidth, every weight-streaming op is DRAM-bound.
  const auto model = llama2_70b();
  const auto trace = trace_token(make_opal_device(4, 7, 4), model, 1024);
  for (const auto& entry : trace) {
    if (entry.kind == OpKind::kWeightMxv) {
      EXPECT_TRUE(entry.dram_bound) << entry.name;
    }
    if (entry.kind == OpKind::kQuantize) {
      EXPECT_FALSE(entry.dram_bound) << entry.name;
      EXPECT_EQ(entry.dram_bytes, 0.0) << entry.name;
    }
  }
}

TEST(Device, MultiCoreScalesComputeNotDram) {
  // Compute-bound regime: a fast DRAM makes core count matter.
  const auto model = llama2_7b();
  auto one = make_opal_device(4, 7, 4);
  one.dram.bandwidth_gbps = 1e6;  // effectively free streaming
  auto four = one;
  four.n_cores = 4;
  const auto r1 = simulate_token(one, model, 256);
  const auto r4 = simulate_token(four, model, 256);
  EXPECT_NEAR(r1.latency_s / r4.latency_s, 4.0, 0.5);
  // Same MAC work, same dynamic core energy.
  EXPECT_NEAR(r4.core_energy_j, r1.core_energy_j, 1e-12);
  // Area scales with core count.
  EXPECT_NEAR(device_core_area_mm2(four) / device_core_area_mm2(one), 4.0,
              1e-9);
}

TEST(Device, MultiCoreCannotBeatDramBound) {
  // At the paper's DRAM bandwidth, token generation is streaming-bound, so
  // extra cores barely move latency (why the paper evaluates one core).
  const auto model = llama2_70b();
  auto one = make_opal_device(4, 7, 4);
  auto four = one;
  four.n_cores = 4;
  const auto r1 = simulate_token(one, model, 1024);
  const auto r4 = simulate_token(four, model, 1024);
  EXPECT_GT(r4.latency_s, r1.latency_s * 0.9);
}

TEST(KvAccounting, StorageBytesScalesWithBits) {
  const auto b16 = kv_storage_bytes(32, 4096, 2048, 16);
  const auto b7 = kv_storage_bytes(32, 4096, 2048, 7);
  EXPECT_EQ(b16, 32u * 2 * 4096 * 2048 * 2);
  EXPECT_LT(b7, b16 / 2);
}

TEST(KvAccounting, BlockGranularStorageBytes) {
  // Unblocked accounting (block_size 1) is unchanged.
  EXPECT_EQ(kv_storage_bytes(32, 4096, 2048, 16),
            32u * 2 * 4096 * 2048 * 2);
  // Block-granular: length rounds up to whole blocks, and sub-32-bit
  // layouts carry one fp32 scale per block.
  EXPECT_EQ(kv_matrix_bytes(64, 17, 32, 16), 32u * 64 * 4);
  EXPECT_EQ(kv_matrix_bytes(64, 17, 8, 16), 32u * 64 + 2 * 4);
  EXPECT_EQ(kv_storage_bytes(2, 64, 17, 8, 16),
            2u * 2 * (32 * 64 + 2 * 4));
  // Quantized paged storage is ~4x below fp32.
  EXPECT_LT(kv_storage_bytes(32, 4096, 2048, 8, 16),
            kv_storage_bytes(32, 4096, 2048, 32, 16) / 3);
}

TEST(Device, QuantizerAndSoftmaxEnergyOnlyOnOpal) {
  const auto model = scaled_for_eval(llama2_7b(), 512, 2, 1024);
  const auto opal = simulate_token(make_opal_device(4, 7, 4), model, 64);
  // OPAL reports must include nonzero core energy even for tiny models.
  EXPECT_GT(opal.core_energy_j, 0.0);
}

}  // namespace
}  // namespace opal
