// Unit tests of the benchmark's own helpers (perfbench/src/harness.h).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using opal::TraceEvent;
using opal::TraceEventKind;

std::string stream_bytes(const WorkloadSpec& w, std::uint64_t seed) {
  std::string out;
  for (std::size_t i = 0; i < 64; ++i) {
    out += serialize(make_request(w, seed, i)) + "\n";
  }
  for (const double t : arrival_times(w, seed, 5.0)) {
    out += std::to_string(t) + "\n";
  }
  return out;
}

TEST(Inputs, SameSeedGivesByteIdenticalInputs) {
  for (const WorkloadSpec& w : workloads()) {
    const std::string a = stream_bytes(w, 42);
    EXPECT_EQ(a, stream_bytes(w, 42)) << w.name;
    EXPECT_NE(a, stream_bytes(w, 43)) << w.name;
  }
}

TEST(Inputs, RequestsFitTheModelAndEveryWorkloadIsFound) {
  for (const WorkloadSpec& w : workloads()) {
    EXPECT_EQ(find_workload(w.name), &w);
    for (std::size_t i = 0; i < 200; ++i) {
      const opal::Request r = make_request(w, 7, i);
      ASSERT_FALSE(r.prompt.empty());
      // Prompt + answer + one speculative burst stay below max_seq_len,
      // so no request can be cut off by the KV limit.
      EXPECT_LT(r.prompt.size() + r.max_new_tokens + 4, w.max_seq_len)
          << w.name << " request " << i;
    }
  }
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
}

TEST(Inputs, MixedWorkloadAlternatesSampledAndRepetitive) {
  const WorkloadSpec& w = *find_workload("mixed-spec-pressure");
  for (std::size_t i = 0; i < 8; ++i) {
    const opal::Request r = make_request(w, 3, i);
    const bool sampled = r.sampling.policy == opal::SamplePolicy::kTopP;
    EXPECT_EQ(sampled, i % 2 == 0);
    EXPECT_EQ(r.sampling.stop_tokens.size(), sampled ? 1u : 0u);
  }
}

TEST(Schedule, OpenLoopHasTheStatedRate) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.load == LoadShape::kClosed) {
      EXPECT_TRUE(arrival_times(w, 1, 10.0).empty());
      continue;
    }
    for (const std::uint64_t seed : {1u, 2u, 99u}) {
      const double horizon = 30.0;
      const std::vector<double> t = arrival_times(w, seed, horizon);
      EXPECT_EQ(static_cast<double>(t.size()) / horizon, w.rate_per_s)
          << w.name;
      ASSERT_FALSE(t.empty());
      EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
      EXPECT_GE(t.front(), 0.0);
      EXPECT_LT(t.back(), horizon);
      // Every one-second window starting on a slot holds the rate exactly.
      for (double s = 0.0; s < horizon; s += 1.0) {
        const auto n = std::lower_bound(t.begin(), t.end(), s + 1.0) -
                       std::lower_bound(t.begin(), t.end(), s);
        EXPECT_EQ(static_cast<double>(n), w.rate_per_s) << w.name << " " << s;
      }
      // Arrivals share an instant only inside one burst.
      std::vector<double> distinct = t;
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      EXPECT_EQ(distinct.size() * w.burst, t.size());
    }
  }
}

TEST(Schedule, BurstyArrivalsComeInWholeBursts) {
  const WorkloadSpec& w = *find_workload("mixed-spec-pressure");
  ASSERT_GT(w.burst, 1u);
  const std::vector<double> t = arrival_times(w, 5, 20.0);
  ASSERT_EQ(t.size() % w.burst, 0u);
  for (std::size_t i = 0; i < t.size(); i += w.burst) {
    for (std::size_t k = 1; k < w.burst; ++k) EXPECT_EQ(t[i + k], t[i]);
  }
}

TEST(Percentile, TenSamplesBeyondRule) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Percentile p90 = percentile(v, 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.supported());

  v.pop_back();  // 99 samples: p90 is rank 90, only 9 beyond
  EXPECT_FALSE(percentile(v, 0.9).supported());

  EXPECT_EQ(min_samples(0.9), 100u);
  EXPECT_EQ(min_samples(0.99), 1000u);
  EXPECT_EQ(min_samples(0.5), 20u);

  const Percentile p50 = percentile({5.0, 1.0, 3.0}, 0.5);
  EXPECT_EQ(p50.value, 3.0);
  EXPECT_EQ(p50.beyond, 1u);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(SelfTime, HandBuiltExample) {
  // Serial engine: 4 steps spanning 10 ms in total, of which 7 ms were
  // model passes (decode + prefill chunk + spec verify) — 0.75 ms of
  // engine self time per step, 70% of the step in passes.
  EXPECT_DOUBLE_EQ(self_ms_per_step(10.0, 7.0, 4, 1), 0.75);
  EXPECT_DOUBLE_EQ(fanout_efficiency(10.0, 7.0, 1), 0.7);
  // Four workers summing 32 ms of passes inside 10 ms of steps: 8 ms of
  // each worker's time is in passes, 2 ms over 5 steps is outside.
  EXPECT_DOUBLE_EQ(self_ms_per_step(10.0, 32.0, 5, 4), 0.4);
  EXPECT_DOUBLE_EQ(fanout_efficiency(10.0, 32.0, 4), 0.8);
  EXPECT_EQ(self_ms_per_step(10.0, 7.0, 0, 1), 0.0);
  EXPECT_EQ(fanout_efficiency(0.0, 7.0, 1), 0.0);
}

TEST(TraceCounts, HandBuiltTrace) {
  auto ev = [](TraceEventKind k, std::uint64_t step, std::uint64_t req,
               std::uint64_t ts, std::uint64_t a, std::uint64_t b,
               std::uint64_t c = 0, std::uint64_t d = 0) {
    return TraceEvent{.kind = k, .ts_us = ts, .step = step, .request = req,
                      .a = a, .b = b, .c = c, .d = d};
  };
  using K = TraceEventKind;
  const std::vector<TraceEvent> events = {
      ev(K::kEnqueue, 0, 1, 100, 20, 30),
      // step 1: admit with 16 restored positions, prefill the other 4
      ev(K::kAdmit, 1, 1, 1100, 1, 16),
      ev(K::kChunk, 1, 1, 1200, 4, 16),
      ev(K::kStep, 1, 0, 1300, 1, 4, 7, 3),
      // step 2: one decode at position 20
      ev(K::kDecode, 2, 1, 1400, 1, 20),
      ev(K::kStep, 2, 0, 1500, 1, 1, 8, 2),
      // step 3: a 5-row verify burst at 21 keeping 3, then preemption
      ev(K::kSpecBurst, 3, 1, 1600, 5, 21, 0, 3),
      ev(K::kPreempt, 3, 1, 1650, 0, 24),
      ev(K::kStep, 3, 0, 1700, 1, 5, 9, 1),
      // step 4: replay 0..16, of which all 16 rows are below high water 24
      ev(K::kChunk, 4, 1, 1800, 16, 0),
      ev(K::kBudgetShrink, 4, 1, 1850, 16, 1),
      ev(K::kStep, 4, 0, 1900, 1, 16, 5, 5),
  };
  const TraceCounts all = count_trace(events, 0, 4);
  EXPECT_EQ(all.steps, 4u);
  EXPECT_EQ(all.rows, 26u);
  EXPECT_EQ(all.chunk_rows, 20u);
  EXPECT_EQ(all.decode_rows, 1u);
  EXPECT_EQ(all.spec_rows, 5u);
  EXPECT_EQ(all.spec_bursts, 1u);
  EXPECT_EQ(all.spec_committed, 3u);
  EXPECT_EQ(all.replay_rows, 16u);
  EXPECT_EQ(all.preemptions, 1u);
  EXPECT_EQ(all.budget_shrinks, 1u);
  EXPECT_EQ(all.blocks_peak, 9u);
  EXPECT_EQ(all.prefix_hit_tokens, 16u);
  EXPECT_EQ(all.admitted_prompt_tokens, 20u);
  ASSERT_EQ(all.queue_wait_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(all.queue_wait_ms[0], 1.0);
  // Attended positions: chunk 16..19 -> 17+18+19+20, decode -> 21,
  // burst 21..25 -> 22+...+26, replay 0..15 -> 1+...+16.
  EXPECT_DOUBLE_EQ(all.attended_positions, 74.0 + 21.0 + 120.0 + 136.0);

  // Steps (2, 4]: the burst and the replay only; the admit is outside.
  const TraceCounts tail = count_trace(events, 2, 4);
  EXPECT_EQ(tail.steps, 2u);
  EXPECT_EQ(tail.rows, 21u);
  EXPECT_EQ(tail.replay_rows, 16u);
  EXPECT_TRUE(tail.queue_wait_ms.empty());
  EXPECT_EQ(tail.blocks_peak, 9u);
}

}  // namespace
}  // namespace perfbench
