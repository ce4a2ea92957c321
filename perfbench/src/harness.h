// Pure helpers of the serving benchmark: the workload table, seeded input
// generation, open-loop arrival schedules, percentile extraction, and the
// per-layer arithmetic that turns engine counters and trace events into
// metrics. Nothing here touches a clock or an engine, so every function is
// unit-tested in tests/test_harness.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"
#include "llm/kv_block_pool.h"
#include "llm/serving_engine.h"

namespace perfbench {

enum class LoadShape : std::uint8_t {
  kClosed,  // `clients` callers, each sends its next request on completion
  kOpen,    // bursts of `burst` requests at Poisson instants (arrival_times)
};

/// One named workload: the model it serves, the engine configuration, the
/// load generator, and the shape of its requests.
struct WorkloadSpec {
  std::string name;
  // Model: scaled_for_eval(llama2_7b(), d_model, n_layers) under
  // scheme_mx_opal(4, 4, 7, log2 softmax).
  std::size_t d_model = 128;
  std::size_t n_layers = 3;
  opal::KvQuantMode kv_mode = opal::KvQuantMode::kFp32;
  std::size_t max_seq_len = 192;
  // Engine.
  std::size_t max_batch = 8;
  std::size_t n_threads = 0;  // 0 = serial engine
  std::size_t prefill_chunk = 1;
  /// Pool size as a percentage of max_batch full-length sequences
  /// (100 = never preempts).
  std::size_t kv_pool_pct = 100;
  bool prefix_cache = false;
  bool ngram_speculation = false;
  // Load.
  LoadShape load = LoadShape::kClosed;
  std::size_t clients = 0;   // kClosed
  double rate_per_s = 0.0;   // kOpen: requests per second
  std::size_t burst = 1;     // kOpen: requests per arrival instant
  // Measurement.
  /// Nonzero: the per-layer counts are taken over engine steps
  /// [0, det_steps) of the traced run, which a closed loop makes a pure
  /// function of the seed — so they repeat exactly. Zero: over the timed
  /// window.
  std::size_t det_steps = 0;
  /// Requests re-served solo (batch 1, serial, no cache, no speculation)
  /// and compared token for token: the first `solo_checks / 2` sent and as
  /// many sent nearest the middle of the timed window.
  std::size_t solo_checks = 4;
};

/// The benchmark's workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Request `index` of `spec`'s stream under `seed` — a pure function of the
/// three, so the traced and untraced runs (and the solo re-serve) send
/// identical requests by index.
[[nodiscard]] opal::Request make_request(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         std::size_t index);

/// Canonical byte encoding of a request (prompt, lengths, priority, every
/// sampling field) — what the determinism test compares.
[[nodiscard]] std::string serialize(const opal::Request& request);

/// Due times in seconds from the start of the run for an open-loop spec
/// over [0, horizon_s). Each one-second slot holds exactly
/// rate_per_s / burst arrival instants at uniform random times (a Poisson
/// process conditioned on its count per second, so every seed offers the
/// stated rate in every window), and each instant brings `burst` requests.
/// Empty for closed-loop specs.
[[nodiscard]] std::vector<double> arrival_times(const WorkloadSpec& spec,
                                                std::uint64_t seed,
                                                double horizon_s);

/// Nearest-rank percentile with its support: `value` is the
/// ceil(q * n)-th smallest sample; `beyond` counts the samples ranked above
/// it. A percentile is reported as supported only with at least ten
/// samples beyond it (so p90 needs 100 samples, p99 needs 1000).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);
/// Fewest samples for which percentile(_, q) is supported.
[[nodiscard]] std::size_t min_samples(double q);
[[nodiscard]] double median(std::vector<double> values);


/// Engine self time per step: the step span minus the model-pass time the
/// engine's workers spent inside it, `pass_ms_sum / workers` (workers = 1
/// for a serial engine, where this is exact; with a fan-out it assumes the
/// passes were spread evenly). Zero steps give 0.
[[nodiscard]] double self_ms_per_step(double step_ms_sum, double pass_ms_sum,
                                      std::size_t steps, std::size_t workers);
/// Share of the workers' step time spent in model passes:
/// pass_ms_sum / (step_ms_sum * workers).
[[nodiscard]] double fanout_efficiency(double step_ms_sum, double pass_ms_sum,
                                       std::size_t workers);

/// Per-layer counts over the trace events of engine steps (lo, hi] (the
/// ServingEngine stamps an event with the 1-based number of the step() call
/// it belongs to; enqueues between calls carry the previous call's number).
struct TraceCounts {
  std::size_t steps = 0;
  std::size_t rows = 0;           // all rows fed (kStep payload b)
  std::size_t decode_rows = 0;    // kDecode passes
  std::size_t chunk_rows = 0;     // kChunk passes (prefill and replay)
  std::size_t spec_rows = 0;      // kSpecBurst rows fed
  std::size_t spec_bursts = 0;
  std::size_t spec_committed = 0;
  std::size_t replay_rows = 0;    // rows re-fed below a request's high water
  std::size_t preemptions = 0;
  std::size_t evictions = 0;
  std::size_t budget_shrinks = 0;
  std::size_t blocks_peak = 0;    // max blocks in use after a step
  std::size_t prefix_hit_tokens = 0;
  std::size_t admitted_prompt_tokens = 0;  // prompts of first admissions
  /// Sum over fed rows of the KV depth the row attends over (its position
  /// + 1): the attention work, in scores per head per layer.
  double attended_positions = 0.0;
  std::vector<double> queue_wait_ms;  // enqueue -> first admit, per request
};
[[nodiscard]] TraceCounts count_trace(std::span<const opal::TraceEvent> events,
                                      std::uint64_t lo, std::uint64_t hi);

}  // namespace perfbench
