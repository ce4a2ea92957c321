#include "harness.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {
namespace {

using opal::CounterRng;
using opal::KvQuantMode;
using opal::Request;
using opal::SamplePolicy;

constexpr std::size_t kVocab = 512;

/// Draws for one request: uniform integers from a counter-based stream.
struct Draw {
  CounterRng rng;
  std::size_t between(std::size_t lo, std::size_t hi) {  // inclusive
    return lo + static_cast<std::size_t>(rng.next_u64() % (hi - lo + 1));
  }
  std::size_t token() { return between(0, kVocab - 1); }
};

/// Stream seed of (workload, seed, tag, index): distinct workloads and tags
/// never share a stream.
std::uint64_t stream_seed(std::string_view workload, std::uint64_t seed,
                          std::uint64_t tag, std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the name
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return CounterRng::at(CounterRng::at(h ^ seed, tag), index);
}

Request decode_heavy_request(Draw& d) {
  Request r;
  const std::size_t prompt = d.between(12, 20);
  for (std::size_t i = 0; i < prompt; ++i) r.prompt.push_back(d.token());
  r.max_new_tokens = d.between(96, 128);
  return r;
}

Request mixed_request(const WorkloadSpec& spec, std::uint64_t seed,
                      std::size_t index, Draw& d) {
  Request r;
  // A quarter of the prompts open with one shared 16-token (one block)
  // header, so the prefix cache sees some hits among mostly-missing lookups.
  if (d.between(0, 3) == 0) {
    Draw header{CounterRng(stream_seed(spec.name, seed, 3, 0))};
    for (std::size_t i = 0; i < 16; ++i) r.prompt.push_back(header.token());
  }
  if (index % 2 == 0) {
    // Seeded nucleus sampling with a stop token.
    const std::size_t own = d.between(8, 16);
    for (std::size_t i = 0; i < own; ++i) r.prompt.push_back(d.token());
    r.max_new_tokens = d.between(12, 24);
    r.sampling.policy = SamplePolicy::kTopP;
    r.sampling.temperature = 0.8f;
    r.sampling.top_p = 0.9f;
    r.sampling.seed = stream_seed(spec.name, seed, 4, index);
    r.sampling.stop_tokens = {d.token()};
  } else {
    // A repeated motif: the n-gram drafter finds recurrences to propose.
    const std::size_t motif = d.between(4, 8);
    std::vector<std::size_t> m;
    for (std::size_t i = 0; i < motif; ++i) m.push_back(d.token());
    const std::size_t own = d.between(16, 24);
    for (std::size_t i = 0; i < own; ++i) r.prompt.push_back(m[i % motif]);
    r.max_new_tokens = d.between(16, 24);
  }
  return r;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = [] {
    std::vector<WorkloadSpec> t;

    WorkloadSpec dh;
    dh.name = "decode-heavy";
    dh.d_model = 512;
    dh.n_layers = 4;
    dh.kv_mode = KvQuantMode::kLog2;
    dh.max_seq_len = 160;
    dh.max_batch = 16;
    dh.n_threads = 4;
    dh.prefill_chunk = 32;
    dh.load = LoadShape::kClosed;
    dh.clients = 16;
    dh.det_steps = 160;
    dh.solo_checks = 4;
    t.push_back(dh);

    WorkloadSpec mx;
    mx.name = "mixed-spec-pressure";
    mx.kv_mode = KvQuantMode::kFp32;
    mx.max_seq_len = 80;
    mx.max_batch = 8;
    mx.prefill_chunk = 16;
    mx.kv_pool_pct = 35;
    mx.prefix_cache = true;
    mx.ngram_speculation = true;
    mx.load = LoadShape::kOpen;
    mx.rate_per_s = 20.0;
    mx.burst = 4;
    mx.solo_checks = 8;
    t.push_back(mx);
    return t;
  }();
  return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Request make_request(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t index) {
  Draw d{CounterRng(stream_seed(spec.name, seed, 1, index))};
  return spec.load == LoadShape::kClosed ? decode_heavy_request(d)
                                         : mixed_request(spec, seed, index, d);
}

std::string serialize(const Request& r) {
  std::ostringstream out;
  out << "prompt";
  for (const std::size_t t : r.prompt) out << ' ' << t;
  const opal::SamplingParams& s = r.sampling;
  out << "|new " << r.max_new_tokens << "|prio " << r.priority << "|policy "
      << static_cast<int>(s.policy) << "|temp " << s.temperature << "|top_k "
      << s.top_k << "|top_p " << s.top_p << "|seed " << s.seed << "|max "
      << s.max_new_tokens << "|eos " << s.eos_token << "|stop";
  for (const std::size_t t : s.stop_tokens) out << ' ' << t;
  out << "|stopseq " << s.stop_sequences.size() << "|rep "
      << s.repetition_penalty << "|bias " << s.logit_bias.size();
  return out.str();
}

std::vector<double> arrival_times(const WorkloadSpec& spec, std::uint64_t seed,
                                  double horizon_s) {
  std::vector<double> out;
  if (spec.load == LoadShape::kClosed || horizon_s <= 0.0) return out;
  const auto per_slot = static_cast<std::size_t>(
      std::llround(spec.rate_per_s / static_cast<double>(spec.burst)));
  CounterRng rng(stream_seed(spec.name, seed, 5, 0));
  std::vector<double> slot(per_slot);
  for (double start = 0.0; start < horizon_s; start += 1.0) {
    for (double& t : slot) t = start + rng.next_unit();
    std::sort(slot.begin(), slot.end());
    for (const double t : slot) {
      if (t < horizon_s) out.insert(out.end(), spec.burst, t);
    }
  }
  return out;
}

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

std::size_t min_samples(double q) {
  std::size_t n = 1;
  while (percentile(std::vector<double>(n, 0.0), q).beyond < 10) ++n;
  return n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                 : 0.5 * (values[m - 1] + values[m]);
}

double self_ms_per_step(double step_ms_sum, double pass_ms_sum,
                        std::size_t steps, std::size_t workers) {
  if (steps == 0) return 0.0;
  const double w = static_cast<double>(std::max<std::size_t>(workers, 1));
  return (step_ms_sum - pass_ms_sum / w) / static_cast<double>(steps);
}

double fanout_efficiency(double step_ms_sum, double pass_ms_sum,
                         std::size_t workers) {
  const double w = static_cast<double>(std::max<std::size_t>(workers, 1));
  return step_ms_sum > 0.0 ? pass_ms_sum / (step_ms_sum * w) : 0.0;
}

TraceCounts count_trace(std::span<const opal::TraceEvent> events,
                        std::uint64_t lo, std::uint64_t hi) {
  using opal::TraceEventKind;
  struct Req {
    std::uint64_t enqueue_us = 0;
    std::size_t prompt = 0;
    bool admitted = false;
    std::size_t high_water = 0;  // KV positions ever held
  };
  std::unordered_map<std::uint64_t, Req> reqs;
  TraceCounts c;
  for (const opal::TraceEvent& e : events) {
    const bool in = e.step > lo && e.step <= hi;
    Req& r = reqs[e.request];
    switch (e.kind) {
      case TraceEventKind::kEnqueue:
        r.enqueue_us = e.ts_us;
        r.prompt = e.a;
        break;
      case TraceEventKind::kAdmit:
        if (!r.admitted && in) {
          c.queue_wait_ms.push_back(
              static_cast<double>(e.ts_us - r.enqueue_us) / 1000.0);
          c.admitted_prompt_tokens += r.prompt;
          c.prefix_hit_tokens += e.b;
        }
        r.admitted = true;
        break;
      case TraceEventKind::kChunk:
      case TraceEventKind::kDecode:
      case TraceEventKind::kSpecBurst: {
        const std::size_t rows = e.kind == TraceEventKind::kDecode ? 1 : e.a;
        const std::size_t pos = e.b;
        const std::size_t kept =
            e.kind == TraceEventKind::kSpecBurst ? e.d : rows;
        if (in) {
          if (e.kind == TraceEventKind::kDecode) c.decode_rows += rows;
          if (e.kind == TraceEventKind::kChunk) c.chunk_rows += rows;
          if (e.kind == TraceEventKind::kSpecBurst) {
            c.spec_rows += rows;
            c.spec_bursts += 1;
            c.spec_committed += kept;
          }
          if (pos < r.high_water) {
            c.replay_rows += std::min(pos + rows, r.high_water) - pos;
          }
          const auto p = static_cast<double>(pos);
          const auto n = static_cast<double>(rows);
          c.attended_positions += n * p + n * (n + 1.0) / 2.0;
        }
        r.high_water = std::max(r.high_water, pos + kept);
        break;
      }
      case TraceEventKind::kPreempt:
        if (in) c.preemptions += 1;
        break;
      case TraceEventKind::kEvict:
        if (in) c.evictions += 1;
        break;
      case TraceEventKind::kBudgetShrink:
        if (in) c.budget_shrinks += 1;
        break;
      case TraceEventKind::kStep:
        if (in) {
          c.steps += 1;
          c.rows += e.b;
          c.blocks_peak = std::max<std::size_t>(c.blocks_peak, e.c);
        }
        break;
      case TraceEventKind::kPrefixHit:
      case TraceEventKind::kFinish:
        break;
    }
  }
  return c;
}

}  // namespace perfbench
