// OPAL serving benchmark: serves one named workload through the public
// ServingEngine API under the paper's scheme (W4A4/7 MX-OPAL activations,
// 4-bit OWQ weights, log2 softmax), checks the outputs, and prints one JSON
// result line.
//
//   opal_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One run:
//   1. after a short CPU spin-up, set-up at least three times (synthetic
//      model + OWQ quantization + PreparedModel build); setup_s is the
//      median;
//   2. an untraced phase: warm-up, then a timed window of S seconds (longer
//      only until every named percentile has ten samples beyond it), then
//      an untimed drain. The end-to-end metrics come from this phase, timed
//      by the benchmark's own token-observer timestamps;
//   3. with --trace 1, a second, traced and profiled phase of the same
//      requests; the per-layer metrics come from the benchmark's spans
//      around step()/submit(), the engine's exported counters (stats(),
//      metrics(), profile()), and its trace, replayed through the
//      accelerator model; plus host probes (read bandwidth, GEMV peak,
//      quantizer and softmax cost);
//   4. the correctness checks, outside every timed region: each sent
//      request is accounted for, a fixed subset matches a solo serial
//      batch-1 serve token for token, the traced phase's outputs equal the
//      untraced phase's, and the replay conserves the engine's rows.
// The last stdout line is {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
// exit code is 1 when a check fails, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "accel/replay.h"
#include "common/kernel_profiler.h"
#include "common/kernels.h"
#include "eval/schemes.h"
#include "harness.h"
#include "llm/engine.h"
#include "llm/serving_engine.h"
#include "softmax/softmax.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace opal;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- set-up ---------------------------------------------------------------

/// Busy-spins the calling thread: an idle virtual CPU takes seconds to reach
/// full speed (a GEMV loop ran at about a third of its steady rate in its
/// first second), and set-up is the first thing the benchmark times.
void spin_up_cpu(double seconds) {
  const Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < seconds) {
  }
}

struct Model {
  std::unique_ptr<SyntheticModel> synthetic;  // referenced by `prepared`
  std::shared_ptr<const PreparedModel> prepared;
};

Model build_model(const WorkloadSpec& w) {
  Model m;
  m.synthetic = std::make_unique<SyntheticModel>(
      scaled_for_eval(llama2_7b(), w.d_model, w.n_layers), 7);
  calibrate_logit_scale(*m.synthetic, 24, 8);
  EngineConfig ec = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  ec.max_seq_len = w.max_seq_len;
  ec.kv_mode = w.kv_mode;
  ec.kv_block_size = 16;
  m.prepared = std::make_shared<const PreparedModel>(*m.synthetic, ec);
  return m;
}

ServingConfig serving_config(const WorkloadSpec& w, const PreparedModel& m,
                             bool traced) {
  ServingConfig c;
  c.max_batch = w.max_batch;
  c.n_threads = w.n_threads;
  c.prefill_chunk_tokens = w.prefill_chunk;
  c.enable_prefix_cache = w.prefix_cache;
  if (w.ngram_speculation) c.speculative.policy = DraftPolicy::kNgram;
  if (w.kv_pool_pct < 100) {
    c.kv_pool_blocks =
        w.kv_pool_pct * w.max_batch * m.kv_blocks_per_sequence() / 100;
  }
  c.trace = traced;
  c.profile = traced;
  c.trace_capacity = std::size_t{1} << 19;
  return c;
}

// --- one serving phase ----------------------------------------------------

struct Sample {
  double t = 0.0;  // seconds since the phase started
  double v = 0.0;
};

struct ReqRecord {
  double due = 0.0;
  double last_token = 0.0;
  std::uint64_t last_step = 0;  // step() call that delivered last_token
  std::size_t observed = 0;     // tokens seen by the token observer
  FinishReason last_reason = FinishReason::kNone;
  bool done = false;
  bool ok = false;
  std::vector<std::size_t> tokens;
};

struct Phase {
  std::vector<ReqRecord> reqs;  // by request index
  std::vector<Sample> ttft_ms, itl_ms, submit_us, lag_ms;
  std::vector<double> token_t;
  struct Span {
    double t0 = 0.0, t1 = 0.0;
  };
  std::vector<Span> steps;
  double t_open = 0.0, t_close = 0.0;  // the timed window
  std::uint64_t step_lo = 0, step_hi = 0;  // step() calls at its edges
  std::uint64_t calls = 0;
  ServingEngine::Stats stats_lo, stats_hi;
  MetricsRegistry::Snapshot snap_lo, snap_hi;
  KernelProfile prof_lo, prof_hi;
  std::vector<TraceEvent> events;
  StepTrace trace;
  std::uint64_t truncated_events = 0;
  std::size_t tokens_decoded = 0;  // whole-phase Stats
  std::size_t pool_blocks = 0;
  double rss_mb = 0.0;
  std::string error;

  [[nodiscard]] bool in_window(double t) const {
    return t >= t_open && t < t_close;
  }
  [[nodiscard]] std::vector<double> window_values(
      const std::vector<Sample>& s) const {
    std::vector<double> out;
    for (const Sample& x : s) {
      if (in_window(x.t)) out.push_back(x.v);
    }
    return out;
  }
  [[nodiscard]] double window_s() const { return t_close - t_open; }
  [[nodiscard]] double step_ms_sum() const {
    double sum = 0.0;
    for (const Span& s : steps) {
      if (s.t0 >= t_open && s.t1 <= t_close) sum += (s.t1 - s.t0) * 1000.0;
    }
    return sum;
  }
};

Phase run_phase(const Model& model, const WorkloadSpec& w, std::uint64_t seed,
                double seconds, bool traced) {
  const double warm = std::min(3.0, 0.25 * seconds);
  const double cap = warm + 3.0 * seconds;
  Phase out;
  ServingEngine eng(model.prepared,
                    serving_config(w, *model.prepared, traced));
  out.pool_blocks = eng.kv_pool().n_blocks();
  std::unordered_map<RequestId, std::size_t> index_of;
  std::vector<RequestId> inflight;
  const Clock::time_point t0 = Clock::now();
  auto now = [&] { return seconds_between(t0, Clock::now()); };

  eng.set_token_observer(
      [&](RequestId id, std::size_t gen, std::size_t, FinishReason why) {
        const double t = now();
        ReqRecord& r = out.reqs[index_of.at(id)];
        // ITL is the gap between deliveries: the tokens one speculative
        // verify burst commits reach the client together, as one delivery.
        if (gen == 0) {
          out.ttft_ms.push_back({t, (t - r.due) * 1000.0});
        } else if (out.calls != r.last_step) {
          out.itl_ms.push_back({t, (t - r.last_token) * 1000.0});
        }
        out.token_t.push_back(t);
        r.last_token = t;
        r.last_step = out.calls;
        r.observed += 1;
        r.last_reason = why;
      });

  auto submit = [&](double due) {
    const std::size_t index = out.reqs.size();
    Request req = make_request(w, seed, index);
    ReqRecord rec;
    rec.due = due;
    out.reqs.push_back(std::move(rec));
    const double ts = now();
    const Clock::time_point c0 = Clock::now();
    const RequestId id = eng.submit(std::move(req));
    const double us = seconds_between(c0, Clock::now()) * 1e6;
    out.submit_us.push_back({ts, us});
    out.lag_ms.push_back({ts, (ts - due) * 1000.0});
    index_of[id] = index;
    inflight.push_back(id);
  };

  bool draining = false;
  auto harvest = [&] {
    for (std::size_t i = 0; i < inflight.size();) {
      const RequestId id = inflight[i];
      if (!eng.finished(id)) {
        ++i;
        continue;
      }
      ReqRecord& r = out.reqs[index_of.at(id)];
      RequestResult res = eng.result(id);
      r.done = true;
      r.ok = res.status == RequestStatus::kFinished;
      r.tokens = std::move(res.tokens);
      eng.release(id);
      inflight[i] = inflight.back();
      inflight.pop_back();
      if (w.load == LoadShape::kClosed && !draining) submit(now());
    }
  };

  auto snapshot = [&](bool lo) {
    if (lo) {
      out.step_lo = out.calls;
      out.stats_lo = eng.stats();
    } else {
      out.step_hi = out.calls;
      out.stats_hi = eng.stats();
    }
    if (traced) {
      (lo ? out.snap_lo : out.snap_hi) = eng.metrics();
      (lo ? out.prof_lo : out.prof_hi) = eng.profile();
    }
  };

  auto step = [&] {
    const double s0 = now();
    eng.step();
    out.steps.push_back({s0, now()});
    out.calls += 1;
    harvest();
  };

  const std::vector<double> arrivals = arrival_times(w, seed, cap);
  std::size_t next_arrival = 0;

  try {
    for (std::size_t c = 0; c < w.clients; ++c) submit(0.0);
    double window_end = warm + seconds;
    bool open = false;
    for (;;) {
      const double t = now();
      if (!open && t >= warm) {
        open = true;
        out.t_open = t;
        snapshot(true);
      }
      if (open && t >= window_end &&
          (!traced || out.calls >= w.det_steps)) {
        out.t_close = t;
        // The traced phase feeds only per-layer metrics, which name no
        // latency percentile: it keeps its window as given.
        const bool enough =
            traced ||
            (out.window_values(out.ttft_ms).size() >= min_samples(0.9) &&
             out.window_values(out.itl_ms).size() >= min_samples(0.99));
        if (enough || t >= cap) {
          snapshot(false);
          break;
        }
        window_end = std::min(cap, t + 0.5);
      }
      while (next_arrival < arrivals.size() && arrivals[next_arrival] <= t) {
        submit(arrivals[next_arrival++]);
      }
      if (eng.running() == 0 && eng.queued() == 0) {
        const double next_due = next_arrival < arrivals.size()
                                    ? arrivals[next_arrival]
                                    : window_end;
        // Spin rather than sleep until the next arrival: a sleeping
        // thread wakes late and on a cooled core, which would add host
        // jitter to the next request's latency.
        const double wake = std::min(next_due, open ? window_end : warm);
        while (now() < wake) std::this_thread::yield();
        continue;
      }
      step();
    }
    // Untimed drain: no new arrivals; every sent request runs to the end.
    draining = true;
    const double drain_deadline = now() + 60.0;
    while (eng.running() > 0 || eng.queued() > 0) {
      if (now() > drain_deadline) throw std::runtime_error("drain stalled");
      step();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.rss_mb = peak_rss_mb();
  out.tokens_decoded = eng.stats().tokens_decoded;
  if (traced) {
    out.events = eng.tracer().events();
    out.trace = step_trace_from_tracer(eng.tracer());
    out.truncated_events = eng.tracer().truncated_events();
  }
  return out;
}

// --- correctness ----------------------------------------------------------

std::vector<std::size_t> serve_solo(const Model& model, const Request& req) {
  ServingConfig c;
  c.max_batch = 1;
  ServingEngine eng(model.prepared, c);
  const RequestId id = eng.submit(req);
  eng.run();
  RequestResult res = eng.result(id);
  if (res.status != RequestStatus::kFinished) {
    throw std::runtime_error("solo serve did not finish");
  }
  return std::move(res.tokens);
}

/// The fixed subset re-served solo: the first half of `count` requests sent
/// and the half sent nearest the middle of the timed window.
std::vector<std::size_t> solo_subset(const Phase& p, std::size_t count) {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < count / 2 && i < p.reqs.size(); ++i) {
    ids.push_back(i);
  }
  const double mid = 0.5 * (p.t_open + p.t_close);
  std::size_t m = 0;
  while (m < p.reqs.size() && p.reqs[m].due < mid) ++m;
  for (std::size_t i = m; i < p.reqs.size() && ids.size() < count; ++i) {
    if (std::find(ids.begin(), ids.end(), i) == ids.end()) ids.push_back(i);
  }
  return ids;
}

struct Checks {
  std::vector<std::string> failures;
  void fail(std::string what) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    failures.push_back(std::move(what));
  }
};

void check_phase(const Phase& p, const char* name, Checks& checks) {
  if (!p.error.empty()) {
    checks.fail(std::string(name) + " phase threw: " + p.error);
    return;
  }
  for (std::size_t i = 0; i < p.reqs.size(); ++i) {
    const ReqRecord& r = p.reqs[i];
    if (!r.done) {
      checks.fail(std::string(name) + " request " + std::to_string(i) +
                  " was never accounted as succeeded or failed");
      continue;
    }
    // A finished stream ends with a token carrying its finish reason.
    if (r.ok && (r.observed == 0 || r.last_reason == FinishReason::kNone)) {
      checks.fail(std::string(name) + " request " + std::to_string(i) +
                  " finished without a complete token stream");
    }
  }
}

void check_solo(const Model& model, const WorkloadSpec& w, std::uint64_t seed,
                const Phase& p, Checks& checks) {
  for (const std::size_t i : solo_subset(p, w.solo_checks)) {
    const ReqRecord& r = p.reqs[i];
    if (!r.ok) continue;  // counted as failed, not compared
    const Request req = make_request(w, seed, i);
    if (r.tokens.size() != req.prompt.size() + r.observed) {
      checks.fail("request " + std::to_string(i) + " streamed " +
                  std::to_string(r.observed) + " tokens but returned " +
                  std::to_string(r.tokens.size() - req.prompt.size()));
    }
    if (serve_solo(model, req) != r.tokens) {
      checks.fail("request " + std::to_string(i) +
                  " differs from its solo batch-1 serve");
    }
  }
}

// --- host probes ----------------------------------------------------------

/// Streaming read bandwidth over `bytes` (at least 8 MiB, past a per-core
/// L2) split across `threads`: a GEMV reads its weights and writes almost
/// nothing, so this is the memory roof it runs against. Median of five
/// rounds after one untimed pass.
double probe_stream_gbytes_s(std::size_t threads, double bytes) {
  threads = std::max<std::size_t>(threads, 1);
  const auto n = static_cast<std::size_t>(std::max(bytes, 8.0 * (1 << 20))) /
                 sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = i;
  std::vector<std::uint64_t> sums(threads);
  std::vector<double> rounds;
  for (int round = 0; round < 6; ++round) {
    const Clock::time_point c0 = Clock::now();
    std::vector<std::thread> pool;
    const std::size_t slice = n / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = t * slice;
        const std::size_t hi = t + 1 == threads ? n : lo + slice;
        std::uint64_t acc[4] = {0, 0, 0, 0};
        std::size_t i = lo;
        for (; i + 4 <= hi; i += 4) {
          for (int k = 0; k < 4; ++k) acc[k] += buf[i + k];
        }
        for (; i < hi; ++i) acc[0] += buf[i];
        sums[t] = acc[0] + acc[1] + acc[2] + acc[3];
      });
    }
    for (std::thread& th : pool) th.join();
    const double s = seconds_between(c0, Clock::now());
    if (round > 0) rounds.push_back(n * sizeof(std::uint64_t) / s / 1e9);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t v : sums) total += v;
  if (total != n * (n - 1) / 2) throw std::runtime_error("read probe misread");
  return median(rounds);
}

/// Peak of the dispatched GEMV on a cache-resident 256 x 256 matrix,
/// single thread: 2 * rows * cols flops per call, best of five rounds.
double probe_gemv_peak_gflops() {
  constexpr std::size_t kRows = 256, kCols = 256, kCalls = 2000;
  std::vector<float> wmat(kRows * kCols), x(kCols), y(kRows);
  for (std::size_t i = 0; i < wmat.size(); ++i) {
    wmat[i] = static_cast<float>(i % 17) * 0.01f;
  }
  for (std::size_t i = 0; i < kCols; ++i) x[i] = static_cast<float>(i % 5);
  const KernelOps& ops = kernels();
  double best = 0.0;
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point c0 = Clock::now();
    for (std::size_t c = 0; c < kCalls; ++c) {
      ops.matvec(wmat.data(), kRows, kCols, x.data(), y.data());
      x[c % kCols] = y[c % kRows] * 1e-3f;  // keep each call live
    }
    const double s = seconds_between(c0, Clock::now());
    best = std::max(best, 2.0 * kRows * kCols * kCalls / s / 1e9);
  }
  return best;
}

/// Quantize-dequantize cost of one decoder row's activations, per element:
/// per layer, two post-LayerNorm vectors (QKV and FC1 inputs), Q/K/V at the
/// attention-input precision, the attention output and the FFN hidden at
/// the general precision — through the model's own PrecisionPolicy, on
/// Gaussian vectors with outlier channels planted.
double probe_quant_ns_per_elem(const Model& model) {
  const ModelConfig& mc = model.prepared->model_config();
  const PrecisionPolicy& pol = model.prepared->config().act_policy;
  const QuantizerPtr post_ln = pol.make_quantizer(ActivationSite::kPostLayerNorm);
  const QuantizerPtr attn_in = pol.make_quantizer(ActivationSite::kAttentionInput);
  const QuantizerPtr general = pol.make_quantizer(ActivationSite::kGeneral);
  auto vec = [](std::size_t n) {
    std::vector<float> v(n);
    CounterRng rng(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u1 = std::max(rng.next_unit(), 1e-12), u2 = rng.next_unit();
      v[i] = static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                                std::cos(6.283185307179586 * u2));
      if (i % 97 == 5) v[i] *= 24.0f;  // outlier channels
    }
    return v;
  };
  const std::vector<float> d_in = vec(mc.d_model), f_in = vec(mc.d_ffn);
  std::vector<float> d_out(mc.d_model), f_out(mc.d_ffn);
  const std::size_t elems = 6 * mc.d_model + mc.d_ffn;
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    constexpr int kRows = 400;
    const Clock::time_point c0 = Clock::now();
    for (int r = 0; r < kRows; ++r) {
      for (int k = 0; k < 2; ++k) post_ln->quantize_dequantize(d_in, d_out);
      for (int k = 0; k < 3; ++k) attn_in->quantize_dequantize(d_in, d_out);
      general->quantize_dequantize(d_in, d_out);
      general->quantize_dequantize(f_in, f_out);
    }
    rounds.push_back(seconds_between(c0, Clock::now()) * 1e9 /
                     (static_cast<double>(kRows) * elems));
  }
  return median(rounds);
}

/// log2_softmax_unit cost per score at KV depth `depth`.
double probe_softmax_ns_per_score(std::size_t depth, int bits) {
  depth = std::max<std::size_t>(depth, 1);
  std::vector<float> scores(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    scores[i] = static_cast<float>((i * 37) % 101) * 0.07f - 3.0f;
  }
  const std::size_t calls = std::max<std::size_t>(200000 / depth, 50);
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point c0 = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) {
      const auto codes = log2_softmax_unit(scores, Log2SoftmaxConfig{bits});
      asm volatile("" : : "r"(codes.data()) : "memory");  // keep the call
    }
    rounds.push_back(seconds_between(c0, Clock::now()) * 1e9 /
                     static_cast<double>(calls * depth));
  }
  return median(rounds);
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         json_number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string fingerprint() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::string s = "{\"kernels\": \"";
  s += kernels().name;
  s += "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
       ", \"l2_bytes\": " + std::to_string(l2) +
       ", \"l3_bytes\": " + std::to_string(l3) + ", \"compiler\": \"" +
       __VERSION__ + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  return s;
}

struct Counts {
  std::size_t sent = 0, ok = 0, failed = 0;
};

/// Requests due in [from, to).
Counts count_requests(const Phase& p, double from, double to) {
  Counts c;
  for (const ReqRecord& r : p.reqs) {
    if (r.due < from || r.due >= to) continue;
    c.sent += 1;
    (r.ok ? c.ok : c.failed) += 1;
  }
  return c;
}

std::vector<Metric> end_to_end(const Phase& p, double setup_s) {
  // A failed request sent in the window counts as missing every limit.
  std::vector<Sample> ttft = p.ttft_ms;
  for (const ReqRecord& r : p.reqs) {
    if (p.in_window(r.due) && r.done && !r.ok) {
      ttft.push_back({r.due, std::numeric_limits<double>::infinity()});
    }
  }
  auto pct = [&](const std::vector<Sample>& s, double q,
                 const char* name) {
    const Percentile pc = percentile(p.window_values(s), q);
    std::printf("  %s: %zu samples, %zu beyond%s\n", name, pc.samples,
                pc.beyond, pc.supported() ? "" : " (UNSUPPORTED)");
    return pc.value;
  };
  const double t50 = pct(ttft, 0.5, "ttft_p50_ms");
  const double t90 = pct(ttft, 0.9, "ttft_p90_ms");
  const double i50 = pct(p.itl_ms, 0.5, "itl_p50_ms");
  const double i99 = pct(p.itl_ms, 0.99, "itl_p99_ms");
  const auto tokens = static_cast<double>(std::count_if(
      p.token_t.begin(), p.token_t.end(),
      [&](double t) { return p.in_window(t); }));
  const Counts win = count_requests(p, p.t_open, p.t_close);
  return {
      {"setup_s", setup_s, "s"},
      {"gen_tok_s", tokens / p.window_s(), "tok/s"},
      {"ttft_p50_ms", t50, "ms"},
      {"ttft_p90_ms", t90, "ms"},
      {"itl_p50_ms", i50, "ms"},
      {"itl_p99_ms", i99, "ms"},
      {"req_ok_frac",
       win.sent ? static_cast<double>(win.ok) / static_cast<double>(win.sent)
                : 0.0,
       "frac"},
      {"peak_rss_mb", p.rss_mb, "MB"},
  };
}

double histogram_sum_delta(const Phase& p, std::string_view name) {
  const auto* hi = p.snap_hi.find_histogram(name);
  const auto* lo = p.snap_lo.find_histogram(name);
  return (hi ? hi->sum : 0.0) - (lo ? lo->sum : 0.0);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Per-layer metrics of traced phase `p`; `u` is the untraced phase of the
/// same requests (for the load generator and the tracing overhead).
std::vector<Metric> per_layer(const WorkloadSpec& w, const Model& model,
                              const Phase& p, const Phase& u, Checks& checks) {
  const ModelConfig& mc = model.prepared->model_config();
  const std::size_t workers = std::max<std::size_t>(w.n_threads, 1);
  std::vector<Metric> m;

  const TraceCounts win = count_trace(p.events, p.step_lo, p.step_hi);
  const TraceCounts cnt =
      w.det_steps ? count_trace(p.events, 0, w.det_steps) : win;

  // serving_engine
  std::vector<double> step_ms;
  for (const Phase::Span& s : p.steps) {
    if (s.t0 >= p.t_open && s.t1 <= p.t_close) {
      step_ms.push_back((s.t1 - s.t0) * 1000.0);
    }
  }
  const double step_sum = p.step_ms_sum();
  const double pass_sum = histogram_sum_delta(p, "serving.decode_ms") +
                          histogram_sum_delta(p, "serving.prefill_chunk_ms") +
                          histogram_sum_delta(p, "serving.spec_verify_ms");
  m.push_back({"engine.step_ms_p50", percentile(step_ms, 0.5).value, "ms"});
  m.push_back({"engine.step_ms_p99", percentile(step_ms, 0.99).value, "ms"});
  m.push_back({"engine.self_ms_per_step",
               self_ms_per_step(step_sum, pass_sum, step_ms.size(), workers),
               "ms"});
  m.push_back({"engine.fanout_eff",
               fanout_efficiency(step_sum, pass_sum, workers), "frac"});
  m.push_back({"engine.submit_us_p50",
               percentile(p.window_values(p.submit_us), 0.5).value, "us"});

  // scheduler
  m.push_back({"sched.queue_wait_ms_p50",
               percentile(win.queue_wait_ms, 0.5).value, "ms"});
  m.push_back({"sched.queue_wait_ms_p90",
               percentile(win.queue_wait_ms, 0.9).value, "ms"});
  m.push_back({"sched.rows_per_step",
               ratio(static_cast<double>(cnt.rows),
                     static_cast<double>(cnt.steps)),
               "rows"});
  m.push_back({"sched.budget_shrinks",
               static_cast<double>(cnt.budget_shrinks), "count"});

  // kv_block_pool / paged_kv_cache
  m.push_back({"kv.blocks_peak_frac",
               ratio(static_cast<double>(cnt.blocks_peak),
                     static_cast<double>(p.pool_blocks)),
               "frac"});
  m.push_back({"kv.preemptions", static_cast<double>(cnt.preemptions),
               "count"});
  m.push_back({"kv.evictions", static_cast<double>(cnt.evictions), "count"});
  m.push_back({"kv.replay_rows", static_cast<double>(cnt.replay_rows),
               "count"});

  // prefix_cache
  m.push_back({"prefix.hit_token_frac",
               ratio(static_cast<double>(cnt.prefix_hit_tokens),
                     static_cast<double>(cnt.admitted_prompt_tokens)),
               "frac"});
  m.push_back({"prefix.reclaimed_blocks",
               static_cast<double>(p.stats_hi.prefix_reclaimed_blocks -
                                   p.stats_lo.prefix_reclaimed_blocks),
               "count"});

  // prepared_model
  KernelProfile prof = p.prof_hi;
  std::uint64_t model_ns = 0;
  for (std::size_t i = 0; i < kLayerPhaseCount; ++i) {
    prof.phases[i].ns -= p.prof_lo.phases[i].ns;
    model_ns += prof.phases[i].ns;
  }
  for (std::size_t i = 0; i < kKernelKindCount; ++i) {
    prof.kernels[i].ns -= p.prof_lo.kernels[i].ns;
    prof.kernels[i].elems -= p.prof_lo.kernels[i].elems;
  }
  const auto model_ns_d = static_cast<double>(model_ns);
  for (std::size_t i = 0; i < kLayerPhaseCount; ++i) {
    m.push_back({"model.phase_share." + to_string(static_cast<LayerPhase>(i)),
                 ratio(static_cast<double>(prof.phases[i].ns), model_ns_d),
                 "frac"});
  }
  m.push_back({"model.decode_us_per_row",
               ratio(histogram_sum_delta(p, "serving.decode_ms") * 1000.0,
                     static_cast<double>(win.decode_rows)),
               "us"});
  m.push_back({"model.prefill_us_per_row",
               ratio(histogram_sum_delta(p, "serving.prefill_chunk_ms") * 1000.0,
                     static_cast<double>(win.chunk_rows)),
               "us"});
  m.push_back({"model.verify_us_per_row",
               ratio(histogram_sum_delta(p, "serving.spec_verify_ms") * 1000.0,
                     static_cast<double>(win.spec_rows)),
               "us"});

  // kernels

  const KernelStat& mv = prof.kernels[static_cast<std::size_t>(KernelKind::kMatvec)];
  const double mv_gflops =
      ratio(2.0 * static_cast<double>(mv.elems), static_cast<double>(mv.ns));
  // Weights dominate a GEMV's traffic: 4 bytes per fp32 element, 2 flops.
  const double mv_gbytes =
      ratio(4.0 * static_cast<double>(mv.elems), static_cast<double>(mv.ns));
  // Roofline of one worker: the GEMV peak, capped by its share of the read
  // bandwidth times 0.5 flop/byte unless the weights fit in its L2.
  const double weight_bytes = 4.0 * static_cast<double>(
      mc.n_layers * (4 * mc.d_model * mc.d_model + 2 * mc.d_model * mc.d_ffn) +
      mc.vocab * mc.d_model);
  const double stream = probe_stream_gbytes_s(workers, weight_bytes);
  const double gemv_peak = probe_gemv_peak_gflops();
  const double roof =
      weight_bytes <= static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE))
          ? gemv_peak
          : std::min(gemv_peak, stream / static_cast<double>(workers) * 0.5);
  double attend_ns = 0.0;
  for (const KernelKind k :
       {KernelKind::kAttendScores, KernelKind::kAttendAccum,
        KernelKind::kDequantScoresInt8, KernelKind::kDequantScoresLog2,
        KernelKind::kDequantAccumInt8, KernelKind::kDequantAccumLog2}) {
    attend_ns += static_cast<double>(prof.kernels[static_cast<std::size_t>(k)].ns);
  }
  m.push_back({"kernel.matvec.share",
               ratio(static_cast<double>(mv.ns), model_ns_d), "frac"});
  m.push_back({"kernel.matvec.gflops", mv_gflops, "GFLOP/s"});
  m.push_back({"kernel.matvec.gbytes_s", mv_gbytes, "GB/s"});
  m.push_back({"kernel.matvec.roofline_frac", ratio(mv_gflops, roof), "frac"});
  m.push_back({"kernel.attend.share", ratio(attend_ns, model_ns_d), "frac"});

  // quant (MX-OPAL)
  const double q_ns = probe_quant_ns_per_elem(model);
  const double q_elems_per_row =
      static_cast<double>(mc.n_layers * (6 * mc.d_model + mc.d_ffn));
  m.push_back({"quant.ns_per_elem", q_ns, "ns"});
  m.push_back({"quant.est_share",
               ratio(static_cast<double>(win.rows) * q_elems_per_row * q_ns,
                     model_ns_d),
               "frac"});

  // softmax
  const double depth = ratio(win.attended_positions,
                             static_cast<double>(win.rows));
  const double sm_ns = probe_softmax_ns_per_score(
      static_cast<std::size_t>(std::llround(depth)),
      model.prepared->config().softmax_bits);
  m.push_back({"softmax.log2_ns_per_score", sm_ns, "ns"});
  m.push_back({"softmax.est_share",
               ratio(win.attended_positions *
                         static_cast<double>(mc.n_heads * mc.n_layers) * sm_ns,
                     model_ns_d),
               "frac"});

  // drafter / sampler
  m.push_back({"spec.accept_rate",
               ratio(static_cast<double>(cnt.spec_committed - cnt.spec_bursts),
                     static_cast<double>(cnt.spec_rows - cnt.spec_bursts)),
               "frac"});
  m.push_back({"spec.tokens_per_burst",
               ratio(static_cast<double>(cnt.spec_committed),
                     static_cast<double>(cnt.spec_bursts)),
               "tok"});
  m.push_back({"spec.wasted_row_frac",
               ratio(static_cast<double>(cnt.spec_rows - cnt.spec_committed),
                     static_cast<double>(cnt.rows)),
               "frac"});

  // accel (replay): the whole trace must conserve the engine's rows; the
  // metrics re-cost the counting range.
  const ReplayReport whole = replay_trace(make_opal_device(4, 7, 4), p.trace);
  if (p.trace.dropped_steps != 0 || whole.rows_fed != p.tokens_decoded) {
    checks.fail("replay rows " + std::to_string(whole.rows_fed) +
                    " != engine rows " + std::to_string(p.tokens_decoded) +
                    " (dropped steps " +
                    std::to_string(p.trace.dropped_steps) + ")");
  }
  StepTrace range = p.trace;
  const std::uint64_t lo = w.det_steps ? 0 : p.step_lo;
  const std::uint64_t hi = w.det_steps ? w.det_steps : p.step_hi;
  std::erase_if(range.steps, [&](const TraceStep& s) {
    return s.step <= lo || s.step > hi;
  });
  const Clock::time_point r0 = Clock::now();
  const ReplayReport opal = replay_trace(make_opal_device(4, 7, 4), range);
  const double replay_s = seconds_between(r0, Clock::now());
  const ReplayReport bf16 = replay_trace(make_bf16_device(), range);
  m.push_back({"accel.replay_us_per_step",
               ratio(replay_s * 1e6, static_cast<double>(range.steps.size())),
               "us"});
  m.push_back({"accel.opal_uj_per_token", opal.energy_per_token_j() * 1e6,
               "uJ/tok"});
  m.push_back({"accel.bf16_over_opal_energy_x",
               ratio(bf16.energy_per_token_j(), opal.energy_per_token_j()),
               "x"});

  // host roofline probes, load generator, instrumentation cost
  m.push_back({"host.stream_gbytes_s", stream, "GB/s"});
  m.push_back({"host.gemv_peak_gflops", gemv_peak, "GFLOP/s"});
  m.push_back({"loadgen.lag_p99_ms",
               percentile(u.window_values(u.lag_ms), 0.99).value, "ms"});
  const double traced_ms_per_row =
      ratio(step_sum, static_cast<double>(win.rows));
  const double plain_ms_per_row =
      ratio(u.step_ms_sum(),
            static_cast<double>(u.stats_hi.tokens_decoded -
                                u.stats_lo.tokens_decoded));
  m.push_back({"trace.overhead_frac",
               ratio(traced_ms_per_row, plain_ms_per_row) - 1.0, "frac"});
  return m;
}

void print_phase(const char* name, const Phase& p) {
  const Counts warm = count_requests(p, 0.0, p.t_open);
  const Counts win = count_requests(p, p.t_open, p.t_close);
  std::printf("%s phase: window %.2f s (%llu steps, engine busy %.0f%%); "
              "requests sent/ok/failed: warm-up %zu/%zu/%zu, window "
              "%zu/%zu/%zu, drain 0/0/0\n",
              name, p.window_s(),
              static_cast<unsigned long long>(p.step_hi - p.step_lo),
              p.step_ms_sum() / 10.0 / p.window_s(), warm.sent, warm.ok,
              warm.failed, win.sent, win.ok, win.failed);
}

int run(const Args& args) {
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  std::printf("host: %s\n", fingerprint().c_str());
  std::printf("workload: %s, seed %llu, %.3g s\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds);
  std::fflush(stdout);

  spin_up_cpu(3.0);
  std::vector<double> setups;
  Model model;
  // At least three set-ups, and more while they are cheap, so the median
  // of a small model's set-up is as steady as a large one's.
  double setup_total = 0.0;
  while (setups.size() < 3 || (setup_total < 1.0 && setups.size() < 31)) {
    model = Model{};  // at most one model alive
    const Clock::time_point c0 = Clock::now();
    model = build_model(*w);
    setups.push_back(seconds_between(c0, Clock::now()));
    setup_total += setups.back();
  }
  const double setup_s = median(setups);

  Checks checks;
  const Phase plain = run_phase(model, *w, args.seed, args.seconds, false);
  print_phase("untraced", plain);
  check_phase(plain, "untraced", checks);
  std::vector<Metric> metrics;
  if (plain.error.empty()) metrics = end_to_end(plain, setup_s);
  for (const Metric& m : metrics) {
    std::printf("  %-14s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (plain.error.empty()) check_solo(model, *w, args.seed, plain, checks);

  const double all = std::numeric_limits<double>::infinity();
  Counts totals = count_requests(plain, 0.0, all);
  if (args.trace && plain.error.empty()) {
    // Half the window: the per-layer metrics are shares, rates and counts
    // that settle sooner than the end-to-end latency tails.
    const Phase traced =
        run_phase(model, *w, args.seed, 0.5 * args.seconds, true);
    print_phase("traced", traced);
    check_phase(traced, "traced", checks);
    if (traced.error.empty()) {
      if (traced.truncated_events != 0) {
        checks.fail("trace ring overflowed: raise trace_capacity");
      }
      const std::size_t common = std::min(plain.reqs.size(), traced.reqs.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (plain.reqs[i].ok && traced.reqs[i].ok &&
            plain.reqs[i].tokens != traced.reqs[i].tokens) {
          checks.fail("request " + std::to_string(i) +
                      " differs between the traced and untraced runs");
        }
      }
      metrics = per_layer(*w, model, traced, plain, checks);
      for (const Metric& m : metrics) {
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    const Counts t = count_requests(traced, 0.0, all);
    totals.sent += t.sent;
    totals.ok += t.ok;
    totals.failed += t.failed;
  }

  const bool correct = checks.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", totals.sent, totals.failed,
              json_metrics(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: opal_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
