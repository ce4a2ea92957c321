// Hardware-in-the-loop replay bench: open-loop serving traffic re-costed on
// the accelerator device model (accel/replay.h). Every figure it writes is
// a pure function of the code: arrival schedules are denominated in engine
// steps, and replay prices the recorded schedule, not the host's wall
// clock. Serving wall-clock latency is perfbench's job (BENCHMARK.json),
// where it is measured with its run-to-run spread.
//
// Scenarios (open loop: arrival steps are fixed by a seeded schedule before
// serving begins, so a slow policy faces a growing queue):
//   chat-shared-history   — 12 chat turns over one 64-token shared history
//                           (prefix cache on), Poisson arrivals, every 3rd
//                           request interactive-priority;
//   long-prompt-short-ans — 10 summarization-shaped requests (120-token
//                           prompt, 4-token answer), Poisson arrivals;
//   short-prompt-long-ans — 12 generation-shaped requests (8-token prompt,
//                           24-token answer) in bursts of four;
//   speculative-ngram     — 8 repetitive requests under n-gram speculative
//                           decoding, so spec_saved_j is exercised on bench
//                           traffic.
//
// The first three run under fifo / priority / fair-share (chunked prefill).
// Each run is traced (opal.step_trace/v2) and replayed on the BF16, OWQ-W4
// and OPAL devices, attributing energy per token, device latency, DRAM
// traffic, core area and TOPS/W to each policy; the result is persisted to
// BENCH_hw_replay.json (argv[1] overrides the path).
//
// Asserted (exit 1), per replayed run: the trace dropped no steps; replay
// conserves the engine's row accounting (replayed rows == engine rows);
// the serialized v2 trace replays to the byte-identical report, twice; and
// OPAL beats BF16 on energy per token. The speculative scenario must fire
// verify bursts, attribute a nonzero spec_saved_j on every device, and
// commit exactly the non-speculative outputs. Policy output equality,
// histogram counts, counter mirrors and traced/profiled re-runs are ctest's
// (test_scheduler, test_observability, test_profiler).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/replay.h"
#include "eval/schemes.h"
#include "llm/drafter.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace {

using namespace opal;

/// Deterministic LCG (Numerical Recipes constants): the schedule source.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  /// Uniform in (0, 1].
  double uniform() {
    return (static_cast<double>(next() % 1000000) + 1.0) / 1000000.0;
  }
};

struct Arrival {
  std::size_t step = 0;  // engine step at which the request is submitted
  Request req;
};

struct Scenario {
  std::string name;
  bool prefix_cache = false;
  std::vector<Arrival> arrivals;
};

std::vector<std::size_t> poisson_steps(std::size_t n, double mean_gap,
                                       std::uint64_t seed) {
  Lcg rng(seed);
  std::vector<std::size_t> steps;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -mean_gap * std::log(rng.uniform());  // exponential inter-arrival
    steps.push_back(static_cast<std::size_t>(t));
  }
  return steps;
}

Scenario chat_shared_history() {
  Scenario s;
  s.name = "chat-shared-history";
  s.prefix_cache = true;
  const auto steps = poisson_steps(12, 2.0, 101);
  for (std::size_t r = 0; r < steps.size(); ++r) {
    Arrival a;
    a.step = steps[r];
    for (std::size_t i = 0; i < 64; ++i) {
      a.req.prompt.push_back((i * 13 + 5) % 256);  // shared history
    }
    for (std::size_t i = 0; i < 8; ++i) {
      a.req.prompt.push_back((i * 29 + 7 * r + 3) % 256);  // this turn
    }
    a.req.max_new_tokens = 8;
    a.req.priority = r % 3 == 2 ? 1 : 0;  // every 3rd turn is interactive
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

Scenario long_prompt_short_answer() {
  Scenario s;
  s.name = "long-prompt-short-ans";
  const auto steps = poisson_steps(10, 4.0, 202);
  for (std::size_t r = 0; r < steps.size(); ++r) {
    Arrival a;
    a.step = steps[r];
    for (std::size_t i = 0; i < 120; ++i) {
      a.req.prompt.push_back((i * 17 + 11 * r + 1) % 256);
    }
    a.req.max_new_tokens = 4;
    a.req.priority = r % 2;
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

Scenario short_prompt_long_answer() {
  Scenario s;
  s.name = "short-prompt-long-ans";
  for (std::size_t r = 0; r < 12; ++r) {
    Arrival a;
    a.step = (r / 4) * 6;  // bursts of four, six steps apart
    for (std::size_t i = 0; i < 8; ++i) {
      a.req.prompt.push_back((i * 31 + 9 * r + 2) % 256);
    }
    a.req.max_new_tokens = 24;
    a.req.priority = r % 4 == 0 ? 1 : 0;
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

/// Repetitive generation-shaped workload for the speculative section: each
/// prompt cycles one 8-token motif, so the prompt-lookup n-gram drafter
/// always finds a recurrence of the frontier context to propose from —
/// verify bursts fire on real serving traffic, not just unit tests.
Scenario repetitive_long_answer() {
  Scenario s;
  s.name = "speculative-ngram";
  for (std::size_t r = 0; r < 8; ++r) {
    Arrival a;
    a.step = (r / 4) * 4;
    for (std::size_t i = 0; i < 32; ++i) {
      a.req.prompt.push_back(((i % 8) * 23 + 5 * r + 3) % 256);  // motif x4
    }
    a.req.max_new_tokens = 24;
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

struct PolicyRun {
  std::string policy;
  std::vector<std::vector<std::size_t>> tokens;  // per request
  ServingEngine::Stats stats;
  StepTrace trace;
  std::string trace_json;  // serialized opal.step_trace/v2
};

PolicyRun serve(const std::shared_ptr<const PreparedModel>& model,
                const Scenario& scenario,
                const std::shared_ptr<Scheduler>& policy, std::string name,
                SpeculativeConfig speculative = {}) {
  PolicyRun out;
  out.policy = std::move(name);

  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.prefill_chunk_tokens = 16;
  cfg.enable_prefix_cache = scenario.prefix_cache;
  cfg.scheduler = policy;
  cfg.trace = true;
  cfg.speculative = speculative;

  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  std::size_t next = 0;
  // Open loop: requests land on their scheduled step whether or not the
  // engine has caught up; a step with nothing admitted and nothing running
  // still advances the arrival clock (an idle tick).
  for (std::size_t step = 0; next < scenario.arrivals.size() ||
                             engine.running() > 0 || engine.queued() > 0;
       ++step) {
    while (next < scenario.arrivals.size() &&
           scenario.arrivals[next].step <= step) {
      ids.push_back(engine.submit(scenario.arrivals[next].req));
      ++next;
    }
    engine.step();
  }

  for (const RequestId id : ids) {
    out.tokens.push_back(engine.result(id).tokens);
  }
  out.stats = engine.stats();
  out.trace = step_trace_from_tracer(engine.tracer());
  std::ostringstream ts;
  engine.tracer().write_step_trace(ts);
  out.trace_json = ts.str();
  return out;
}

void emit_replay(std::ofstream& json, const ReplayReport& rep,
                 const char* tail) {
  json << "      {\"device\": \"" << rep.device
       << "\", \"energy_j\": " << rep.energy_j
       << ", \"energy_per_token_j\": " << rep.energy_per_token_j()
       << ", \"latency_s\": " << rep.latency_s
       << ", \"dram_bytes\": " << rep.dram_bytes
       << ", \"dram_bound_steps\": " << rep.dram_bound_steps
       << ", \"prefix_saved_j\": " << rep.prefix_saved_j
       << ", \"spec_saved_j\": " << rep.spec_saved_j
       << ", \"core_area_mm2\": " << rep.core_area_mm2
       << ", \"total_macs\": " << rep.total_macs
       << ", \"tops_per_watt\": " << rep.tops_per_watt() << "}" << tail
       << "\n";
}

/// Replays one run on every device, checks the replay gates, prints the
/// run's rows and appends its JSON record. Returns the reports (in
/// `devices` order) so callers can add scenario-specific gates.
std::vector<ReplayReport> replay_run(std::ofstream& hw,
                                     const std::vector<DeviceConfig>& devices,
                                     const std::string& scenario,
                                     const PolicyRun& r, bool last,
                                     bool& failed) {
  const char* where = r.policy.c_str();
  if (r.trace.dropped_steps != 0) {
    std::printf("ERROR: %s / %s trace dropped %llu steps (ring too small "
                "for the bench)\n",
                scenario.c_str(), where,
                static_cast<unsigned long long>(r.trace.dropped_steps));
    failed = true;
  }
  std::vector<ReplayReport> reps;
  for (const DeviceConfig& dev : devices) {
    reps.push_back(replay_trace(dev, r.trace));
  }
  // Conservation: replay sees exactly the rows the engine fed.
  if (reps[0].rows_fed != r.stats.tokens_decoded ||
      reps[0].prefix_rows_restored != r.stats.prefix_hit_tokens) {
    std::printf("ERROR: %s / %s replay row accounting diverges from engine "
                "Stats (%zu vs %zu rows)\n",
                scenario.c_str(), where, reps[0].rows_fed,
                r.stats.tokens_decoded);
    failed = true;
  }
  // Determinism + file round-trip: the serialized v2 trace replays to the
  // byte-identical report, twice.
  const StepTrace parsed = parse_step_trace(r.trace_json);
  const std::string once = replay_trace(devices[0], parsed).to_json();
  if (once != reps[0].to_json() ||
      once != replay_trace(devices[0], parsed).to_json()) {
    std::printf("ERROR: %s / %s replay not deterministic across "
                "serialization\n",
                scenario.c_str(), where);
    failed = true;
  }
  // The paper's point, end to end: OPAL spends less energy per committed
  // token than the BF16 baseline on the same trace.
  if (reps[2].energy_per_token_j() >= reps[0].energy_per_token_j()) {
    std::printf("ERROR: %s / %s OPAL energy/token %.3e !< BF16 %.3e\n",
                scenario.c_str(), where, reps[2].energy_per_token_j(),
                reps[0].energy_per_token_j());
    failed = true;
  }

  hw << "    {\"policy\": \"" << r.policy << "\", \"steps\": "
     << reps[0].n_steps << ", \"rows_fed\": " << reps[0].rows_fed
     << ", \"tokens_committed\": " << reps[0].tokens_committed
     << ", \"prefix_rows_restored\": " << reps[0].prefix_rows_restored
     << ", \"kv_bytes_written\": " << reps[0].kv_bytes_written
     << ",\n     \"devices\": [\n";
  for (std::size_t d = 0; d < reps.size(); ++d) {
    const ReplayReport& rep = reps[d];
    std::printf("  %-12s %8s %11.3e J %9.3e s %9.2f MB %11.3e J\n",
                d == 0 ? where : "", rep.device.c_str(),
                rep.energy_per_token_j(), rep.latency_s,
                rep.dram_bytes / 1e6, rep.spec_saved_j);
    emit_replay(hw, rep, d + 1 < reps.size() ? "," : "");
  }
  hw << "     ]}" << (last ? "" : ",") << "\n";
  return reps;
}

void print_header(const Scenario& sc) {
  std::printf("%s (%zu requests)\n", sc.name.c_str(), sc.arrivals.size());
  std::printf("  %-12s %8s %13s %11s %12s %13s\n", "policy", "device",
              "energy/tok", "latency", "DRAM", "spec saved");
}

void open_scenario(std::ofstream& hw, const Scenario& sc) {
  hw << "    {\"name\": \"" << sc.name << "\", \"requests\": "
     << sc.arrivals.size() << ",\n     \"policies\": [\n";
}

}  // namespace

int main(int argc, char** argv) {
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);

  EngineConfig ecfg;
  ecfg.max_seq_len = 256;
  ecfg.kv_block_size = 16;
  ecfg.kv_mode = KvQuantMode::kInt8;
  auto prepared = std::make_shared<const PreparedModel>(model, ecfg);

  const std::string path = argc > 1 ? argv[1] : "BENCH_hw_replay.json";
  std::ofstream hw(path);
  hw.precision(9);
  hw << "{\n  \"bench\": \"hw_replay\",\n"
     << "  \"trace_schema\": \"opal.step_trace/v2\",\n"
     << "  \"scenarios\": [\n";

  const std::vector<DeviceConfig> devices = {
      make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)};

  bool failed = false;
  for (const Scenario& sc : {chat_shared_history(),
                             long_prompt_short_answer(),
                             short_prompt_long_answer()}) {
    const PolicyRun runs[] = {
        serve(prepared, sc, std::make_shared<FifoScheduler>(), "fifo"),
        serve(prepared, sc, std::make_shared<PriorityScheduler>(),
              "priority"),
        serve(prepared, sc, std::make_shared<FairShareScheduler>(),
              "fair-share")};
    print_header(sc);
    open_scenario(hw, sc);
    for (const PolicyRun& r : runs) {
      replay_run(hw, devices, sc.name, r, &r == &runs[2], failed);
    }
    hw << "     ]},\n";  // the speculative scenario below closes the array
    std::printf("\n");
  }

  // --- speculative scenario: n-gram self-drafting served end to end, then
  // replayed so spec_saved_j attribution is exercised on bench traffic ---
  const Scenario sc = repetitive_long_answer();
  const auto base =
      serve(prepared, sc, std::make_shared<FifoScheduler>(), "fifo");
  SpeculativeConfig spec;
  spec.policy = DraftPolicy::kNgram;
  const auto specrun = serve(prepared, sc, std::make_shared<FifoScheduler>(),
                             "fifo+ngram", spec);
  // Verified speculation is lossless: committed tokens are the greedy
  // continuation, bitwise.
  if (specrun.tokens != base.tokens) {
    std::printf("ERROR: n-gram speculation changed request outputs\n");
    failed = true;
  }
  if (specrun.stats.spec_bursts == 0) {
    std::printf("ERROR: speculative scenario fired no verify bursts\n");
    failed = true;
  }
  std::printf("%s: %zu bursts, %zu/%zu drafts accepted, %.2f tokens/burst\n",
              sc.name.c_str(), specrun.stats.spec_bursts,
              specrun.stats.spec_accepted, specrun.stats.spec_drafted,
              specrun.stats.tokens_per_burst());
  print_header(sc);
  open_scenario(hw, sc);
  for (const ReplayReport& rep :
       replay_run(hw, devices, sc.name, specrun, true, failed)) {
    // The burst passes must surface in the attribution: a verify burst
    // never costs exactly what its committed tokens would as decodes.
    if (rep.spec_saved_j == 0.0) {
      std::printf("ERROR: %s replay attributed no speculative delta\n",
                  rep.device.c_str());
      failed = true;
    }
  }
  hw << "     ]}\n  ]\n}\n";
  hw.close();
  std::printf("\n");

  if (failed) return 1;
  std::printf("PASS: hw replay — deterministic across serialization, row "
              "accounting conserved, OPAL < BF16 energy/token in every "
              "scenario under every policy, speculative savings attributed; "
              "per-policy attribution written to %s\n",
              path.c_str());
  return 0;
}
