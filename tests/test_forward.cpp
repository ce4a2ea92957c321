// Batch-major forward pass (PreparedModel::forward through ServingEngine):
// one step mixing prefill-chunk, decode, and speculative-verify rows — more
// rows than one pass holds — must give every request bitwise the tokens and
// per-position logits of a solo batch-1 serve, in every kv_mode, serial or
// threaded, profiled or silent. The pass-time histograms must add up to the
// pass's worker time (forward wall time x workers).
#include "llm/prepared_model.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "eval/schemes.h"
#include "llm/drafter.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                    42);
  return model;
}

std::shared_ptr<const PreparedModel> prepared(KvQuantMode mode) {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  cfg.kv_block_size = 4;
  cfg.kv_mode = mode;
  return std::make_shared<const PreparedModel>(tiny_model(), cfg);
}

constexpr KvQuantMode kAllModes[] = {KvQuantMode::kFp32, KvQuantMode::kInt8,
                                     KvQuantMode::kLog2};

/// Drafts k copies of the frontier token for requests whose prompt starts
/// with an even token, nothing otherwise — so one step holds speculative
/// bursts next to plain decode rows.
class EvenPromptDrafter final : public Drafter {
 public:
  [[nodiscard]] std::string name() const override { return "even-prompt"; }
  void draft(std::span<const std::size_t> tokens, std::size_t max_tokens,
             std::vector<std::size_t>& out) override {
    if (tokens.front() % 2 == 0) {
      out.insert(out.end(), max_tokens, tokens.back());
    }
  }
};

/// Five 40-token prompts (three 16-row chunk steps at chunk width 16) and
/// five 2-3 token prompts that reach their frontier after one step, each
/// generating 8 tokens greedily.
std::vector<Request> requests() {
  std::vector<Request> out;
  for (std::size_t i = 0; i < 10; ++i) {
    Request r;
    const std::size_t len = i < 5 ? 40 : 2 + i % 2;
    for (std::size_t t = 0; t < len; ++t) {
      r.prompt.push_back((i * 13 + t * 7) % 64);
    }
    r.max_new_tokens = 8;
    out.push_back(std::move(r));
  }
  return out;
}

struct Served {
  std::vector<std::vector<std::size_t>> tokens;
  // (request index, position) -> logits observed for that position.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<float>> logits;
  MetricsRegistry::Snapshot snap;
  std::vector<TraceEvent> events;
};

Served serve(const std::shared_ptr<const PreparedModel>& model,
             ServingConfig cfg, const std::vector<Request>& reqs) {
  ServingEngine engine(model, cfg);
  Served out;
  std::map<RequestId, std::size_t> index_of;
  engine.set_logits_observer(
      [&](RequestId id, std::size_t pos, std::span<const float> logits) {
        out.logits[{index_of.at(id), pos}].assign(logits.begin(),
                                                  logits.end());
      });
  std::vector<RequestId> ids;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ids.push_back(engine.submit(reqs[i]));
    index_of[ids.back()] = i;
  }
  engine.run();
  for (const RequestId id : ids) {
    out.tokens.push_back(engine.result(id).tokens);
  }
  out.snap = engine.metrics();
  out.events = engine.tracer().events();
  return out;
}

ServingConfig batched(std::size_t threads) {
  ServingConfig cfg;
  cfg.max_batch = 10;
  cfg.n_threads = threads;
  cfg.prefill_chunk_tokens = 16;
  cfg.speculative.policy = DraftPolicy::kCustom;
  cfg.speculative.draft_tokens = 3;
  cfg.speculative.make_custom = [] {
    return std::make_unique<EvenPromptDrafter>();
  };
  return cfg;
}

double hist_sum(const MetricsRegistry::Snapshot& snap, const char* name) {
  const auto* h = snap.find_histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

// Pass histograms charge each sequence its row share of the pass's worker
// time, so they sum to forward wall time x workers.
void expect_pass_time_conserved(const Served& s, std::size_t workers,
                                const std::string& where) {
  const double pass = hist_sum(s.snap, "serving.decode_ms") +
                      hist_sum(s.snap, "serving.prefill_chunk_ms") +
                      hist_sum(s.snap, "serving.spec_verify_ms");
  const double forward = hist_sum(s.snap, "serving.forward_ms");
  EXPECT_NEAR(pass, forward * static_cast<double>(workers),
              1e-9 * (1.0 + pass))
      << where;
}

TEST(Forward, MixedStepOverPassCapMatchesSoloServeInEveryMode) {
  const auto reqs = requests();
  for (const KvQuantMode mode : kAllModes) {
    const std::string where = to_string(mode);
    const auto model = prepared(mode);

    // Solo reference: each request alone, batch 1, serial, token by token.
    Served solo;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ServingConfig cfg;
      cfg.max_batch = 1;
      const Served one = serve(model, cfg, {reqs[i]});
      solo.tokens.push_back(one.tokens[0]);
      for (const auto& [key, logits] : one.logits) {
        solo.logits[{i, key.second}] = logits;
      }
    }

    const Served serial = serve(model, batched(0), reqs);
    ServingConfig threaded_cfg = batched(4);
    threaded_cfg.trace = true;
    const Served threaded = serve(model, threaded_cfg, reqs);
    ServingConfig profiled_cfg = batched(4);
    profiled_cfg.profile = true;
    const Served profiled = serve(model, profiled_cfg, reqs);

    // The workload really mixes row kinds in one step past the pass cap.
    std::map<std::uint64_t, std::set<TraceEventKind>> kinds;
    std::map<std::uint64_t, std::uint64_t> rows;
    for (const TraceEvent& e : threaded.events) {
      if (e.kind == TraceEventKind::kChunk ||
          e.kind == TraceEventKind::kDecode ||
          e.kind == TraceEventKind::kSpecBurst) {
        kinds[e.step].insert(e.kind);
        rows[e.step] += e.a;
      }
    }
    bool mixed_over_cap = false;
    for (const auto& [step, set] : kinds) {
      mixed_over_cap |= set.size() == 3 &&
                        rows[step] > PreparedModel::kMaxPassRows;
    }
    EXPECT_TRUE(mixed_over_cap) << where;

    EXPECT_EQ(serial.tokens, solo.tokens) << where;
    EXPECT_EQ(serial.logits, solo.logits) << where;
    EXPECT_EQ(threaded.tokens, serial.tokens) << where;
    EXPECT_EQ(threaded.logits, serial.logits) << where;
    EXPECT_EQ(profiled.tokens, serial.tokens) << where;
    EXPECT_EQ(profiled.logits, serial.logits) << where;

    expect_pass_time_conserved(serial, 1, where + " serial");
    expect_pass_time_conserved(threaded, 4, where + " threaded");
    expect_pass_time_conserved(profiled, 4, where + " profiled");
  }
}

// A chunk straddling the pass cap splits across two passes; both halves
// and the single-pass result must agree bitwise with token-by-token steps.
TEST(Forward, ItemsLargerThanOnePassMatchSingleSteps) {
  for (const KvQuantMode mode : kAllModes) {
    const auto model = prepared(mode);
    KvBlockPool pool = model->make_kv_pool(4.0);
    std::vector<std::size_t> a_tokens, b_tokens;
    for (std::size_t t = 0; t < 50; ++t) {
      a_tokens.push_back((t * 5 + 1) % 64);
      b_tokens.push_back((t * 3 + 2) % 64);
    }
    SequenceState a = model->make_sequence(pool);
    SequenceState b = model->make_sequence(pool);
    ForwardScratch scratch;
    const ForwardItem items[] = {{&a, a_tokens}, {&b, b_tokens}};
    model->forward(items, scratch);

    SequenceState ref = model->make_sequence(pool);
    for (std::size_t t = 0; t < b_tokens.size(); ++t) {
      const auto logits = model->step(ref, b_tokens[t]);
      const auto row = b.chunk_logits_row(t);
      ASSERT_EQ(std::vector<float>(row.begin(), row.end()),
                std::vector<float>(logits.begin(), logits.end()))
          << to_string(mode) << " row " << t;
    }
    EXPECT_EQ(std::vector<float>(b.logits().begin(), b.logits().end()),
              std::vector<float>(ref.logits().begin(), ref.logits().end()));
  }
}

}  // namespace
}  // namespace opal
