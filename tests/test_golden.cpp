// Golden digests: what the stack computes, pinned bit for bit.
//
// For every kv_mode this hashes the token streams and every per-token logit
// (and logprob) bit pattern of three workloads:
//   (a) the batch-of-1 facade: greedy and seeded top-p generate(), each
//       stream then replayed teacher-forced to hash every position's logits;
//   (b) a ServingEngine with 8-token prefill chunks, a prefix cache run cold
//       then warm, n-gram speculation, seeded top-p, 2 threads, and a
//       quarter-size KV pool that forces preemption replay;
//   (c) a ServingEngine speculating with a ModelDrafter (the same weights
//       at bf16, so bursts both accept and reject).
// and compares each digest with a constant recorded from a known-good
// build. A refactor that must not change behaviour passes this byte for
// byte; a change that moves any logit bit fails it.
//
// The scalar kernel table is pinned: it is the source-order IEEE reference,
// and with the whole tree built with -ffp-contract=off every build flavour
// (Release, Debug + sanitizers, -march=native) computes the same bits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_float(float x) { add(std::bit_cast<std::uint32_t>(x)); }
  void add_floats(std::span<const float> xs) {
    add(xs.size());
    for (const float x : xs) add_float(x);
  }
  void add_tokens(std::span<const std::size_t> tokens) {
    add(tokens.size());
    for (const std::size_t t : tokens) add(t);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

const SyntheticModel& target_model() {
  static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                    42);
  return model;
}

/// The target's weights at bf16 with no activation quantization: a draft
/// that mostly agrees with the target but not always.
std::shared_ptr<const PreparedModel> draft_model() {
  static const auto draft = [] {
    EngineConfig cfg = scheme_bf16();
    cfg.max_seq_len = 48;
    cfg.kv_block_size = 4;
    return std::make_shared<const PreparedModel>(target_model(), cfg);
  }();
  return draft;
}

EngineConfig golden_config(KvQuantMode mode) {
  EngineConfig cfg = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  cfg.max_seq_len = 48;
  cfg.kv_block_size = 4;
  cfg.kv_mode = mode;
  return cfg;
}

SamplingParams top_p(std::uint64_t seed, float p) {
  SamplingParams params;
  params.policy = SamplePolicy::kTopP;
  params.temperature = 0.9f;
  params.top_p = p;
  params.seed = seed;
  return params;
}

std::vector<Request> serving_requests() {
  // A shared 8-token prefix (two KV blocks) so cold admissions already hit
  // the prefix cache, plus an unrelated prompt.
  const std::vector<std::size_t> prefix = {11, 3, 29, 40, 7, 52, 18, 33};
  std::vector<Request> out;
  const std::vector<std::vector<std::size_t>> tails = {
      {5, 9, 14}, {21, 2}, {60, 61, 62, 63, 1}, {8}};
  for (std::size_t i = 0; i < tails.size(); ++i) {
    Request req;
    req.prompt = prefix;
    req.prompt.insert(req.prompt.end(), tails[i].begin(), tails[i].end());
    req.max_new_tokens = 10 + 2 * i;
    if (i % 2 == 1) req.sampling = top_p(100 + i, 0.85f);
    out.push_back(req);
  }
  Request other;
  other.prompt = {4, 44, 4, 44, 4};
  other.max_new_tokens = 14;
  out.push_back(other);
  return out;
}

/// Submits `requests`, runs the engine dry, and hashes every streamed
/// logits row and logprob plus each final stream, per request in id order.
void serve_round(ServingEngine& engine, const std::vector<Request>& requests,
                 Digest& d) {
  std::map<RequestId, Digest> per;
  engine.set_logits_observer(
      [&](RequestId id, std::size_t pos, std::span<const float> logits) {
        per[id].add(pos);
        per[id].add_floats(logits);
      });
  engine.set_token_logprob_observer(
      [&](RequestId id, std::size_t index,
          const ServingEngine::TokenLogprobInfo& info) {
        Digest& r = per[id];
        r.add(index);
        r.add(info.token);
        r.add_float(info.logprob);
        r.add(info.speculative);
        r.add(info.draft_hit);
      });
  std::vector<RequestId> ids;
  for (const Request& req : requests) ids.push_back(engine.submit(req));
  engine.run();
  for (const RequestId id : ids) {
    const RequestResult res = engine.result(id);
    Digest& r = per[id];
    r.add_tokens(res.tokens);
    r.add(static_cast<std::uint64_t>(res.status));
    r.add(static_cast<std::uint64_t>(res.finish_reason));
    d.add(r.value());
  }
}

std::string facade_digest(const std::shared_ptr<const PreparedModel>& model) {
  Digest d;
  InferenceEngine facade(model);
  const std::vector<std::size_t> prompt = {9, 2, 6, 5, 3, 5, 8, 9, 7};
  for (const SamplingParams& params : {SamplingParams{}, top_p(5, 0.9f)}) {
    const GenerationResult gen = facade.generate(prompt, 16, params);
    d.add_tokens(gen.tokens);
    d.add(static_cast<std::uint64_t>(gen.finish_reason));
    facade.reset();
    for (const std::size_t token : gen.tokens) d.add_floats(facade.step(token));
  }
  return d.hex();
}

std::string serving_digest(const std::shared_ptr<const PreparedModel>& model) {
  constexpr std::size_t kSlots = 4;
  ServingConfig scfg;
  scfg.max_batch = kSlots;
  scfg.n_threads = 2;
  scfg.prefill_chunk_tokens = 8;
  scfg.enable_prefix_cache = true;
  scfg.kv_pool_blocks = model->kv_blocks_per_sequence() * kSlots / 4;
  scfg.speculative.policy = DraftPolicy::kNgram;
  scfg.speculative.draft_tokens = 3;
  ServingEngine engine(model, scfg);
  Digest d;
  const auto requests = serving_requests();
  serve_round(engine, requests, d);  // cold prefix cache
  serve_round(engine, requests, d);  // warm
  const auto stats = engine.stats();
  // The digest only guards what the workload exercises.
  EXPECT_GT(stats.preemptions, 0u);
  EXPECT_GT(stats.prefix_hits, 0u);
  EXPECT_GT(stats.spec_accepted, 0u);
  return d.hex();
}

std::string drafter_digest(const std::shared_ptr<const PreparedModel>& model) {
  ServingConfig scfg;
  scfg.max_batch = 2;
  scfg.speculative.policy = DraftPolicy::kModel;
  scfg.speculative.draft_tokens = 3;
  scfg.speculative.draft_model = draft_model();
  ServingEngine engine(model, scfg);
  std::vector<Request> requests(3);
  requests[0].prompt = {3, 1, 4, 1, 5, 9, 2};
  requests[0].max_new_tokens = 12;
  requests[1].prompt = {27, 18, 28};
  requests[1].max_new_tokens = 10;
  requests[1].sampling = top_p(77, 0.8f);
  requests[2].prompt = {6, 6, 6, 6};
  requests[2].max_new_tokens = 10;
  Digest d;
  serve_round(engine, requests, d);
  const auto stats = engine.stats();
  EXPECT_GT(stats.spec_accepted, 0u);
  EXPECT_GT(stats.spec_rejected, 0u);
  return d.hex();
}

class GoldenDigest : public ::testing::Test {
 protected:
  void SetUp() override { set_force_scalar_kernels(true); }
  void TearDown() override { set_force_scalar_kernels(false); }
};

struct Golden {
  KvQuantMode mode;
  const char* facade;
  const char* serving;
  const char* drafter;
};

// Recorded with the scalar kernel table. Update only for a change that is
// meant to alter what the model computes, and say why in the commit.
constexpr Golden kGolden[] = {
    {KvQuantMode::kFp32, "1e0b2a5d9ae3acb1", "bdafc63de7f21cfe",
     "103dfdbbf65c42de"},
    {KvQuantMode::kInt8, "1e0b2a5d9ae3acb1", "7dd1d821ddbf282a",
     "90b708de0eb7c3fa"},
    {KvQuantMode::kLog2, "1e0b2a5d9ae3acb1", "f179a1823d82f721",
     "083f8eee8d2ddb4f"},
};

TEST_F(GoldenDigest, TokenStreamsAndLogitsMatchRecordedDigests) {
  for (const Golden& g : kGolden) {
    auto model = std::make_shared<const PreparedModel>(target_model(),
                                                       golden_config(g.mode));
    const std::string tag = to_string(g.mode);
    EXPECT_EQ(facade_digest(model), g.facade) << tag << " facade";
    EXPECT_EQ(serving_digest(model), g.serving) << tag << " serving";
    EXPECT_EQ(drafter_digest(model), g.drafter) << tag << " model drafter";
  }
}

}  // namespace
}  // namespace opal
