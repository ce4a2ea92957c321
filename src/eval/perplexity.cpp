#include "eval/perplexity.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_map>

#include "common/tensor.h"
#include "llm/serving_engine.h"

namespace opal {

void log_softmax(std::span<const float> logits, std::span<double> out) {
  require(logits.size() == out.size() && !logits.empty(),
          "log_softmax: bad spans");
  double max_l = logits[0];
  for (const float v : logits) max_l = std::max(max_l, double{v});
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = static_cast<double>(logits[i]) - max_l;
    sum += std::exp(out[i]);
  }
  const double log_sum = std::log(sum);
  for (auto& v : out) v -= log_sum;
}

std::vector<std::size_t> generate_stream(InferenceEngine& engine,
                                         std::size_t n_tokens,
                                         std::uint64_t seed) {
  engine.reset();
  Rng rng = make_rng(seed);
  std::vector<std::size_t> tokens;
  tokens.reserve(n_tokens);
  std::size_t token = 0;
  std::vector<double> logp;
  for (std::size_t t = 0; t < n_tokens; ++t) {
    tokens.push_back(token);
    const auto logits = engine.step(token);
    logp.resize(logits.size());
    log_softmax(logits, logp);
    // Inverse-CDF sample from the softmax distribution.
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    double r = uni(rng);
    std::size_t next = logits.size() - 1;
    for (std::size_t i = 0; i < logp.size(); ++i) {
      r -= std::exp(logp[i]);
      if (r <= 0.0) {
        next = i;
        break;
      }
    }
    token = next;
  }
  return tokens;
}

double evaluate_perplexity(InferenceEngine& engine,
                           std::span<const std::size_t> tokens) {
  require(tokens.size() >= 2, "evaluate_perplexity: need >= 2 tokens");
  engine.reset();
  double ce = 0.0;
  std::vector<double> logp;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    const auto logits = engine.step(tokens[t]);
    logp.resize(logits.size());
    log_softmax(logits, logp);
    ce += -logp[tokens[t + 1]];
  }
  return std::exp(ce / static_cast<double>(tokens.size() - 1));
}

std::vector<double> evaluate_perplexity_batched(
    const PreparedModel& model,
    const std::vector<std::vector<std::size_t>>& streams,
    std::size_t n_threads) {
  require(!streams.empty(), "evaluate_perplexity_batched: no streams");
  for (const auto& s : streams) {
    require(s.size() >= 2, "evaluate_perplexity_batched: need >= 2 tokens");
    // Scoring feeds s.size()-1 tokens; anything longer would be silently
    // evicted mid-stream, so fail loudly like the per-stream path does.
    require(s.size() - 1 <= model.config().max_seq_len,
            "evaluate_perplexity_batched: stream exceeds model max_seq_len");
  }

  ServingConfig cfg;
  // Results are schedule-independent (each stream has its own state), so a
  // bounded batch with queueing scores identically while capping peak KV
  // memory at kMaxConcurrentStreams full-length caches instead of one per
  // stream.
  constexpr std::size_t kMaxConcurrentStreams = 16;
  cfg.max_batch = std::min(streams.size(), kMaxConcurrentStreams);
  cfg.n_threads = n_threads;
  // Scoring is pure prefill (every token is known up front), the ideal
  // chunked-prefill consumer: feeding whole chunks per step is bitwise
  // identical to token-by-token stepping while visiting each layer's KV
  // prefix once per chunk instead of once per token.
  cfg.prefill_chunk_tokens = 16;
  ServingEngine engine(model, cfg);

  std::vector<double> ce(streams.size(), 0.0);
  std::unordered_map<RequestId, std::size_t> stream_of;
  std::vector<double> logp;
  engine.set_logits_observer([&](RequestId id, std::size_t pos,
                                 std::span<const float> logits) {
    const std::size_t s = stream_of.at(id);
    logp.resize(logits.size());
    log_softmax(logits, logp);
    ce[s] += -logp[streams[s][pos + 1]];
  });

  for (std::size_t s = 0; s < streams.size(); ++s) {
    Request req;
    // The last token is only ever a prediction target, never an input, so
    // feed tokens [0, n-1) exactly like the per-stream scorer does.
    req.prompt.assign(streams[s].begin(), streams[s].end() - 1);
    req.max_new_tokens = 0;  // pure teacher-forced scoring
    stream_of.emplace(engine.submit(std::move(req)), s);
  }
  engine.run();

  std::vector<double> ppl(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ppl[s] = std::exp(ce[s] / static_cast<double>(streams[s].size() - 1));
  }
  return ppl;
}

double evaluate_mean_kl(InferenceEngine& teacher, InferenceEngine& student,
                        std::span<const std::size_t> tokens) {
  require(tokens.size() >= 2, "evaluate_mean_kl: need >= 2 tokens");
  teacher.reset();
  student.reset();
  double kl = 0.0;
  std::vector<double> lp_t, lp_s;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    const auto logits_t = teacher.step(tokens[t]);
    const auto logits_s = student.step(tokens[t]);
    lp_t.resize(logits_t.size());
    lp_s.resize(logits_s.size());
    log_softmax(logits_t, lp_t);
    log_softmax(logits_s, lp_s);
    for (std::size_t i = 0; i < lp_t.size(); ++i) {
      kl += std::exp(lp_t[i]) * (lp_t[i] - lp_s[i]);
    }
  }
  return kl / static_cast<double>(tokens.size() - 1);
}

}  // namespace opal
