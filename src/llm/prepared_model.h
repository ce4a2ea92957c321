// Immutable prepared model — the shareable half of the old InferenceEngine.
//
// A PreparedModel is built once per EngineConfig: it quantizes (OWQ or GPTQ)
// or bf16-rounds every decoder weight, instantiates the norms and the
// activation quantizers, and records the storage accounting. After
// construction it is strictly read-only: forward() is const and touches no
// member state, so any number of sequences (threads) can decode against one
// PreparedModel concurrently. All per-sequence mutability lives in
// SequenceState, and a pass's activations in a caller-owned ForwardScratch.
//
// ## One forward pass over a ragged batch
//
// forward() runs every row of a ragged batch — a row is (sequence, token,
// position), and a sequence contributes one decode row, a prefill chunk, or
// a speculative verify burst — through the decoder together, stage by stage
// per layer:
//   norm rows -> Wq/Wk/Wv GEMM -> per-sequence attention -> Wo GEMM ->
//   norm rows -> fc1 GEMM -> activation rows -> fc2 GEMM
// and finally norm rows -> embedding GEMM -> logits rows. Each weight matrix
// is read once per pass for all rows through KernelOps::gemm, whose every
// output is bitwise the table's matvec (kernels.h). Row stages (norm,
// residual add, activation, quantize) are row-local. The attention stage
// keeps each sequence's token order: write K/V at row t, attend at row t,
// then row t+1 — quantized KV blocks rescale on write, so this is exactly
// the order a token-by-token run sees. Every row's result is therefore
// bitwise identical to single steps, whatever the batch composition, the
// pass split, or the thread count.
//
// With a ThreadPool, stages fan out over work items: GEMM output-row tiles,
// rows, and (for attention) sequences — not whole sequences per thread, so
// no straggler holds the step. Batches larger than kMaxPassRows rows run as
// consecutive passes (a sequence's chunk may straddle two), which is
// bitwise safe by the chunk == steps contract and bounds the scratch.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/kernel_profiler.h"
#include "llm/kv_block_pool.h"
#include "llm/norm.h"
#include "llm/prefix_cache.h"
#include "llm/synthetic.h"
#include "owq/calibration.h"
#include "owq/gptq.h"
#include "owq/owq.h"
#include "quant/policy.h"

namespace opal {

class SequenceState;
class ThreadPool;

/// Tensors observable per decoder block; Fig 4's x-axis plus the two
/// calibration-only taps.
enum class RecordSite : std::uint8_t {
  kAttnIn,  // post-LN input to Wq/Wk/Wv
  kQuery,   // Q (input of Q.K^T)
  kKey,     // K
  kValue,   // V
  kProjIn,  // attention output z, input to Wo
  kFc1In,   // post-LN input to fc1
  kFc2In,   // FFN hidden after the nonlinearity, input to fc2
};

[[nodiscard]] std::string to_string(RecordSite site);

/// Observer of raw (pre-quantization) activations.
class ActivationRecorder {
 public:
  virtual ~ActivationRecorder() = default;
  virtual void record(std::size_t layer, RecordSite site,
                      std::span<const float> values) = 0;
};

/// Per-layer calibration statistics for OWQ column selection.
struct LayerCalibration {
  CalibrationStats attn_in;
  CalibrationStats proj_in;
  CalibrationStats fc1_in;
  CalibrationStats fc2_in;

  explicit LayerCalibration(std::size_t d_model, std::size_t d_ffn)
      : attn_in(d_model), proj_in(d_model), fc1_in(d_model),
        fc2_in(d_ffn) {}
};

using CalibrationSet = std::vector<LayerCalibration>;

/// Full second-moment matrices per layer, for GPTQ weight quantization.
struct LayerHessians {
  HessianAccumulator attn_in;
  HessianAccumulator proj_in;
  HessianAccumulator fc1_in;
  HessianAccumulator fc2_in;

  LayerHessians(std::size_t d_model, std::size_t d_ffn)
      : attn_in(d_model), proj_in(d_model), fc1_in(d_model),
        fc2_in(d_ffn) {}
};

using HessianSet = std::vector<LayerHessians>;

struct EngineConfig {
  PrecisionPolicy act_policy = policy_bf16();
  std::optional<OwqConfig> weight_quant;  // nullopt: weights stay bf16
  bool log2_softmax = false;
  int softmax_bits = 7;  // attention-map code width for the log2 unit
  std::size_t max_seq_len = 512;
  /// KV-cache entry storage in the pools make_kv_pool() builds for serving
  /// (make_sequence() without a pool always keeps fp32). kInt8/kLog2 trade
  /// a small perplexity delta for 4x less KV memory than kFp32 (see
  /// bench_table1_ppl).
  KvQuantMode kv_mode = KvQuantMode::kFp32;
  /// Positions per KV block (block-granular allocation unit).
  std::size_t kv_block_size = 16;

  /// Scheme label in the paper's notation, e.g. "W4A4/7 (MX-OPAL)".
  [[nodiscard]] std::string label() const;
};

/// One sequence's share of a ragged forward batch: `tokens` are fed at the
/// sequence's next positions [position(), position() + tokens.size()).
struct ForwardItem {
  SequenceState* seq = nullptr;
  std::span<const std::size_t> tokens;
};

/// Activation scratch of PreparedModel::forward: one row-major buffer per
/// activation (rows x width) plus the pass's row map and per-work-item
/// profiler slots. Grow-only and bounded by PreparedModel::kMaxPassRows rows,
/// so a serving engine owns one and reuses it every step with no steady-state
/// allocation. Not thread-safe: one forward() at a time per scratch.
class ForwardScratch {
 private:
  friend class PreparedModel;

  /// A contiguous run of one item's rows inside the current pass.
  struct Piece {
    SequenceState* seq = nullptr;
    std::span<const std::size_t> tokens;
    std::size_t item_offset = 0;  // index of tokens[0] within its item
    std::size_t row0 = 0;         // first scratch row of the piece
    std::size_t pos0 = 0;         // KV position of tokens[0]
  };
  /// One gemm work item: output rows [r0, r1) of y = W x over all rows.
  struct GemmTile {
    const float* w = nullptr;
    std::size_t r0 = 0, r1 = 0, ldy = 0, cols = 0;
    const float* x = nullptr;
    float* y = nullptr;
  };

  std::vector<float> x_, h_, q_, k_, v_, z_, proj_, hidden_, logits_;
  std::vector<Piece> pieces_;
  std::vector<GemmTile> tiles_;
  std::vector<KernelProfile> slots_;
};

class PreparedModel {
 public:
  /// Rows one forward pass holds at most; larger batches run as
  /// consecutive passes (bitwise identical, see the header comment).
  static constexpr std::size_t kMaxPassRows = 64;
  /// Output rows of one GEMM work item (a thread tile). Fixed, so a pass's
  /// work items do not depend on the thread count.
  static constexpr std::size_t kGemmTileRows = 32;

  /// `calibration`, when given, drives OWQ's FP-column selection; otherwise
  /// weight energy is used. The prepared model keeps a reference to `model`.
  PreparedModel(const SyntheticModel& model, EngineConfig config,
                const CalibrationSet* calibration = nullptr);

  /// GPTQ variant: weights are quantized with full OPTQ error compensation
  /// against the per-layer Hessians (requires config.weight_quant).
  PreparedModel(const SyntheticModel& model, EngineConfig config,
                const HessianSet& hessians);

  /// Feeds every item's tokens through the model in one batch-major pass
  /// (see the header comment). Per item, the results are bitwise those of
  /// tokens.size() single steps: item row i's logits land in
  /// seq.logits_row(i) (seq.rows() == tokens.size()), and seq.logits() is
  /// the last row, so a sampler extending the sequence (llm/sampler.h)
  /// reads the same handoff however the frontier was reached.
  ///
  /// Items must name distinct sequences. Tokens and max_seq_len are checked
  /// for every item before any state changes; KV blocks not pre-acquired
  /// with reserve_for() are taken per pass (KvPoolExhausted on a dry pool —
  /// a serving layer reserves up front so its forward never touches the
  /// pool). `pool` (nullable) fans the work items out over threads; the
  /// result bits do not depend on it. `profile`, when given, receives every
  /// work item's kernel and phase samples, each item timed into its own
  /// slot and merged serially; without it, a serial pass records into
  /// whatever slot the calling thread has bound. `recorder`, when given,
  /// forces a serial pass and observes activations layer-major (layer 0 for
  /// all rows, then layer 1, ...); within a layer each site is reported for
  /// the rows in order, and a one-row pass reports exactly a step's order.
  /// Const and thread-safe: concurrent calls are fine with distinct
  /// sequences and distinct scratches.
  void forward(std::span<const ForwardItem> items, ForwardScratch& scratch,
               ThreadPool* pool = nullptr, KernelProfile* profile = nullptr,
               ActivationRecorder* recorder = nullptr) const;

  /// One decode step for `seq`: forward() over a single one-token item.
  /// Returns logits over the vocabulary, pointing into `seq`'s logits buffer
  /// (valid until the next pass over the same state).
  std::span<const float> step(SequenceState& seq, std::size_t token,
                              ActivationRecorder* recorder = nullptr) const;

  /// Chunked prefill: forward() over a single item feeding `tokens`, the
  /// next known tokens at `seq`'s current position. Bitwise identical to
  /// tokens.size() single steps in every kv_mode; returns the final token's
  /// logits (seq.logits()), per-position logits at seq.logits_row(i). The
  /// serving engine batches its rows through forward() directly; this
  /// wrapper serves the facade, the model drafter and tests.
  std::span<const float> prefill_chunk(
      SequenceState& seq, std::span<const std::size_t> tokens,
      ActivationRecorder* recorder = nullptr) const;

  /// Fresh per-sequence state sized for this model, whose KV cache owns a
  /// private fp32 pool of kv_blocks_per_sequence() blocks whatever
  /// config().kv_mode says (the batch-of-1 facade, the model drafter).
  [[nodiscard]] SequenceState make_sequence() const;

  /// Shared-pool variant: the sequence allocates KV blocks from `pool` on
  /// demand (quantized per the pool's mode).
  [[nodiscard]] SequenceState make_sequence(KvBlockPool& pool) const;

  /// A pool whose blocks match this model (kv_block_size positions x
  /// d_model, config().kv_mode), sized to hold `n_full_sequences` sequences
  /// at full max_seq_len. Serving layers can carve smaller pools by scaling
  /// the block count down.
  [[nodiscard]] KvBlockPool make_kv_pool(double n_full_sequences) const;

  /// A prefix cache indexing full KV block columns of `pool` (which must
  /// match this model's KV layout) by their token-id prefix; admission maps
  /// hits with SequenceState::adopt_prefix so prefill skips the cached
  /// positions.
  [[nodiscard]] PrefixCache make_prefix_cache(KvBlockPool& pool) const;

  /// Pool blocks one sequence at full max_seq_len occupies.
  [[nodiscard]] std::size_t kv_blocks_per_sequence() const;

  [[nodiscard]] const ModelConfig& model_config() const {
    return model_->config();
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Fraction of weight values kept in bf16 (0 when weights are unquantized).
  [[nodiscard]] double fp_weight_fraction() const;
  /// Total packed weight storage in bits under the active weight format.
  [[nodiscard]] std::size_t weight_storage_bits() const;

 private:
  struct PreparedLayer {
    Matrix wq, wk, wv, wo, w_fc1, w_fc2;  // dequantized compute weights
    std::unique_ptr<Norm> attn_norm;
    std::unique_ptr<Norm> ffn_norm;
    std::size_t fp_weight_values = 0;
    std::size_t total_weight_values = 0;
    std::size_t storage_bits = 0;
  };

  void finish_construction();
  void prepare_layers(const CalibrationSet* calibration);
  void prepare_layers_gptq(const HessianSet& hessians);
  /// One pass of at most kMaxPassRows rows, described by scratch.pieces_.
  void forward_pass(ForwardScratch& s, std::size_t rows, ThreadPool* pool,
                    KernelProfile* profile,
                    ActivationRecorder* recorder) const;
  /// Row `row` of the pass through attention at layer `l`: quantizes its
  /// Q/K/V, writes K/V at its position, attends over the prefix, and leaves
  /// the quantized attention output in the z buffer.
  void attend_row(std::size_t l, ForwardScratch& s,
                  const ForwardScratch::Piece& piece, std::size_t t,
                  ActivationRecorder* recorder) const;
  void attend(std::size_t l, SequenceState& seq, std::span<const float> q,
              std::span<float> z, std::size_t len) const;
  void maybe_quantize(ActivationSite site, std::span<float> v) const;

  const SyntheticModel* model_;
  EngineConfig config_;
  std::vector<PreparedLayer> layers_;
  std::unique_ptr<Norm> final_norm_;
  QuantizerPtr quant_post_ln_;
  QuantizerPtr quant_attn_in_;
  QuantizerPtr quant_general_;
};

}  // namespace opal
