// Per-sequence mutable decode state: the KV cache, the logits of every row
// of the most recent pass, and the attention scratch. Cheap to create and
// reset, so a serving layer can keep one per in-flight request while every
// sequence shares a single immutable PreparedModel (whose forward pass
// keeps the row activations in a ForwardScratch, not here).
//
// The KV cache is a PagedKvCache: per-layer block tables over a
// KvBlockPool. A serving state draws blocks from a pool shared with every
// other sequence (fp32, int8 or log2 entries); a state built without one
// (the batch-of-1 facade, the model drafter) owns a private fp32 pool just
// large enough for max_seq_len positions.
//
// PreparedModel reads the cache through attend_view(), which yields the
// cached prefix as one row-major KvSegment per block, spanning the pool's
// storage directly — no per-step copy:
//   * fp32     — the written floats themselves;
//   * int8/log2 — the block's quantized codes plus its decode scale; the
//     fused dequantize-dot kernels (common/kernels.h) decode them
//     in-register, bitwise equal to decode-then-dot within one kernel table.
// Segments always show the blocks' live state. Inside a multi-token item of
// PreparedModel::forward (a prefill chunk or a verify burst) row t's attend
// therefore sees exactly the bytes a token-by-token run would see, including
// any block rescale an earlier row's quantized write caused.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "llm/model_config.h"
#include "llm/paged_kv_cache.h"
#include "llm/sampler.h"

namespace opal {

class SequenceState {
 public:
  /// KV cache on a private fp32 pool of `kv_block_size`-position blocks,
  /// sized for max_seq_len positions and owned by the state.
  SequenceState(const ModelConfig& config, std::size_t max_seq_len,
                std::size_t kv_block_size);

  /// KV cache allocating from `pool` (which must outlive the state).
  SequenceState(const ModelConfig& config, std::size_t max_seq_len,
                KvBlockPool& pool);

  /// Number of tokens decoded into the KV cache so far.
  [[nodiscard]] std::size_t position() const { return cache_.length(); }
  [[nodiscard]] std::size_t max_seq_len() const { return max_seq_len_; }

  /// Drops all cached context; the next step decodes at position 0. Every
  /// held block returns to the pool.
  void reset() { truncate(0); }

  /// Rolls the cached context back to `len` positions (scheduler eviction /
  /// partial-recompute preemption), freeing the blocks past the new
  /// boundary. Throws if len exceeds position().
  void truncate(std::size_t len) { cache_.truncate(len); }

  // --- speculative decode-verify rollback (ServingEngine) ---
  //
  // A speculative burst feeds 1 + k tokens as one forward item and may
  // commit only the first C of them. In fp32 KV, truncate() alone rewinds
  // exactly — writes are row-local. In quantized modes the
  // rejected rows can have GROWN the boundary block's scale and rescaled
  // the kept rows' codes, so truncate() alone would leave the kept prefix
  // different from what a non-speculative run produces. The capture
  // protocol makes the rollback bitwise anyway:
  //   * begin_spec_capture(n) — call after reserve_for(n), before the
  //     chunk: snapshots the partially-written boundary block (if any) and
  //     arms write_kv_at() to record the fp32 K/V rows the chunk writes;
  //   * spec_rollback(new_len) — truncate to new_len, then restore the
  //     boundary block (snapshot, or fresh-reset when every row of it was
  //     written inside the chunk) and replay the kept rows through
  //     write_at(). Block state is a pure function of the rows written
  //     since allocation, so the result is bit-identical to having fed
  //     only the committed tokens — the prefix stays canonical and
  //     prefix-cacheable, no non_canonical_from watermark needed;
  //   * end_spec_capture() — when every row was committed (no rollback).
  // Capture is a no-op in fp32 mode, where spec_rollback() is just
  // truncate(). Buffers are grow-only and reused across bursts.
  void begin_spec_capture(std::size_t n_tokens);
  void end_spec_capture() { spec_capture_ = false; }
  void spec_rollback(std::size_t new_len);

  /// Adopts shared, already-written block columns (a PrefixCache hit) as
  /// this sequence's first `n_positions` cached positions, so prefill can
  /// skip ahead and resume decoding from there. The cache must be empty
  /// (see PagedKvCache::map_shared).
  void adopt_prefix(std::span<const KvBlockColumn> columns,
                    std::size_t n_positions) {
    cache_.map_shared(columns, n_positions);
  }

  /// The KV cache, for PrefixCache insertion and block accounting.
  [[nodiscard]] const PagedKvCache& cache() const { return cache_; }

  /// Pool blocks currently held.
  [[nodiscard]] std::size_t blocks_held() const {
    return cache_.blocks_held();
  }
  /// Pool blocks the next decode step would take.
  [[nodiscard]] std::size_t blocks_needed_for_next() const {
    return cache_.blocks_needed_for_next();
  }
  /// Pool blocks an `n`-token chunk would take right now.
  [[nodiscard]] std::size_t blocks_needed_for(std::size_t n) const {
    return cache_.blocks_needed_for(n);
  }
  /// Pre-acquires everything an `n`-row pass needs (idempotent); lets a
  /// serving layer keep pool mutation out of its parallel model pass.
  void reserve_for(std::size_t n) { cache_.reserve_for(n); }

  /// Rows of the most recent PreparedModel::forward item fed through this
  /// state: 1 for a decode step, n for an n-token chunk or verify burst (1
  /// before the first pass).
  [[nodiscard]] std::size_t rows() const { return rows_; }
  /// Logits after the item's row `i` — bitwise what a token-by-token run
  /// observes after feeding that token. Rows of an earlier, wider item are
  /// not readable: `i` must be below rows(). Valid until the next pass with
  /// this state.
  [[nodiscard]] std::span<const float> logits_row(std::size_t i) const {
    require(i < rows_, "SequenceState::logits_row: row out of range");
    return std::span<const float>(logits_).subspan(i * vocab_, vocab_);
  }
  /// Logits of the item's last row (a step's, or a chunk's final
  /// position's) — the row generation extends from; zeros before the first
  /// pass.
  [[nodiscard]] std::span<const float> logits() const {
    return logits_row(rows_ - 1);
  }

  /// The request's sampler checkpoint (counter-based RNG stream position;
  /// see sampler.h). It rides with the sequence's decode state so a kept-KV
  /// preemption (truncate) carries it untouched; a serving layer that
  /// RELEASES the state for full recompute must save it first and restore
  /// it into the replacement state, so the replayed request resumes the
  /// exact RNG stream (replayed tokens are fed as known tokens and consume
  /// no draws). Serializing (rng.seed(), rng.counter()) checkpoints it.
  [[nodiscard]] SamplerState& sampler_state() { return sampler_state_; }
  [[nodiscard]] const SamplerState& sampler_state() const {
    return sampler_state_;
  }


 private:
  friend class PreparedModel;

  /// The cached positions [0, len) of `layer`: one KvSegment per block,
  /// spanning the pool's live storage (see the header comment). Valid until
  /// a block of the range is released.
  [[nodiscard]] std::span<const KvSegment> attend_view(std::size_t layer,
                                                       std::size_t len);

  void init_scratch(const ModelConfig& config);

  /// Sizes the logits buffer for an `n`-row forward item.
  void begin_rows(std::size_t n);
  [[nodiscard]] std::span<float> logits_row_mut(std::size_t i) {
    return std::span<float>(logits_).subspan(i * vocab_, vocab_);
  }

  void advance_cache_by(std::size_t n) { cache_.advance_by(n); }
  /// Writes one position's K/V for `layer` (and records it for a
  /// speculative rollback while a capture is armed).
  void write_kv_at(std::size_t layer, std::size_t pos,
                   std::span<const float> k, std::span<const float> v);

  std::size_t max_seq_len_;
  std::size_t n_layers_ = 0;
  std::size_t d_model_ = 0;
  std::size_t vocab_ = 0;
  SamplerState sampler_state_;
  // The private pool of a state built without one. Declared before cache_
  // so the cache returns its blocks before the pool goes away, and held by
  // pointer so a moved state's cache still points at it.
  std::unique_ptr<KvBlockPool> own_pool_;
  PagedKvCache cache_;
  // Speculative-rollback capture (quantized modes only; see the
  // protocol comment above): fp32 copies of the rows written during the
  // current burst, [n_layers x spec_cap_ x d_model], plus the boundary
  // block's pre-burst snapshot per layer.
  bool spec_capture_ = false;
  bool spec_snap_valid_ = false;
  std::size_t spec_base_ = 0;  // position() when capture began
  std::size_t spec_cap_ = 0;   // tokens the capture covers
  std::vector<float> spec_rows_k_, spec_rows_v_;
  std::vector<KvBlockPool::BlockSnapshot> spec_snap_k_, spec_snap_v_;
  std::vector<KvSegment> segments_;  // attend_view scratch
  // [rows_ x vocab], grow-only: it keeps its widest item's capacity, so
  // the decode hot path performs no heap allocation.
  std::size_t rows_ = 1;
  std::vector<float> logits_;
  std::vector<float> scores_, probs_;  // max_seq_len, sized once
};

}  // namespace opal
