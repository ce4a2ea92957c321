// Per-sequence mutable decode state: the KV cache, the logits of the most
// recent pass, and the attention scratch. Cheap to create and reset, so a
// serving layer can keep one per in-flight request while every sequence
// shares a single immutable PreparedModel (whose forward pass keeps the
// row activations in a ForwardScratch, not here).
//
// The KV backend is either the dense KvCache (max_seq_len rows reserved up
// front; the single-sequence facade's default) or a PagedKvCache drawing
// fixed-size blocks from a shared KvBlockPool (the serving path, optionally
// quantized). PreparedModel reads the cache through attend_view(), which
// yields the cached prefix as a short list of row-major KvSegments:
//   * dense        — one segment spanning the cache rows themselves;
//   * paged fp32   — one zero-copy segment per KV block, spanning the
//     pool's storage directly (entries are the written bits, so there is
//     nothing to dequantize and nothing to copy);
//   * paged int8/log2 — one *code* segment per KV block, spanning the
//     pool's raw quantized storage with the per-block decode scales; the
//     fused dequantize-dot kernels (common/kernels.h) decode in-register,
//     so no fp32 gather scratch is materialized. Forcing gather
//     (set_force_gather / set_force_gather_attend) restores the
//     pre-fusion reference: dequantize the prefix into per-sequence
//     scratch and attend over the floats — bitwise identical to the fused
//     path within any one kernel table.
// All paths feed attention the same values in the same order, so the paged
// fp32 path stays bitwise identical to dense.
//
// A multi-token item of PreparedModel::forward (a prefill chunk or a verify
// burst) processes N known tokens layer by layer through one state. When
// gather is forced, the chunk
// protocol below keeps the quantized gather scratch exact without
// re-gathering the whole prefix per token: begin_chunk_layer() gathers the
// pre-chunk prefix once, and each write_kv_at() re-reads just the written
// block's rows — the only rows a quantized scale-growth rescale can touch —
// so every attend sees exactly the bytes a token-by-token run would have
// seen. The fused code-segment path needs none of that: it reads the
// blocks' live codes directly, which IS what a token-by-token re-gather
// would dequantize.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "llm/kv_cache.h"
#include "llm/model_config.h"
#include "llm/paged_kv_cache.h"
#include "llm/sampler.h"

namespace opal {

class SequenceState {
 public:
  /// Dense KV backend (one max_seq_len x d_model matrix pair per layer).
  SequenceState(const ModelConfig& config, std::size_t max_seq_len);

  /// Paged KV backend allocating from `pool` (which must outlive the state).
  SequenceState(const ModelConfig& config, std::size_t max_seq_len,
                KvBlockPool& pool);

  /// Number of tokens decoded into the KV cache so far.
  [[nodiscard]] std::size_t position() const {
    return dense_ ? dense_->length() : paged_->length();
  }
  [[nodiscard]] std::size_t max_seq_len() const { return max_seq_len_; }
  [[nodiscard]] bool paged() const { return paged_.has_value(); }

  /// Drops all cached context; the next step decodes at position 0. In
  /// paged mode every held block returns to the pool.
  void reset() { truncate(0); }

  /// Rolls the cached context back to `len` positions (scheduler eviction /
  /// partial-recompute preemption); paged mode frees the blocks past the
  /// new boundary. Throws if len exceeds position().
  void truncate(std::size_t len);

  // --- speculative decode-verify rollback (ServingEngine) ---
  //
  // A speculative burst feeds 1 + k tokens as one forward item and may
  // commit only the first C of them. In fp32 (and dense) KV, truncate()
  // alone rewinds exactly — writes are row-local. In quantized modes the
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
  // Capture is a no-op in fp32/dense modes, where spec_rollback() is just
  // truncate(). Buffers are grow-only and reused across bursts.
  void begin_spec_capture(std::size_t n_tokens);
  void end_spec_capture() { spec_capture_ = false; }
  void spec_rollback(std::size_t new_len);

  /// Adopts shared, already-written block columns (a PrefixCache hit) as
  /// this sequence's first `n_positions` cached positions, so prefill can
  /// skip ahead and resume decoding from there. Paged mode only; the cache
  /// must be empty (see PagedKvCache::map_shared).
  void adopt_prefix(std::span<const KvBlockColumn> columns,
                    std::size_t n_positions) {
    require(paged_.has_value(),
            "SequenceState::adopt_prefix: dense KV cannot share blocks");
    paged_->map_shared(columns, n_positions);
  }

  /// Paged-mode KV cache, for PrefixCache insertion (null in dense mode).
  [[nodiscard]] const PagedKvCache* paged_cache() const {
    return paged_ ? &*paged_ : nullptr;
  }

  /// Pool blocks currently held (0 in dense mode).
  [[nodiscard]] std::size_t blocks_held() const {
    return paged_ ? paged_->blocks_held() : 0;
  }
  /// Pool blocks the next decode step would take (0 in dense mode).
  [[nodiscard]] std::size_t blocks_needed_for_next() const {
    return paged_ ? paged_->blocks_needed_for_next() : 0;
  }
  /// Pool blocks an `n`-token chunk would take right now (0 in dense mode).
  [[nodiscard]] std::size_t blocks_needed_for(std::size_t n) const {
    return paged_ ? paged_->blocks_needed_for(n) : 0;
  }
  /// Pre-acquires the next step's blocks (no-op in dense mode); lets a
  /// serving layer keep pool mutation out of its parallel decode phase.
  void reserve_next() {
    if (paged_) paged_->reserve_next();
  }
  /// Multi-token reserve_next(): pre-acquires everything an `n`-token
  /// prefill chunk needs (idempotent; no-op in dense mode).
  void reserve_for(std::size_t n) {
    if (paged_) paged_->reserve_for(n);
  }

  /// Logits of the last row the most recent PreparedModel::forward fed
  /// through this state (a step's, or a chunk's final position) — zeros
  /// before the first pass.
  [[nodiscard]] std::span<const float> logits() const { return logits_; }

  /// Tokens the most recent multi-token forward item fed (0 before the
  /// first).
  [[nodiscard]] std::size_t chunk_tokens() const { return chunk_tokens_; }
  /// Logits of chunk position `i` (the logits observed after feeding the
  /// chunk's i-th token); valid until the next multi-token pass with this
  /// state.
  [[nodiscard]] std::span<const float> chunk_logits_row(std::size_t i) const {
    require(i < chunk_tokens_,
            "SequenceState::chunk_logits_row: row out of range");
    return std::span<const float>(chunk_logits_)
        .subspan(i * logits_.size(), logits_.size());
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

  /// Bench/test hook: route the paged attend path through the gather
  /// scratch (the pre-zero-copy / pre-fusion behavior) instead of
  /// block-span or fused code-segment views. Both splits are bitwise
  /// identical — fp32 read_row returns the written bits, and the fused
  /// dequantize kernels decode exactly read_row's floats with the same
  /// accumulation structure — so this only exists to measure what the
  /// scratch materialization used to cost and to pin the reference in
  /// tests. No effect in dense mode. set_force_gather_attend()
  /// (common/kernels.h) is the engine-wide equivalent.
  void set_force_gather(bool force) { force_gather_ = force; }

  /// Number of gather-scratch materializations (full or partial
  /// dequantize-into-fp32-scratch passes) this state has performed. Stays 0
  /// on the fused quantized decode path — the observable "no fp32 gather
  /// scratch" guarantee — and counts up when gather is forced.
  [[nodiscard]] std::size_t gather_count() const { return gather_count_; }

 private:
  friend class PreparedModel;

  /// The cached positions [0, len) of `layer` as row-major KvSegments (see
  /// the header comment for the three backing paths). Gather-backed views
  /// are valid until the next attend_view()/write on this state; zero-copy
  /// views follow the pool storage and are always current.
  [[nodiscard]] std::span<const KvSegment> attend_view(std::size_t layer,
                                                       std::size_t len);

  void init_scratch(const ModelConfig& config);

  /// True when this state must read paged KV through the fp32 gather
  /// scratch instead of zero-copy/fused segment views (the reference path).
  [[nodiscard]] bool gather_active() const;

  /// Lazily sizes the gather scratch, dequantizes rows [from, to) of
  /// `layer` into it, and counts the materialization.
  void gather_into_scratch(std::size_t layer, std::size_t from,
                           std::size_t to);

  // --- chunk protocol (driven by PreparedModel::forward) ---
  /// Sizes the chunk logits buffer for `n` tokens.
  void begin_chunk(std::size_t n);
  /// Prepares `layer` for in-chunk attends: quantized paths gather the
  /// pre-chunk prefix [0, prefix_len) once; write_kv_at keeps it fresh.
  void begin_chunk_layer(std::size_t layer, std::size_t prefix_len);
  /// Leaves chunk mode: attend_view() re-gathers fully again.
  void end_chunk() { chunk_layer_ = kNoChunkLayer; }
  [[nodiscard]] std::span<float> chunk_logits_row_mut(std::size_t i) {
    return std::span<float>(chunk_logits_)
        .subspan(i * logits_.size(), logits_.size());
  }

  void advance_cache_by(std::size_t n) {
    dense_ ? dense_->advance_by(n) : paged_->advance_by(n);
  }
  /// Writes one position's K/V for `layer`; inside a chunk on a quantized
  /// (or force-gather) paged cache, also refreshes the written block's rows
  /// in the gather scratch so in-chunk attends read post-rescale bytes.
  void write_kv_at(std::size_t layer, std::size_t pos,
                   std::span<const float> k, std::span<const float> v);

  std::size_t max_seq_len_;
  std::size_t n_layers_ = 0;
  std::size_t d_model_ = 0;
  SamplerState sampler_state_;
  std::optional<KvCache> dense_;
  std::optional<PagedKvCache> paged_;
  // Speculative-rollback capture (quantized paged mode only; see the
  // protocol comment above): fp32 copies of the rows written during the
  // current burst, [n_layers x spec_cap_ x d_model], plus the boundary
  // block's pre-burst snapshot per layer.
  bool spec_capture_ = false;
  bool spec_snap_valid_ = false;
  std::size_t spec_base_ = 0;  // position() when capture began
  std::size_t spec_cap_ = 0;   // tokens the capture covers
  std::vector<float> spec_rows_k_, spec_rows_v_;
  std::vector<KvBlockPool::BlockSnapshot> spec_snap_k_, spec_snap_v_;
  // Paged mode, gather path only: one layer's dequantized KV. Allocated
  // lazily on the first forced gather — the fused/zero-copy paths never
  // touch (or pay for) this scratch.
  std::vector<float> gather_k_, gather_v_;
  std::vector<KvSegment> segments_;  // attend_view scratch
  bool force_gather_ = false;
  std::size_t gather_count_ = 0;
  // Chunk state: the layer whose gather scratch a multi-token forward item
  // currently maintains incrementally (kNoChunkLayer outside a chunk).
  static constexpr std::size_t kNoChunkLayer = static_cast<std::size_t>(-1);
  std::size_t chunk_layer_ = kNoChunkLayer;
  std::size_t chunk_tokens_ = 0;
  std::vector<float> chunk_logits_;  // [chunk_tokens x vocab]
  // Sized once at construction; the decode hot path performs no heap
  // allocation.
  std::vector<float> logits_;          // vocab
  std::vector<float> scores_, probs_;  // max_seq_len
};

}  // namespace opal
