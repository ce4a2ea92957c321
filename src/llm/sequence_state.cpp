#include "llm/sequence_state.h"

#include "common/kernels.h"

namespace opal {

void SequenceState::init_scratch(const ModelConfig& config) {
  d_model_ = config.d_model;
  logits_.resize(config.vocab);
  scores_.resize(max_seq_len_);
  probs_.resize(max_seq_len_);
}

SequenceState::SequenceState(const ModelConfig& config,
                             std::size_t max_seq_len)
    : max_seq_len_(max_seq_len), n_layers_(config.n_layers),
      dense_(std::in_place, config.n_layers, config.d_model, max_seq_len) {
  segments_.reserve(1);
  init_scratch(config);
}

SequenceState::SequenceState(const ModelConfig& config,
                             std::size_t max_seq_len, KvBlockPool& pool)
    : max_seq_len_(max_seq_len), n_layers_(config.n_layers) {
  require(pool.d_model() == config.d_model,
          "SequenceState: pool d_model does not match the model");
  paged_.emplace(pool, config.n_layers, max_seq_len);
  // Sized once so the segment list never allocates mid-decode; the gather
  // scratch itself is lazy (gather_into_scratch) — only the forced-gather
  // reference path pays for it.
  segments_.reserve(max_seq_len / pool.block_size() + 1);
  init_scratch(config);
}

void SequenceState::truncate(std::size_t len) {
  dense_ ? dense_->truncate(len) : paged_->truncate(len);
}

void SequenceState::begin_spec_capture(std::size_t n_tokens) {
  // fp32 (and dense) KV needs no capture: writes are row-local, so
  // truncate() alone rewinds bitwise.
  if (!paged_ || paged_->pool().mode() == KvQuantMode::kFp32) return;
  const std::size_t need = n_layers_ * n_tokens * d_model_;
  if (spec_rows_k_.size() < need) {
    spec_rows_k_.resize(need);
    spec_rows_v_.resize(need);
  }
  spec_base_ = paged_->length();
  spec_cap_ = n_tokens;
  const std::size_t bs = paged_->pool().block_size();
  // A partially-written boundary block holds rows from earlier steps whose
  // fp32 inputs are gone — snapshot it so rollback can rewind the scale
  // growth the rejected rows may cause. Every other block the burst touches
  // is written entirely inside the burst and can be rebuilt from the
  // captured rows alone.
  spec_snap_valid_ = spec_base_ % bs != 0;
  if (spec_snap_valid_) {
    spec_snap_k_.resize(n_layers_);
    spec_snap_v_.resize(n_layers_);
    const std::size_t col = spec_base_ / bs;
    for (std::size_t l = 0; l < n_layers_; ++l) {
      paged_->save_block_column(l, col, spec_snap_k_[l], spec_snap_v_[l]);
    }
  }
  spec_capture_ = true;
}

void SequenceState::spec_rollback(std::size_t new_len) {
  if (dense_) {
    dense_->truncate(new_len);
    return;
  }
  const std::size_t bs = paged_->pool().block_size();
  const bool quantized = paged_->pool().mode() != KvQuantMode::kFp32;
  require(new_len >= spec_base_ || !spec_capture_,
          "SequenceState::spec_rollback: rollback below the capture base");
  paged_->truncate(new_len);
  if (!quantized || new_len % bs == 0) {
    // Block-aligned boundary: every surviving block is fully written and
    // untouched by the rejected rows (writes land in later blocks only).
    end_spec_capture();
    return;
  }
  require(spec_capture_,
          "SequenceState::spec_rollback: no speculative capture active");
  const std::size_t col = new_len / bs;
  const std::size_t from = std::max(col * bs, spec_base_);
  const std::size_t d = d_model_;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    if (spec_snap_valid_ && col == spec_base_ / bs) {
      paged_->restore_block_column(l, col, spec_snap_k_[l], spec_snap_v_[l]);
    } else {
      paged_->reset_block_column(l, col);
    }
    // Replay the kept rows in ascending position order — the same order a
    // non-speculative run writes this block, so the grow-only scale (and
    // every rescale) reproduces bit for bit.
    for (std::size_t pos = from; pos < new_len; ++pos) {
      const std::size_t idx = (l * spec_cap_ + (pos - spec_base_)) * d;
      paged_->write_at(l, pos,
                       std::span<const float>(spec_rows_k_).subspan(idx, d),
                       std::span<const float>(spec_rows_v_).subspan(idx, d));
    }
  }
  end_spec_capture();
}

bool SequenceState::gather_active() const {
  if (!paged_) return false;
  if (paged_->pool().mode() == KvQuantMode::kFp32) {
    // fp32 zero-copy vs gather is the PR-4 reference split; the engine-wide
    // quantized hook does not redirect it.
    return force_gather_;
  }
  return force_gather_ || force_gather_attend();
}

void SequenceState::gather_into_scratch(std::size_t layer, std::size_t from,
                                        std::size_t to) {
  const std::size_t need = max_seq_len_ * paged_->pool().d_model();
  if (gather_k_.size() < need) {
    gather_k_.resize(need);
    gather_v_.resize(need);
  }
  paged_->gather_range(layer, from, to, gather_k_, gather_v_);
  ++gather_count_;
}

void SequenceState::begin_chunk(std::size_t n) {
  chunk_tokens_ = n;
  // Grow-only: the buffer keeps its high-water capacity across chunks.
  if (chunk_logits_.size() < n * logits_.size()) {
    chunk_logits_.resize(n * logits_.size());
  }
}

void SequenceState::begin_chunk_layer(std::size_t layer,
                                      std::size_t prefix_len) {
  chunk_layer_ = layer;
  if (!gather_active()) return;  // dense/zero-copy/fused read live storage
  // One prefix gather per layer per chunk; write_kv_at keeps the written
  // block's rows fresh from here (earlier blocks cannot change mid-chunk).
  gather_into_scratch(layer, 0, prefix_len);
}

void SequenceState::write_kv_at(std::size_t layer, std::size_t pos,
                                std::span<const float> k,
                                std::span<const float> v) {
  if (dense_) {
    dense_->write_at(layer, pos, k, v);
    return;
  }
  paged_->write_at(layer, pos, k, v);
  if (spec_capture_ && pos >= spec_base_) {
    // Record the fp32 inputs so a speculative rollback can replay the kept
    // rows through a restored boundary block (see spec_rollback).
    const std::size_t idx =
        (layer * spec_cap_ + (pos - spec_base_)) * d_model_;
    std::copy(k.begin(), k.end(), spec_rows_k_.begin() + idx);
    std::copy(v.begin(), v.end(), spec_rows_v_.begin() + idx);
  }
  if (chunk_layer_ == layer && gather_active()) {
    // Re-read the whole written span of the block `pos` landed in: a
    // quantized write can grow the block's scale and rescale its earlier
    // codes, and reading back at exactly this point reproduces what a
    // token-by-token run (which re-gathers everything each step) would
    // see. Rows in other blocks are untouched by this write. The fused
    // path skips this entirely — it reads the blocks' live codes, which
    // already reflect any rescale.
    const std::size_t bs = paged_->pool().block_size();
    gather_into_scratch(layer, (pos / bs) * bs, pos + 1);
  }
}

std::span<const KvSegment> SequenceState::attend_view(std::size_t layer,
                                                      std::size_t len) {
  segments_.clear();
  if (dense_) {
    // Rows [0, len) are a contiguous prefix of the row-major cache matrix.
    const std::size_t d = dense_->keys(layer).cols();
    KvSegment seg;
    seg.k = dense_->keys(layer).flat().first(len * d);
    seg.v = dense_->values(layer).flat().first(len * d);
    seg.rows = len;
    segments_.push_back(seg);
    return segments_;
  }
  const std::size_t d = paged_->pool().d_model();
  if (!gather_active()) {
    if (paged_->pool().mode() == KvQuantMode::kFp32) {
      // Zero-copy: fp32 block storage holds the written bits verbatim, so
      // attention reads the pool directly — no per-step prefix copy.
      paged_->append_block_segments(layer, len, segments_);
    } else {
      // Fused: code segments over the pool's live quantized storage; the
      // kernel layer dequantizes in-register (no fp32 scratch). Valid in
      // and out of chunks — live codes are exactly what a re-gather would
      // dequantize.
      paged_->append_quant_segments(layer, len, segments_);
    }
    return segments_;
  }
  if (chunk_layer_ != layer) {
    // Decode path: dequantize the whole prefix (block scales may have
    // grown since any earlier gather). Inside a chunk the scratch is
    // maintained incrementally by begin_chunk_layer/write_kv_at instead.
    gather_into_scratch(layer, 0, len);
  }
  KvSegment seg;
  seg.k = std::span<const float>(gather_k_).first(len * d);
  seg.v = std::span<const float>(gather_v_).first(len * d);
  seg.rows = len;
  segments_.push_back(seg);
  return segments_;
}

}  // namespace opal
