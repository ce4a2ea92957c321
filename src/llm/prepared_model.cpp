#include "llm/prepared_model.h"

#include <algorithm>
#include <cmath>

#include "common/bfloat16.h"
#include "common/float_bits.h"
#include "common/kernel_profiler.h"
#include "common/kernels.h"
#include "common/thread_pool.h"
#include "llm/sequence_state.h"
#include "softmax/softmax.h"

namespace opal {

std::string to_string(RecordSite site) {
  switch (site) {
    case RecordSite::kAttnIn:
      return "attn_in";
    case RecordSite::kQuery:
      return "Query";
    case RecordSite::kKey:
      return "Key";
    case RecordSite::kValue:
      return "Value";
    case RecordSite::kProjIn:
      return "Proj";
    case RecordSite::kFc1In:
      return "fc1";
    case RecordSite::kFc2In:
      return "fc2";
  }
  return "?";
}

std::string EngineConfig::label() const {
  std::string out = "W";
  out += weight_quant ? std::to_string(weight_quant->bits) : "16";
  out += act_policy.label();
  out += " (";
  out += to_string(act_policy.scheme);
  out += ")";
  return out;
}

PreparedModel::PreparedModel(const SyntheticModel& model, EngineConfig config,
                             const CalibrationSet* calibration)
    : model_(&model), config_(std::move(config)) {
  prepare_layers(calibration);
  finish_construction();
}

PreparedModel::PreparedModel(const SyntheticModel& model, EngineConfig config,
                             const HessianSet& hessians)
    : model_(&model), config_(std::move(config)) {
  require(config_.weight_quant.has_value(),
          "PreparedModel: GPTQ requires weight_quant");
  prepare_layers_gptq(hessians);
  finish_construction();
}

void PreparedModel::finish_construction() {
  const auto& cfg = model_->config();
  quant_post_ln_ =
      config_.act_policy.make_quantizer(ActivationSite::kPostLayerNorm);
  quant_attn_in_ =
      config_.act_policy.make_quantizer(ActivationSite::kAttentionInput);
  quant_general_ =
      config_.act_policy.make_quantizer(ActivationSite::kGeneral);
  final_norm_ =
      std::make_unique<Norm>(cfg.norm, model_->final_norm_gain());
}

SequenceState PreparedModel::make_sequence() const {
  return SequenceState(model_->config(), config_.max_seq_len,
                       config_.kv_block_size);
}

SequenceState PreparedModel::make_sequence(KvBlockPool& pool) const {
  require(pool.block_size() == config_.kv_block_size,
          "PreparedModel::make_sequence: pool block size mismatch");
  return SequenceState(model_->config(), config_.max_seq_len, pool);
}

std::size_t PreparedModel::kv_blocks_per_sequence() const {
  return PagedKvCache::blocks_for(model_->config().n_layers,
                                  config_.max_seq_len, config_.kv_block_size);
}

PrefixCache PreparedModel::make_prefix_cache(KvBlockPool& pool) const {
  require(pool.block_size() == config_.kv_block_size &&
              pool.d_model() == model_->config().d_model &&
              pool.mode() == config_.kv_mode,
          "PreparedModel::make_prefix_cache: pool does not match the model");
  return PrefixCache(pool, model_->config().n_layers);
}

KvBlockPool PreparedModel::make_kv_pool(double n_full_sequences) const {
  const auto want = static_cast<std::size_t>(
      n_full_sequences * static_cast<double>(kv_blocks_per_sequence()));
  // A pool must at least fit one block column, or no sequence can start.
  const std::size_t floor_blocks = PagedKvCache::blocks_for(
      model_->config().n_layers, 1, config_.kv_block_size);
  return KvBlockPool(std::max(want, floor_blocks), config_.kv_block_size,
                     model_->config().d_model, config_.kv_mode);
}

void PreparedModel::prepare_layers_gptq(const HessianSet& hessians) {
  const auto& cfg = model_->config();
  require(hessians.size() == cfg.n_layers,
          "PreparedModel: Hessian layer count mismatch");
  const auto& wq_cfg = *config_.weight_quant;
  GptqConfig gcfg;
  gcfg.bits = wq_cfg.bits;
  gcfg.outlier_fraction = wq_cfg.outlier_fraction;
  gcfg.group_size = wq_cfg.group_size;
  gcfg.optimize_clip = wq_cfg.optimize_clip;

  layers_.reserve(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& src = model_->layers()[l];
    const auto& hess = hessians[l];
    PreparedLayer layer;
    layer.attn_norm = std::make_unique<Norm>(cfg.norm, src.attn_norm_gain);
    layer.ffn_norm = std::make_unique<Norm>(cfg.norm, src.ffn_norm_gain);
    layer.total_weight_values =
        4 * cfg.d_model * cfg.d_model + 2 * cfg.d_ffn * cfg.d_model;
    auto take = [&](OwqMatrix&& q, Matrix& dst) {
      layer.fp_weight_values += q.fp_columns.size() * q.dequantized.rows();
      layer.storage_bits += q.storage_bits;
      dst = std::move(q.dequantized);
    };
    take(gptq_quantize(src.wq, hess.attn_in, gcfg), layer.wq);
    take(gptq_quantize(src.wk, hess.attn_in, gcfg), layer.wk);
    take(gptq_quantize(src.wv, hess.attn_in, gcfg), layer.wv);
    take(gptq_quantize(src.wo, hess.proj_in, gcfg), layer.wo);
    take(gptq_quantize(src.w_fc1, hess.fc1_in, gcfg), layer.w_fc1);
    take(gptq_quantize(src.w_fc2, hess.fc2_in, gcfg), layer.w_fc2);
    layers_.push_back(std::move(layer));
  }
}

void PreparedModel::prepare_layers(const CalibrationSet* calibration) {
  const auto& cfg = model_->config();
  if (calibration != nullptr) {
    require(calibration->size() == cfg.n_layers,
            "PreparedModel: calibration layer count mismatch");
  }
  layers_.reserve(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& src = model_->layers()[l];
    PreparedLayer layer;
    layer.attn_norm = std::make_unique<Norm>(cfg.norm, src.attn_norm_gain);
    layer.ffn_norm = std::make_unique<Norm>(cfg.norm, src.ffn_norm_gain);
    layer.total_weight_values =
        4 * cfg.d_model * cfg.d_model + 2 * cfg.d_ffn * cfg.d_model;

    if (!config_.weight_quant) {
      // BF16 baseline: weights stored (and multiplied) at bf16 precision.
      auto round_matrix = [](const Matrix& m) {
        Matrix out(m.rows(), m.cols());
        for (std::size_t i = 0; i < m.size(); ++i) {
          out.flat()[i] = to_bf16(m.flat()[i]);
        }
        return out;
      };
      layer.wq = round_matrix(src.wq);
      layer.wk = round_matrix(src.wk);
      layer.wv = round_matrix(src.wv);
      layer.wo = round_matrix(src.wo);
      layer.w_fc1 = round_matrix(src.w_fc1);
      layer.w_fc2 = round_matrix(src.w_fc2);
      layer.fp_weight_values = layer.total_weight_values;
      layer.storage_bits = layer.total_weight_values * 16;
    } else {
      const auto& wq_cfg = *config_.weight_quant;
      auto quantize = [&](const Matrix& m,
                          const CalibrationStats* stats) -> OwqMatrix {
        if (stats != nullptr) {
          return owq_quantize(m, stats->hessian_diag(), wq_cfg);
        }
        return owq_quantize_weight_only(m, wq_cfg);
      };
      const LayerCalibration* cal =
          calibration != nullptr ? &(*calibration)[l] : nullptr;
      auto take = [&](OwqMatrix&& q, Matrix& dst) {
        layer.fp_weight_values += q.fp_columns.size() * q.dequantized.rows();
        layer.storage_bits += q.storage_bits;
        dst = std::move(q.dequantized);
      };
      take(quantize(src.wq, cal ? &cal->attn_in : nullptr), layer.wq);
      take(quantize(src.wk, cal ? &cal->attn_in : nullptr), layer.wk);
      take(quantize(src.wv, cal ? &cal->attn_in : nullptr), layer.wv);
      take(quantize(src.wo, cal ? &cal->proj_in : nullptr), layer.wo);
      take(quantize(src.w_fc1, cal ? &cal->fc1_in : nullptr), layer.w_fc1);
      take(quantize(src.w_fc2, cal ? &cal->fc2_in : nullptr), layer.w_fc2);
    }
    layers_.push_back(std::move(layer));
  }
}

void PreparedModel::maybe_quantize(ActivationSite site,
                                   std::span<float> v) const {
  const Quantizer* q = nullptr;
  switch (site) {
    case ActivationSite::kPostLayerNorm:
      q = quant_post_ln_.get();
      break;
    case ActivationSite::kAttentionInput:
      q = quant_attn_in_.get();
      break;
    default:
      q = quant_general_.get();
      break;
  }
  if (q != nullptr) q->quantize_dequantize(v, v);
}

void PreparedModel::attend(std::size_t l, SequenceState& seq,
                           std::span<const float> q, std::span<float> z,
                           std::size_t len) const {
  const auto& cfg = model_->config();
  const std::size_t d_head = cfg.d_head();
  const std::size_t d_model = cfg.d_model;
  // The cached prefix [0, len) as one row-major segment per KV block,
  // spanning pool storage: fp32 blocks' floats, or quantized blocks' codes
  // decoded in-register by the fused kernels below. Iterating segments
  // outer / rows inner visits positions 0..len-1 in order, and within one
  // kernel table the fused kernels are bitwise equal to decode-then-dot.
  const std::span<const KvSegment> kv = seq.attend_view(l, len);
  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(d_head));
  const KernelOps& ops = kernels();

  std::fill(z.begin(), z.end(), 0.0f);
  const std::span<float> scores = std::span<float>(seq.scores_).first(len);
  const std::span<float> probs = std::span<float>(seq.probs_).first(len);
  for (std::size_t head = 0; head < cfg.n_heads; ++head) {
    const std::size_t base = head * d_head;
    const float* q_head = q.data() + base;
    std::size_t t = 0;
    for (const KvSegment& seg : kv) {
      switch (seg.mode) {
        case KvQuantMode::kFp32:
          ops.attend_scores(q_head, seg.k.data() + base, seg.rows, d_model,
                            d_head, inv_sqrt_dk, scores.data() + t);
          break;
        case KvQuantMode::kInt8:
          ops.dequant_scores_int8(q_head, seg.k_codes.data() + base, seg.rows,
                                  d_model, d_head, seg.k_scale / 127.0f,
                                  inv_sqrt_dk, scores.data() + t);
          break;
        case KvQuantMode::kLog2:
          ops.dequant_scores_log2(q_head, seg.k_codes.data() + base, seg.rows,
                                  d_model, d_head,
                                  static_cast<int>(seg.k_scale), inv_sqrt_dk,
                                  scores.data() + t);
          break;
      }
      t += seg.rows;
    }
    // Attention weights, materialized once per head so the weighted value
    // sum runs through one kernel regardless of the softmax flavor.
    if (config_.log2_softmax) {
      const auto codes =
          log2_softmax_unit(scores, Log2SoftmaxConfig{config_.softmax_bits});
      for (std::size_t u = 0; u < len; ++u) {
        probs[u] = exp2i(-static_cast<int>(codes[u]));
      }
    } else {
      softmax_reference(scores, probs);
    }
    float* z_head = z.data() + base;
    std::size_t u = 0;
    for (const KvSegment& seg : kv) {
      switch (seg.mode) {
        case KvQuantMode::kFp32:
          ops.attend_accum(probs.data() + u, seg.v.data() + base, seg.rows,
                           d_model, d_head, z_head);
          break;
        case KvQuantMode::kInt8:
          ops.dequant_accum_int8(probs.data() + u, seg.v_codes.data() + base,
                                 seg.rows, d_model, d_head,
                                 seg.v_scale / 127.0f, z_head);
          break;
        case KvQuantMode::kLog2:
          ops.dequant_accum_log2(probs.data() + u, seg.v_codes.data() + base,
                                 seg.rows, d_model, d_head,
                                 static_cast<int>(seg.v_scale), z_head);
          break;
      }
      u += seg.rows;
    }
  }
}

namespace {

// Binds a work item's profiler slot for its lifetime and restores the
// thread's previous binding after (a no-op for a null slot).
class SlotBinding {
 public:
  explicit SlotBinding(KernelProfile* slot)
      : slot_(slot), prev_(slot != nullptr ? KernelProfiler::slot() : nullptr) {
    if (slot_ != nullptr) KernelProfiler::bind_slot(slot_);
  }
  ~SlotBinding() {
    if (slot_ != nullptr) KernelProfiler::bind_slot(prev_);
  }
  SlotBinding(const SlotBinding&) = delete;
  SlotBinding& operator=(const SlotBinding&) = delete;

 private:
  KernelProfile* slot_;
  KernelProfile* prev_;
};

// Runs fn(i) for every work item i < n: across `pool` when given, inline
// otherwise. With a destination `profile`, item i samples into its own slot,
// and the slots merge into `profile` serially once the stage drains.
template <typename Fn>
void run_items(std::size_t n, ThreadPool* pool, KernelProfile* profile,
               std::vector<KernelProfile>& slots, const Fn& fn) {
  if (n == 0) return;
  if (profile != nullptr) {
    if (slots.size() < n) slots.resize(n);
    for (std::size_t i = 0; i < n; ++i) slots[i].clear();
  }
  const auto item = [&](std::size_t i) {
    const SlotBinding bind(profile != nullptr ? &slots[i] : nullptr);
    fn(i);
  };
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, item);
  } else {
    for (std::size_t i = 0; i < n; ++i) item(i);
  }
  if (profile != nullptr) {
    for (std::size_t i = 0; i < n; ++i) profile->merge(slots[i]);
  }
}

// Row-major [rows x width] view of row r of a scratch buffer.
std::span<float> row_of(std::vector<float>& buf, std::size_t width,
                        std::size_t r) {
  return std::span<float>(buf).subspan(r * width, width);
}

void grow(std::vector<float>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

}  // namespace

void PreparedModel::attend_row(std::size_t l, ForwardScratch& s,
                               const ForwardScratch::Piece& piece,
                               std::size_t t,
                               ActivationRecorder* recorder) const {
  const std::size_t d = model_->config().d_model;
  const std::size_t row = piece.row0 + t;
  const std::size_t pos = piece.pos0 + t;
  SequenceState& seq = *piece.seq;
  const std::span<float> q = row_of(s.q_, d, row);
  const std::span<float> k = row_of(s.k_, d, row);
  const std::span<float> v = row_of(s.v_, d, row);
  const std::span<float> z = row_of(s.z_, d, row);
  KernelProfile* prof = KernelProfiler::slot();
  {
    PhaseScope phase(prof, LayerPhase::kQkv, l);
    if (recorder != nullptr) {
      recorder->record(l, RecordSite::kQuery, q);
      recorder->record(l, RecordSite::kKey, k);
      recorder->record(l, RecordSite::kValue, v);
    }
    // Q, K enter Q.K^T and V enters Attn.V at the high bit-width.
    maybe_quantize(ActivationSite::kAttentionInput, q);
    maybe_quantize(ActivationSite::kAttentionInput, k);
    maybe_quantize(ActivationSite::kAttentionInput, v);
    seq.write_kv_at(l, pos, k, v);
  }
  PhaseScope phase(prof, LayerPhase::kAttend, l);
  attend(l, seq, q, z, pos + 1);
  if (recorder != nullptr) recorder->record(l, RecordSite::kProjIn, z);
  maybe_quantize(ActivationSite::kGeneral, z);
}

void PreparedModel::forward_pass(ForwardScratch& s, std::size_t rows,
                                 ThreadPool* pool, KernelProfile* profile,
                                 ActivationRecorder* recorder) const {
  const auto& cfg = model_->config();
  const std::size_t d = cfg.d_model;
  const std::size_t d_ffn = cfg.d_ffn;
  const std::size_t vocab = cfg.vocab;
  grow(s.x_, rows * d);
  grow(s.h_, rows * d);
  grow(s.q_, rows * d);
  grow(s.k_, rows * d);
  grow(s.v_, rows * d);
  grow(s.z_, rows * d);
  grow(s.proj_, rows * d);
  grow(s.hidden_, rows * d_ffn);
  grow(s.logits_, rows * vocab);

  // Serial prologue: open every piece's KV positions (no pool traffic when
  // the caller reserved them) and embed its tokens.
  for (ForwardScratch::Piece& piece : s.pieces_) {
    piece.pos0 = piece.seq->position();
    piece.seq->advance_cache_by(piece.tokens.size());
    for (std::size_t t = 0; t < piece.tokens.size(); ++t) {
      const auto emb = model_->embedding().row(piece.tokens[t]);
      std::copy(emb.begin(), emb.end(),
                row_of(s.x_, d, piece.row0 + t).begin());
    }
  }

  // y = W x for every listed matrix over all pass rows, one work item per
  // kGemmTileRows output rows. The split depends on the shapes only, so the
  // work items (and the profile's call counts) are the same at any thread
  // count.
  const auto gemm_stage = [&](LayerPhase phase, std::size_t layer,
                              std::initializer_list<ForwardScratch::GemmTile>
                                  mats) {
    s.tiles_.clear();
    for (const auto& m : mats) {
      for (std::size_t r0 = 0; r0 < m.r1; r0 += kGemmTileRows) {
        ForwardScratch::GemmTile t = m;
        t.r0 = r0;
        t.r1 = std::min(m.r1, r0 + kGemmTileRows);
        s.tiles_.push_back(t);
      }
    }
    run_items(s.tiles_.size(), pool, profile, s.slots_, [&](std::size_t i) {
      const ForwardScratch::GemmTile& t = s.tiles_[i];
      PhaseScope scope(KernelProfiler::slot(), phase, layer);
      kernels().gemm(t.w + t.r0 * t.cols, t.r1 - t.r0, t.cols, t.x, rows,
                     t.y + t.r0, t.ldy);
    });
  };
  const auto mat = [&](const Matrix& w, const std::vector<float>& x,
                       std::vector<float>& y) {
    return ForwardScratch::GemmTile{w.data(), 0, w.rows(), w.rows(),
                                    w.cols(), x.data(), y.data()};
  };
  const auto row_stage = [&](const auto& fn) {
    run_items(rows, pool, profile, s.slots_, fn);
  };
  // A recorder sees each site for the rows in order: serial row stages.
  const auto record = [&](std::size_t l, RecordSite site,
                          std::span<const float> v) {
    if (recorder != nullptr) recorder->record(l, site, v);
  };

  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const PreparedLayer& layer = layers_[l];
    // --- Attention block (Fig 5(c)) ---
    row_stage([&](std::size_t r) {
      PhaseScope phase(KernelProfiler::slot(), LayerPhase::kNorm, l);
      const std::span<float> x = row_of(s.x_, d, r);
      // The previous layer's FFN residual rides with this norm.
      if (l > 0) {
        kernels().axpy(1.0f, row_of(s.proj_, d, r).data(), x.data(), d);
      }
      const std::span<float> h = row_of(s.h_, d, r);
      layer.attn_norm->apply(x, h);
      record(l, RecordSite::kAttnIn, h);
      maybe_quantize(ActivationSite::kPostLayerNorm, h);
    });
    gemm_stage(LayerPhase::kQkv, l,
               {mat(layer.wq, s.h_, s.q_), mat(layer.wk, s.h_, s.k_),
                mat(layer.wv, s.h_, s.v_)});
    // Attention per sequence, rows in token order: row t's K/V write (and
    // any quantized block rescale it causes) precedes its attend, and row
    // t+1's write follows it — exactly a token-by-token run's order.
    run_items(s.pieces_.size(), pool, profile, s.slots_, [&](std::size_t p) {
      const ForwardScratch::Piece& piece = s.pieces_[p];
      for (std::size_t t = 0; t < piece.tokens.size(); ++t) {
        attend_row(l, s, piece, t, recorder);
      }
    });
    gemm_stage(LayerPhase::kAttend, l, {mat(layer.wo, s.z_, s.proj_)});

    // --- FFN block (Fig 5(b)) ---
    row_stage([&](std::size_t r) {
      PhaseScope phase(KernelProfiler::slot(), LayerPhase::kNorm, l);
      const std::span<float> x = row_of(s.x_, d, r);
      kernels().axpy(1.0f, row_of(s.proj_, d, r).data(), x.data(), d);
      const std::span<float> h = row_of(s.h_, d, r);
      layer.ffn_norm->apply(x, h);
      record(l, RecordSite::kFc1In, h);
      maybe_quantize(ActivationSite::kPostLayerNorm, h);
    });
    gemm_stage(LayerPhase::kFfn, l, {mat(layer.w_fc1, s.h_, s.hidden_)});
    row_stage([&](std::size_t r) {
      PhaseScope phase(KernelProfiler::slot(), LayerPhase::kFfn, l);
      const std::span<float> hidden = row_of(s.hidden_, d_ffn, r);
      apply_activation(cfg.activation, hidden);
      record(l, RecordSite::kFc2In, hidden);
      maybe_quantize(ActivationSite::kGeneral, hidden);
    });
    gemm_stage(LayerPhase::kFfn, l, {mat(layer.w_fc2, s.hidden_, s.proj_)});
  }

  // --- Logits: final norm, tied embedding head, logit scale ---
  row_stage([&](std::size_t r) {
    PhaseScope phase(KernelProfiler::slot(), LayerPhase::kLogits);
    const std::span<float> x = row_of(s.x_, d, r);
    kernels().axpy(1.0f, row_of(s.proj_, d, r).data(), x.data(), d);
    final_norm_->apply(x, row_of(s.h_, d, r));
  });
  // logit[v] = E[v,:] . h
  gemm_stage(LayerPhase::kLogits, PhaseScope::kNoLayer,
             {mat(model_->embedding(), s.h_, s.logits_)});
  run_items(s.pieces_.size(), pool, profile, s.slots_, [&](std::size_t p) {
    PhaseScope phase(KernelProfiler::slot(), LayerPhase::kLogits);
    const ForwardScratch::Piece& piece = s.pieces_[p];
    SequenceState& seq = *piece.seq;
    for (std::size_t t = 0; t < piece.tokens.size(); ++t) {
      const std::span<float> logits = row_of(s.logits_, vocab, piece.row0 + t);
      kernels().scale(model_->logit_scale(), logits.data(), vocab);
      std::copy(logits.begin(), logits.end(),
                seq.logits_row_mut(piece.item_offset + t).begin());
    }
  });
}

void PreparedModel::forward(std::span<const ForwardItem> items,
                            ForwardScratch& scratch, ThreadPool* pool,
                            KernelProfile* profile,
                            ActivationRecorder* recorder) const {
  const auto& cfg = model_->config();
  // Validate every item before any state changes.
  for (const ForwardItem& item : items) {
    require(item.seq != nullptr && !item.tokens.empty(),
            "PreparedModel::forward: empty item");
    for (const std::size_t token : item.tokens) {
      require(token < cfg.vocab, "PreparedModel::forward: token out of range");
    }
    require(item.seq->d_model_ == cfg.d_model &&
                item.seq->vocab_ == cfg.vocab,
            "PreparedModel::forward: state sized for a different model");
    require(item.seq->position() + item.tokens.size() <=
                item.seq->max_seq_len(),
            "PreparedModel::forward: tokens exceed max_seq_len");
  }
  if (recorder != nullptr) pool = nullptr;  // recorders are not thread-safe
  for (const ForwardItem& item : items) {
    item.seq->begin_rows(item.tokens.size());
  }

  // Pack rows into passes of at most kMaxPassRows, splitting an item across
  // two passes when it straddles the boundary.
  std::size_t next = 0, offset = 0;
  while (next < items.size()) {
    scratch.pieces_.clear();
    std::size_t rows = 0;
    while (next < items.size() && rows < kMaxPassRows) {
      const ForwardItem& item = items[next];
      const std::size_t take =
          std::min(item.tokens.size() - offset, kMaxPassRows - rows);
      ForwardScratch::Piece piece;
      piece.seq = item.seq;
      piece.tokens = item.tokens.subspan(offset, take);
      piece.item_offset = offset;
      piece.row0 = rows;
      scratch.pieces_.push_back(piece);
      rows += take;
      offset += take;
      if (offset == item.tokens.size()) {
        ++next;
        offset = 0;
      }
    }
    forward_pass(scratch, rows, pool, profile, recorder);
  }
}

std::span<const float> PreparedModel::step(SequenceState& seq,
                                           std::size_t token,
                                           ActivationRecorder* recorder) const {
  return prefill_chunk(seq, std::span<const std::size_t>(&token, 1), recorder);
}

std::span<const float> PreparedModel::prefill_chunk(
    SequenceState& seq, std::span<const std::size_t> tokens,
    ActivationRecorder* recorder) const {
  // One scratch per thread: the one-item wrappers stay thread-safe without
  // allocating per call.
  thread_local ForwardScratch scratch;
  const ForwardItem item{&seq, tokens};
  forward(std::span<const ForwardItem>(&item, 1), scratch, nullptr, nullptr,
          recorder);
  return seq.logits();
}

double PreparedModel::fp_weight_fraction() const {
  std::size_t fp = 0, total = 0;
  for (const auto& layer : layers_) {
    fp += layer.fp_weight_values;
    total += layer.total_weight_values;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(fp) / static_cast<double>(total);
}

std::size_t PreparedModel::weight_storage_bits() const {
  std::size_t bits = 0;
  for (const auto& layer : layers_) bits += layer.storage_bits;
  return bits;
}

}  // namespace opal
