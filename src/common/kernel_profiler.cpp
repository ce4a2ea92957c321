#include "common/kernel_profiler.h"

#include <chrono>
#include <cstdlib>

namespace opal {

namespace {

// The table enable() captured and the wrapper delegates to. Read on every
// wrapped kernel call; written only on the serial phase (enable/disable).
const KernelOps* g_underlying = nullptr;
int g_enable_depth = 0;

thread_local KernelProfile* t_slot = nullptr;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline void record(KernelKind kind, std::uint64_t elems, std::uint64_t ns) {
  KernelStat& stat = t_slot->kernels[static_cast<std::size_t>(kind)];
  stat.calls += 1;
  stat.elems += elems;
  stat.ns += ns;
}

// --- wrapper table ----------------------------------------------------------
// Each entry delegates to g_underlying with unchanged arguments (so the
// arithmetic — and therefore the output bits — is exactly the underlying
// table's) and, when this thread has a bound slot, times the call. With no
// slot bound the clock is never read.

void prof_matvec(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, float* y) {
  if (t_slot == nullptr) return g_underlying->matvec(w, rows, cols, x, y);
  const std::uint64_t t0 = now_ns();
  g_underlying->matvec(w, rows, cols, x, y);
  record(KernelKind::kMatvec, rows * cols, now_ns() - t0);
}

// The multi-row GEMM is matvec's work for n activation rows at once, booked
// under kMatvec with n times the elements, so matvec calls / elements / ns
// keep measuring the model's weight work whichever entry ran it.
void prof_gemm(const float* w, std::size_t rows, std::size_t cols,
               const float* x, std::size_t n, float* y, std::size_t ldy) {
  if (t_slot == nullptr) return g_underlying->gemm(w, rows, cols, x, n, y, ldy);
  const std::uint64_t t0 = now_ns();
  g_underlying->gemm(w, rows, cols, x, n, y, ldy);
  record(KernelKind::kMatvec, rows * cols * n, now_ns() - t0);
}

void prof_axpy(float a, const float* x, float* y, std::size_t n) {
  if (t_slot == nullptr) return g_underlying->axpy(a, x, y, n);
  const std::uint64_t t0 = now_ns();
  g_underlying->axpy(a, x, y, n);
  record(KernelKind::kAxpy, n, now_ns() - t0);
}

void prof_scale(float s, float* x, std::size_t n) {
  if (t_slot == nullptr) return g_underlying->scale(s, x, n);
  const std::uint64_t t0 = now_ns();
  g_underlying->scale(s, x, n);
  record(KernelKind::kScale, n, now_ns() - t0);
}

void prof_attend_scores(const float* q, const float* k, std::size_t rows,
                        std::size_t stride, std::size_t d_head, float scale,
                        float* out) {
  if (t_slot == nullptr) {
    return g_underlying->attend_scores(q, k, rows, stride, d_head, scale, out);
  }
  const std::uint64_t t0 = now_ns();
  g_underlying->attend_scores(q, k, rows, stride, d_head, scale, out);
  record(KernelKind::kAttendScores, rows * d_head, now_ns() - t0);
}

void prof_attend_accum(const float* w, const float* v, std::size_t rows,
                       std::size_t stride, std::size_t d_head, float* z) {
  if (t_slot == nullptr) {
    return g_underlying->attend_accum(w, v, rows, stride, d_head, z);
  }
  const std::uint64_t t0 = now_ns();
  g_underlying->attend_accum(w, v, rows, stride, d_head, z);
  record(KernelKind::kAttendAccum, rows * d_head, now_ns() - t0);
}

float prof_dequant_dot_int8(const float* a, const std::int8_t* codes,
                            std::size_t n, float s) {
  if (t_slot == nullptr) return g_underlying->dequant_dot_int8(a, codes, n, s);
  const std::uint64_t t0 = now_ns();
  const float r = g_underlying->dequant_dot_int8(a, codes, n, s);
  record(KernelKind::kDequantDotInt8, n, now_ns() - t0);
  return r;
}

float prof_dequant_dot_log2(const float* a, const std::int8_t* codes,
                            std::size_t n, int exponent) {
  if (t_slot == nullptr) {
    return g_underlying->dequant_dot_log2(a, codes, n, exponent);
  }
  const std::uint64_t t0 = now_ns();
  const float r = g_underlying->dequant_dot_log2(a, codes, n, exponent);
  record(KernelKind::kDequantDotLog2, n, now_ns() - t0);
  return r;
}

void prof_dequant_scores_int8(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, float s, float scale,
                              float* out) {
  if (t_slot == nullptr) {
    return g_underlying->dequant_scores_int8(q, k_codes, rows, stride, d_head,
                                             s, scale, out);
  }
  const std::uint64_t t0 = now_ns();
  g_underlying->dequant_scores_int8(q, k_codes, rows, stride, d_head, s, scale,
                                    out);
  record(KernelKind::kDequantScoresInt8, rows * d_head, now_ns() - t0);
}

void prof_dequant_scores_log2(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, int exponent, float scale,
                              float* out) {
  if (t_slot == nullptr) {
    return g_underlying->dequant_scores_log2(q, k_codes, rows, stride, d_head,
                                             exponent, scale, out);
  }
  const std::uint64_t t0 = now_ns();
  g_underlying->dequant_scores_log2(q, k_codes, rows, stride, d_head, exponent,
                                    scale, out);
  record(KernelKind::kDequantScoresLog2, rows * d_head, now_ns() - t0);
}

void prof_dequant_accum_int8(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, float s, float* z) {
  if (t_slot == nullptr) {
    return g_underlying->dequant_accum_int8(w, v_codes, rows, stride, d_head,
                                            s, z);
  }
  const std::uint64_t t0 = now_ns();
  g_underlying->dequant_accum_int8(w, v_codes, rows, stride, d_head, s, z);
  record(KernelKind::kDequantAccumInt8, rows * d_head, now_ns() - t0);
}

void prof_dequant_accum_log2(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, int exponent, float* z) {
  if (t_slot == nullptr) {
    return g_underlying->dequant_accum_log2(w, v_codes, rows, stride, d_head,
                                            exponent, z);
  }
  const std::uint64_t t0 = now_ns();
  g_underlying->dequant_accum_log2(w, v_codes, rows, stride, d_head, exponent,
                                   z);
  record(KernelKind::kDequantAccumLog2, rows * d_head, now_ns() - t0);
}

constexpr KernelOps kProfiledOps = {
    "profiled",
    prof_matvec,
    prof_gemm,
    prof_axpy,
    prof_scale,
    prof_attend_scores,
    prof_attend_accum,
    prof_dequant_dot_int8,
    prof_dequant_dot_log2,
    prof_dequant_scores_int8,
    prof_dequant_scores_log2,
    prof_dequant_accum_int8,
    prof_dequant_accum_log2,
};

}  // namespace

std::string to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kMatvec: return "matvec";
    case KernelKind::kAxpy: return "axpy";
    case KernelKind::kScale: return "scale";
    case KernelKind::kAttendScores: return "attend_scores";
    case KernelKind::kAttendAccum: return "attend_accum";
    case KernelKind::kDequantDotInt8: return "dequant_dot_int8";
    case KernelKind::kDequantDotLog2: return "dequant_dot_log2";
    case KernelKind::kDequantScoresInt8: return "dequant_scores_int8";
    case KernelKind::kDequantScoresLog2: return "dequant_scores_log2";
    case KernelKind::kDequantAccumInt8: return "dequant_accum_int8";
    case KernelKind::kDequantAccumLog2: return "dequant_accum_log2";
  }
  return "unknown";
}

std::string to_string(LayerPhase phase) {
  switch (phase) {
    case LayerPhase::kNorm: return "norm";
    case LayerPhase::kQkv: return "qkv";
    case LayerPhase::kAttend: return "attend";
    case LayerPhase::kFfn: return "ffn";
    case LayerPhase::kLogits: return "logits";
  }
  return "unknown";
}

void KernelProfile::merge(const KernelProfile& other) {
  for (std::size_t i = 0; i < kKernelKindCount; ++i) {
    kernels[i].merge(other.kernels[i]);
  }
  for (std::size_t i = 0; i < kLayerPhaseCount; ++i) {
    phases[i].merge(other.phases[i]);
  }
  if (layers.size() < other.layers.size()) layers.resize(other.layers.size());
  for (std::size_t l = 0; l < other.layers.size(); ++l) {
    for (std::size_t i = 0; i < kLayerPhaseCount; ++i) {
      layers[l][i].merge(other.layers[l][i]);
    }
  }
}

void KernelProfile::clear() {
  kernels = {};
  phases = {};
  layers.clear();
}

std::uint64_t KernelProfile::total_kernel_calls() const {
  std::uint64_t total = 0;
  for (const KernelStat& stat : kernels) total += stat.calls;
  return total;
}

std::uint64_t KernelProfile::total_kernel_ns() const {
  std::uint64_t total = 0;
  for (const KernelStat& stat : kernels) total += stat.ns;
  return total;
}

std::uint64_t profile_now_ns() { return now_ns(); }

bool KernelProfiler::enabled() { return g_enable_depth > 0; }

void KernelProfiler::enable() {
  if (g_enable_depth++ == 0) {
    g_underlying = &kernels();
    set_active_kernels(&kProfiledOps);
  }
}

void KernelProfiler::disable() {
  if (g_enable_depth == 0) return;
  if (--g_enable_depth == 0) {
    set_active_kernels(g_underlying);
    g_underlying = nullptr;
  }
}

bool KernelProfiler::env_enabled() {
  const char* v = std::getenv("OPAL_PROFILE");
  if (v == nullptr) return false;
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

void KernelProfiler::bind_slot(KernelProfile* slot) { t_slot = slot; }

KernelProfile* KernelProfiler::slot() { return t_slot; }

const KernelOps* KernelProfiler::underlying() { return g_underlying; }

}  // namespace opal
