// AVX2+FMA kernel table (x86-64). Compiled with -mavx2 -mfma
// -ffp-contract=off on x86 hosts regardless of the build machine's CPU; the
// probe at the bottom checks the *running* CPU before the table is ever
// dispatched to, so a generic build stays safe on pre-AVX2 hardware.
//
// Structure contract (see kernels.h): every dot-shaped kernel — plain or
// fused — uses the same 8-float-per-iteration body (two 4-wide double FMA
// accumulators) and the same sequential scalar tail for n % 8 leftovers, and
// the fused decode produces exactly KvBlockPool::read_row's floats. That
// keeps "fused == gather" bitwise within this table; only scalar-vs-AVX2 is
// tolerance-level (lane reduction reorders the double sums).

#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "common/kernels.h"

namespace opal {

namespace {

// acc0/acc1 += a[0..7] * b[0..7] in double lanes.
inline void dacc8(const float* a, __m256 bv, __m256d& acc0, __m256d& acc1) {
  const __m256 av = _mm256_loadu_ps(a);
  acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), acc0);
  acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), acc1);
}

inline double hsum(__m256d acc0, __m256d acc1) {
  const __m256d s = _mm256_add_pd(acc0, acc1);
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

// Eight int8 codes dequantized to read_row's exact floats: float(code) * s.
inline __m256 decode8_int8(const std::int8_t* c, __m256 sv) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
  return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes)), sv);
}

// Eight log2-7bit codes dequantized via integer exponent assembly: for
// biased exponent be = (exponent+127) - code, a normal value is be << 23, a
// denormal (be <= 0, down to 2^-149) is a mantissa bit 1 << (22 + be), and
// code 127 is exactly +0 — bit-identical to kv_decode_log2's exp2f result.
inline __m256 decode8_log2(const std::int8_t* c, __m256i ebias) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
  const __m256i b32 = _mm256_cvtepu8_epi32(bytes);
  const __m256i code =
      _mm256_and_si256(b32, _mm256_set1_epi32(kKvLog2CodeMax));
  const __m256i sign =
      _mm256_slli_epi32(_mm256_and_si256(b32, _mm256_set1_epi32(0x80)), 24);
  const __m256i be = _mm256_sub_epi32(ebias, code);
  const __m256i normal = _mm256_slli_epi32(be, 23);
  const __m256i denorm = _mm256_sllv_epi32(
      _mm256_set1_epi32(1), _mm256_add_epi32(be, _mm256_set1_epi32(22)));
  __m256i bits = _mm256_blendv_epi8(
      denorm, normal, _mm256_cmpgt_epi32(be, _mm256_setzero_si256()));
  bits = _mm256_blendv_epi8(bits, _mm256_set1_epi32(0x7f800000),
                            _mm256_cmpgt_epi32(be, _mm256_set1_epi32(255)));
  bits = _mm256_or_si256(bits, sign);
  return _mm256_castsi256_ps(_mm256_andnot_si256(
      _mm256_cmpeq_epi32(code, _mm256_set1_epi32(kKvLog2CodeMax)), bits));
}

float avx2_dot(const float* a, const float* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) dacc8(a + i, _mm256_loadu_ps(b + i), acc0, acc1);
  double acc = hsum(acc0, acc1);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

float avx2_dequant_dot_int8(const float* a, const std::int8_t* codes,
                            std::size_t n, float s) {
  const __m256 sv = _mm256_set1_ps(s);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    dacc8(a + i, decode8_int8(codes + i, sv), acc0, acc1);
  }
  double acc = hsum(acc0, acc1);
  for (; i < n; ++i) {
    const float dv = static_cast<float>(codes[i]) * s;
    acc += static_cast<double>(a[i]) * static_cast<double>(dv);
  }
  return static_cast<float>(acc);
}

float avx2_dequant_dot_log2(const float* a, const std::int8_t* codes,
                            std::size_t n, int exponent) {
  const __m256i ebias = _mm256_set1_epi32(exponent + 127);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    dacc8(a + i, decode8_log2(codes + i, ebias), acc0, acc1);
  }
  double acc = hsum(acc0, acc1);
  for (; i < n; ++i) {
    const float dv = kv_decode_log2(codes[i], exponent);
    acc += static_cast<double>(a[i]) * static_cast<double>(dv);
  }
  return static_cast<float>(acc);
}

void avx2_matvec(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, float* y) {
  for (std::size_t r = 0; r < rows; ++r) y[r] = avx2_dot(w + r * cols, x, cols);
}

// --- weight-stationary multi-row GEMM ---------------------------------------
//
// Every output must come out bitwise equal to avx2_dot(w_row, x_b): acc0
// collects lanes 0-3 of each 8-float block, acc1 lanes 4-7, both in double
// FMAs, then hsum, then the sequential double tail. The kernel keeps exactly
// those chains but reorganizes everything around them:
//   * 2 weight rows x 4 activation rows are blocked in named registers, so
//     each converted weight vector feeds 4 FMAs and each activation vector
//     2 (the naive per-output loop spilled its accumulator arrays);
//   * activations are widened to double once per (tile, block) into a
//     thread-local scratch, lanes 0-3 of every block packed first and lanes
//     4-7 after, so each pass streams one contiguous half;
//   * the acc0 and acc1 chains run as two separate passes over the row
//     (neither ever reads the other's lanes, so the split is exact), which
//     keeps 8 accumulators + 3 temporaries inside the 16 ymm registers;
//   * weight rows are tiled so a tile stays cache-hot while every
//     activation block passes over it.
// FMA vs separate multiply-add is immaterial here: a product of two
// float-widened doubles is exact, so both round once, identically.

// Weight-tile size in floats (~64 KiB): hot in L2 across activation blocks.
constexpr std::size_t kGemmTileFloats = 16384;

// One accumulator pass for an R x B block (R in {1,2} weight rows, B in
// [1,4] activation rows). w0/w1 point at the pass's first lane (row + 0 or
// row + 4), x0..x3 at the pass's packed half of each widened activation
// row; out receives the R*B accumulators, row-major [R][4].
template <int R, int B>
inline void gemm_pass(const float* w0, const float* w1, const double* x0,
                      const double* x1, const double* x2, const double* x3,
                      std::size_t nb, __m256d* out) {
  __m256d a00 = _mm256_setzero_pd(), a01 = a00, a02 = a00, a03 = a00;
  __m256d a10 = a00, a11 = a00, a12 = a00, a13 = a00;
  for (std::size_t i = 0; i < nb; ++i) {
    const __m256d wa = _mm256_cvtps_pd(_mm_loadu_ps(w0 + 8 * i));
    __m256d wb = wa;
    if constexpr (R == 2) wb = _mm256_cvtps_pd(_mm_loadu_ps(w1 + 8 * i));
    __m256d xv = _mm256_loadu_pd(x0 + 4 * i);
    a00 = _mm256_fmadd_pd(wa, xv, a00);
    if constexpr (R == 2) a10 = _mm256_fmadd_pd(wb, xv, a10);
    if constexpr (B > 1) {
      xv = _mm256_loadu_pd(x1 + 4 * i);
      a01 = _mm256_fmadd_pd(wa, xv, a01);
      if constexpr (R == 2) a11 = _mm256_fmadd_pd(wb, xv, a11);
    }
    if constexpr (B > 2) {
      xv = _mm256_loadu_pd(x2 + 4 * i);
      a02 = _mm256_fmadd_pd(wa, xv, a02);
      if constexpr (R == 2) a12 = _mm256_fmadd_pd(wb, xv, a12);
    }
    if constexpr (B > 3) {
      xv = _mm256_loadu_pd(x3 + 4 * i);
      a03 = _mm256_fmadd_pd(wa, xv, a03);
      if constexpr (R == 2) a13 = _mm256_fmadd_pd(wb, xv, a13);
    }
  }
  out[0] = a00;
  out[1] = a01;
  out[2] = a02;
  out[3] = a03;
  out[4] = a10;
  out[5] = a11;
  out[6] = a12;
  out[7] = a13;
}

// Outputs for weight rows r..r+R-1 against activation rows b0..b0+B-1.
// `xw` holds the block's widened rows (stride 8*nb doubles, lanes 0-3 of
// each 8-block in the first half, lanes 4-7 in the second).
template <int R, int B>
inline void gemm_block(const float* w, std::size_t r, std::size_t cols,
                       const float* x, std::size_t b0, const double* xw,
                       float* y, std::size_t ldy) {
  const std::size_t nb = cols / 8;
  const std::size_t half = 4 * nb;
  const double* xr[4] = {xw, xw + 2 * half, xw + 4 * half, xw + 6 * half};
  const float* w0 = w + r * cols;
  const float* w1 = R == 2 ? w0 + cols : w0;
  __m256d lo[8], hi[8];
  gemm_pass<R, B>(w0, w1, xr[0], xr[1], xr[2], xr[3], nb, lo);
  gemm_pass<R, B>(w0 + 4, w1 + 4, xr[0] + half, xr[1] + half, xr[2] + half,
                  xr[3] + half, nb, hi);
  for (int i = 0; i < R; ++i) {
    const float* wr = w0 + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < B; ++j) {
      const float* xb = x + (b0 + static_cast<std::size_t>(j)) * cols;
      double acc = hsum(lo[4 * i + j], hi[4 * i + j]);
      for (std::size_t c = 8 * nb; c < cols; ++c) {
        acc += static_cast<double>(wr[c]) * static_cast<double>(xb[c]);
      }
      y[(b0 + static_cast<std::size_t>(j)) * ldy + r +
        static_cast<std::size_t>(i)] = static_cast<float>(acc);
    }
  }
}

template <int R>
inline void gemm_block_n(std::size_t bn, const float* w, std::size_t r,
                         std::size_t cols, const float* x, std::size_t b0,
                         const double* xw, float* y, std::size_t ldy) {
  switch (bn) {
    case 1: return gemm_block<R, 1>(w, r, cols, x, b0, xw, y, ldy);
    case 2: return gemm_block<R, 2>(w, r, cols, x, b0, xw, y, ldy);
    case 3: return gemm_block<R, 3>(w, r, cols, x, b0, xw, y, ldy);
    default: return gemm_block<R, 4>(w, r, cols, x, b0, xw, y, ldy);
  }
}

void avx2_gemm(const float* w, std::size_t rows, std::size_t cols,
               const float* x, std::size_t n, float* y, std::size_t ldy) {
  if (n == 1) {
    // One activation row gains nothing from blocking: matvec itself.
    avx2_matvec(w, rows, cols, x, y);
    return;
  }
  const std::size_t nb = cols / 8;
  thread_local std::vector<double> xw;
  if (xw.size() < 4 * 8 * nb) xw.resize(4 * 8 * nb);
  const std::size_t tile = std::max<std::size_t>(
      2, (kGemmTileFloats / std::max<std::size_t>(cols, 1)) & ~std::size_t{1});
  for (std::size_t r0 = 0; r0 < rows; r0 += tile) {
    const std::size_t r1 = std::min(rows, r0 + tile);
    for (std::size_t b0 = 0; b0 < n; b0 += 4) {
      const std::size_t bn = std::min<std::size_t>(4, n - b0);
      for (std::size_t j = 0; j < bn; ++j) {
        const float* xb = x + (b0 + j) * cols;
        double* lo = xw.data() + j * 8 * nb;
        double* hi = lo + 4 * nb;
        for (std::size_t i = 0; i < nb; ++i) {
          _mm256_storeu_pd(lo + 4 * i,
                           _mm256_cvtps_pd(_mm_loadu_ps(xb + 8 * i)));
          _mm256_storeu_pd(hi + 4 * i,
                           _mm256_cvtps_pd(_mm_loadu_ps(xb + 8 * i + 4)));
        }
      }
      std::size_t r = r0;
      for (; r + 2 <= r1; r += 2) {
        gemm_block_n<2>(bn, w, r, cols, x, b0, xw.data(), y, ldy);
      }
      if (r < r1) gemm_block_n<1>(bn, w, r, cols, x, b0, xw.data(), y, ldy);
    }
  }
}

void avx2_axpy(float a, const float* x, float* y, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(_mm256_loadu_ps(x + i), av,
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void avx2_scale(float s, float* x, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= s;
}

void avx2_attend_scores(const float* q, const float* k, std::size_t rows,
                        std::size_t stride, std::size_t d_head, float scale,
                        float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = avx2_dot(q, k + r * stride, d_head) * scale;
  }
}

void avx2_attend_accum(const float* w, const float* v, std::size_t rows,
                       std::size_t stride, std::size_t d_head, float* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const __m256 wv = _mm256_set1_ps(wr);
    const float* vr = v + r * stride;
    std::size_t c = 0;
    for (; c + 8 <= d_head; c += 8) {
      _mm256_storeu_ps(
          z + c, _mm256_fmadd_ps(_mm256_loadu_ps(vr + c), wv,
                                 _mm256_loadu_ps(z + c)));
    }
    for (; c < d_head; ++c) z[c] += wr * vr[c];
  }
}

void avx2_dequant_scores_int8(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, float s, float scale,
                              float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = avx2_dequant_dot_int8(q, k_codes + r * stride, d_head, s) * scale;
  }
}

void avx2_dequant_scores_log2(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, int exponent, float scale,
                              float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] =
        avx2_dequant_dot_log2(q, k_codes + r * stride, d_head, exponent) *
        scale;
  }
}

void avx2_dequant_accum_int8(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, float s, float* z) {
  const __m256 sv = _mm256_set1_ps(s);
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const __m256 wv = _mm256_set1_ps(wr);
    const std::int8_t* vr = v_codes + r * stride;
    std::size_t c = 0;
    for (; c + 8 <= d_head; c += 8) {
      _mm256_storeu_ps(
          z + c, _mm256_fmadd_ps(decode8_int8(vr + c, sv), wv,
                                 _mm256_loadu_ps(z + c)));
    }
    for (; c < d_head; ++c) {
      const float dv = static_cast<float>(vr[c]) * s;
      z[c] += wr * dv;
    }
  }
}

void avx2_dequant_accum_log2(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, int exponent, float* z) {
  const __m256i ebias = _mm256_set1_epi32(exponent + 127);
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const __m256 wv = _mm256_set1_ps(wr);
    const std::int8_t* vr = v_codes + r * stride;
    std::size_t c = 0;
    for (; c + 8 <= d_head; c += 8) {
      _mm256_storeu_ps(
          z + c, _mm256_fmadd_ps(decode8_log2(vr + c, ebias), wv,
                                 _mm256_loadu_ps(z + c)));
    }
    for (; c < d_head; ++c) {
      const float dv = kv_decode_log2(vr[c], exponent);
      z[c] += wr * dv;
    }
  }
}

constexpr KernelOps kAvx2Ops = {
    "avx2",
    avx2_matvec,
    avx2_gemm,
    avx2_axpy,
    avx2_scale,
    avx2_attend_scores,
    avx2_attend_accum,
    avx2_dequant_dot_int8,
    avx2_dequant_dot_log2,
    avx2_dequant_scores_int8,
    avx2_dequant_scores_log2,
    avx2_dequant_accum_int8,
    avx2_dequant_accum_log2,
};

}  // namespace

// Probe for kernels.cpp's resolve chain: table only when the running CPU has
// both AVX2 and FMA.
const KernelOps* opal_avx2_kernels() {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2Ops;
  }
  return nullptr;
}

}  // namespace opal

#endif  // x86
