// Portable reference backend: the register-tiled kernels the nn stack
// shipped with before runtime dispatch existed, plus the fused
// dense_bias_act inference kernel. No intrinsics — the explicit
// GCC/Clang vector extensions below compile on any target (lowered to
// whatever the build's -m flags allow) and the fallback path is plain
// C++. Accumulation order is ascending in the inner dimension in every
// path, so results are bitwise identical for any thread count. The TU is
// compiled with -ffp-contract=off (src/nn/CMakeLists.txt): no path fuses a
// multiply-add, so a compiler-vectorized loop's vector body and scalar
// tail, the register tile and the row tail all round alike, and a row's
// bits do not depend on where it sits in a band or on -march.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "scalar_math.hpp"

namespace gpufreq::nn::kernels {

namespace {

// Register tile of the C = A*B kernel: kMr C-rows by kNr C-columns (one
// 512-bit lane of floats) held in registers across the whole k loop, so B
// traffic drops by kMr and C is written exactly once.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
static_assert(kNr == kPanelWidth, "packed panels must match the GEMM tile width");

#if defined(__GNUC__) || defined(__clang__)
// Explicit vector lanes: GCC 12's auto-vectorizer keeps the accumulator
// array in memory (16-byte SLP only), which is ~6x slower than the naive
// loop. Named vector variables pin the twelve accumulator halves in
// registers (12 + 2 B lanes fit the 16 ymm registers); __builtin_memcpy
// compiles to unaligned vector moves. 6 rows x 2 lanes = 12 independent
// FMA chains, enough to hide the 4-cycle FMA latency.
typedef float v8sf __attribute__((vector_size(8 * sizeof(float))));

inline v8sf load8(const float* p) {
  v8sf v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// Accumulate the kMr x kNr tile into `acc` (row-major kMr x kNr floats),
// every accumulator row starting at the `init16` lanes: zeros for a plain
// product, the bias for the fused layer (z = bias + sum(a*b) then costs
// nothing extra, and no separate bias pass is needed). Element
// (r, p) of the A operand sits at a[r * ars + p * aps]: (lda, 1) reads A
// itself, (1, lda) reads A^T, so C = A*B and C = A^T*B share this tile.
inline void tile_accumulate(const float* a, std::size_t ars, std::size_t aps, const float* b,
                            std::size_t ldb, std::size_t k, const float* init16, float* acc) {
  const v8sf i0 = load8(init16);
  const v8sf i1 = load8(init16 + 8);
  v8sf a0l = i0, a0h = i1, a1l = i0, a1h = i1, a2l = i0, a2h = i1;
  v8sf a3l = i0, a3h = i1, a4l = i0, a4h = i1, a5l = i0, a5h = i1;
  for (std::size_t p = 0; p < k; ++p) {
    const v8sf bl = load8(b + p * ldb);
    const v8sf bh = load8(b + p * ldb + 8);
    const float* ap = a + p * aps;
    float x;
    x = ap[0 * ars]; a0l += x * bl; a0h += x * bh;
    x = ap[1 * ars]; a1l += x * bl; a1h += x * bh;
    x = ap[2 * ars]; a2l += x * bl; a2h += x * bh;
    x = ap[3 * ars]; a3l += x * bl; a3h += x * bh;
    x = ap[4 * ars]; a4l += x * bl; a4h += x * bh;
    x = ap[5 * ars]; a5l += x * bl; a5h += x * bh;
  }
  const v8sf out[kMr][2] = {{a0l, a0h}, {a1l, a1h}, {a2l, a2h},
                            {a3l, a3h}, {a4l, a4h}, {a5l, a5h}};
  __builtin_memcpy(acc, &out[0][0], sizeof(out));
}
#else
inline void tile_accumulate(const float* a, std::size_t ars, std::size_t aps, const float* b,
                            std::size_t ldb, std::size_t k, const float* init16, float* acc) {
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) acc[r * kNr + j] = init16[j];
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float ar = a[r * ars + p * aps];
      for (std::size_t j = 0; j < kNr; ++j) acc[r * kNr + j] += ar * bp[j];
    }
  }
}
#endif

constexpr float kZeros[kNr] = {};

// i-p-j fallback for row/column tails (contiguous B access), same A
// addressing and p-ascending order as the tile.
inline void tail_rows(const float* a, std::size_t ars, std::size_t aps, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc, std::size_t k,
                      std::size_t row_begin, std::size_t row_end,
                      std::size_t col_begin, std::size_t col_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = col_begin; j < col_end; ++j) ci[j] = 0.0f;
    const float* ai = a + i * ars;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = ai[p * aps];
      const float* bp = b + p * ldb;
      for (std::size_t j = col_begin; j < col_end; ++j) ci[j] += aip * bp[j];
    }
  }
}

// C rows [lo, hi) of C = op(A) * B with op(A)(i, p) = A[i * ars + p * aps],
// inner dimension k, B: k x m, C overwritten.
void gemm_band(const float* A, std::size_t ars, std::size_t aps, const float* B, float* C,
               std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  float acc[kMr * kNr];
  for (std::size_t j0 = 0; j0 + kNr <= m; j0 += kNr) {
    std::size_t i0 = lo;
    for (; i0 + kMr <= hi; i0 += kMr) {
      tile_accumulate(A + i0 * ars, ars, aps, B + j0, m, k, kZeros, acc);
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t j = 0; j < kNr; ++j) C[(i0 + r) * m + j0 + j] = acc[r * kNr + j];
      }
    }
    tail_rows(A, ars, aps, B, m, C, m, k, i0, hi, j0, j0 + kNr);
  }
  const std::size_t j_tail = m - m % kNr;
  if (j_tail < m) tail_rows(A, ars, aps, B, m, C, m, k, lo, hi, j_tail, m);
}

void gemm_row_band_f(const float* A, const float* B, float* C, std::size_t k,
                     std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band(A, k, 1, B, C, k, m, lo, hi);
}

void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n,
                    std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band(A, 1, k, B, C, n, m, lo, hi);
}

void transpose_f(const float* src, float* dst, std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
  }
}

void column_sums_f(const float* m, float* out, std::size_t rows, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = 0.0f;
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = m + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
}

// One loop per activation, so each inlines its own elementwise code and
// vectorizes branch-free; with a derivative the shared exp runs once.
template <Activation kAct>
void activate_loop(const float* z, float* y, float* d, std::size_t n) {
  if (d == nullptr) {
    for (std::size_t i = 0; i < n; ++i) y[i] = scalar_math::value_f(kAct, z[i]);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    float v, dv;
    scalar_math::value_and_derivative_f(kAct, z[i], v, dv);
    y[i] = v;
    d[i] = dv;
  }
}

void activate_f(Activation act, const float* z, float* y, float* d, std::size_t n) {
  switch (act) {
    case Activation::kLinear: return activate_loop<Activation::kLinear>(z, y, d, n);
    case Activation::kRelu: return activate_loop<Activation::kRelu>(z, y, d, n);
    case Activation::kElu: return activate_loop<Activation::kElu>(z, y, d, n);
    case Activation::kLeakyRelu: return activate_loop<Activation::kLeakyRelu>(z, y, d, n);
    case Activation::kSelu: return activate_loop<Activation::kSelu>(z, y, d, n);
    case Activation::kSigmoid: return activate_loop<Activation::kSigmoid>(z, y, d, n);
    case Activation::kTanh: return activate_loop<Activation::kTanh>(z, y, d, n);
    case Activation::kSoftplus: return activate_loop<Activation::kSoftplus>(z, y, d, n);
    case Activation::kSoftsign: return activate_loop<Activation::kSoftsign>(z, y, d, n);
  }
}

void dense_forward_band_f(const float* x, const float* w, const float* bias, Activation act,
                          float* y, float* d, std::size_t k, std::size_t m, std::size_t lo,
                          std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_forward_band_f");
  // Same band-level shape as dense_bias_act below: the tile writes z, then
  // one pass adds the bias and one activates the finished band. The bias
  // is added after the chain (not used as its start), as the unfused
  // composition did, so z keeps gemm_row_band's bits.
  gemm_band(x, k, 1, w, y, k, m, lo, hi);
  for (std::size_t i = lo; i < hi; ++i) {
    float* yi = y + i * m;
    for (std::size_t j = 0; j < m; ++j) yi[j] += bias[j];
  }
  activate_f(act, y + lo * m, y + lo * m, d == nullptr ? nullptr : d + lo * m, (hi - lo) * m);
}

void dense_bias_act_f(const float* x, const PackedWeights& w, const float* bias,
                      Activation act, float* y, std::size_t lo, std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_f");
  // Band-level fusion. A per-tile epilogue (bias + activation on the 6x16
  // accumulator block) was measured SLOWER than the unfused three-pass
  // path here: the extra round trips through the stack tile eat more than
  // the saved memory pass. What does win on this backend is (a) folding
  // the bias into the accumulator *initialization* — the separate bias
  // pass disappears at zero cost — and (b) activating the finished band in
  // one contiguous span, the exact loop shape the auto-vectorizer already
  // handles for whole-matrix activation. Net: two passes over y instead of
  // the unfused path's three, and one fewer kernel launch.
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  for (std::size_t p = 0; p < w.panel_count(); ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn = std::min(kPanelWidth, n - j0);
    const float* B = w.panel(p);
    // Bias lanes for this panel, zero-padded like the packed weights so
    // the tile kernel can read a full 16-wide vector on tail panels.
    float bias16[kPanelWidth] = {};
    for (std::size_t j = 0; j < jn; ++j) bias16[j] = bias[j0 + j];
    std::size_t i = lo;
    float acc[kMr * kNr];
    for (; i + kMr <= hi; i += kMr) {
      tile_accumulate(x + i * k, k, 1, B, kPanelWidth, k, bias16, acc);
      for (std::size_t r = 0; r < kMr; ++r) {
        float* yr = y + (i + r) * n + j0;
        for (std::size_t j = 0; j < jn; ++j) yr[j] = acc[r * kNr + j];
      }
    }
    // Row tail: same p-ascending accumulation, one row at a time.
    for (; i < hi; ++i) {
      for (std::size_t j = 0; j < kNr; ++j) acc[j] = bias16[j];
      const float* xi = x + i * k;
      for (std::size_t q = 0; q < k; ++q) {
        const float xq = xi[q];
        const float* bq = B + q * kPanelWidth;
        for (std::size_t j = 0; j < kNr; ++j) acc[j] += xq * bq[j];
      }
      float* yr = y + i * n + j0;
      for (std::size_t j = 0; j < jn; ++j) yr[j] = acc[j];
    }
  }
  // One contiguous activation pass over the completed band.
  activate_f(act, y + lo * n, y + lo * n, nullptr, (hi - lo) * n);
}

void quantize_rows_i8_f(const float* x, std::size_t k, std::int16_t* q,
                        std::size_t qstride, float* scales, std::size_t lo,
                        std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::quantize_rows_i8_f");
  for (std::size_t i = lo; i < hi; ++i) {
    const float* xi = x + i * k;
    // max is commutative/associative over finite floats, so the reduction
    // order is free and SIMD backends land on the same amax bitwise.
    float amax = 0.0f;
    for (std::size_t j = 0; j < k; ++j) amax = std::max(amax, std::fabs(xi[j]));
    const float inv = amax > 0.0f ? 16383.0f / amax : 0.0f;
    scales[i] = amax > 0.0f ? amax / 16383.0f : 0.0f;
    std::int16_t* qi = q + i * qstride;
    for (std::size_t j = 0; j < k; ++j) {
      // nearbyintf in the default rounding mode is round-to-nearest-even,
      // the same convention as the SIMD cvtps2dq.
      const int v = static_cast<int>(std::nearbyintf(xi[j] * inv));
      qi[j] = static_cast<std::int16_t>(std::clamp(v, -16383, 16383));
    }
    for (std::size_t j = k; j < qstride; ++j) qi[j] = 0;
  }
}

void dense_bias_act_i8_f(const std::int16_t* q, const float* row_scales,
                         const QuantizedPackedWeights& w, const float* bias,
                         Activation act, float* y, std::size_t lo, std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_i8_f");
  const std::size_t kpad = w.kpad();
  const std::size_t n = w.cols();
  for (std::size_t p = 0; p < w.panel_count(); ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn = std::min(kPanelWidth, n - j0);
    const std::int8_t* B = w.panel(p);
    const float* ws = w.scales(p);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int16_t* qi = q + i * kpad;
      // Exact int32 accumulation over k-pair blocks: |a*w| <= 16383*127
      // per term and pack() bounds k, so nothing overflows and the sum is
      // order-free.
      std::int32_t acc[kPanelWidth] = {};
      for (std::size_t kp = 0; kp < kpad / 2; ++kp) {
        const std::int32_t a0 = qi[2 * kp];
        const std::int32_t a1 = qi[2 * kp + 1];
        const std::int8_t* blk = B + kp * 2 * kPanelWidth;
        for (std::size_t j = 0; j < kPanelWidth; ++j) {
          acc[j] += a0 * blk[2 * j] + a1 * blk[2 * j + 1];
        }
      }
      const float rs = row_scales[i];
      float* yr = y + i * n + j0;
      for (std::size_t j = 0; j < jn; ++j) {
        yr[j] = static_cast<float>(acc[j]) * (rs * ws[j]) + bias[j0 + j];
      }
    }
  }
  // Same band-level activation pass as the fp32 fused kernel.
  activate_f(act, y + lo * n, y + lo * n, nullptr, (hi - lo) * n);
}

}  // namespace

namespace detail {

const KernelTable& scalar_table() {
  static const KernelTable table = {
      "scalar",           gemm_row_band_f,  gemm_tn_band_f,     transpose_f,
      column_sums_f,      activate_f,       dense_forward_band_f, dense_bias_act_f,
      quantize_rows_i8_f, dense_bias_act_i8_f,
  };
  return table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels
