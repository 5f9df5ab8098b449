// Portable reference backend: the register-tiled kernels the nn stack
// shipped with before runtime dispatch existed, plus the fused
// dense_forward_band layer kernel. No intrinsics — the explicit
// GCC/Clang vector extensions below compile on any target (lowered to
// whatever the build's -m flags allow) and the fallback path is plain
// C++. Accumulation order is ascending in the inner dimension in every
// path, so results are bitwise identical for any thread count. The TU is
// compiled with -ffp-contract=off (src/nn/CMakeLists.txt): no path fuses a
// multiply-add, so a compiler-vectorized loop's vector body and scalar
// tail, the register tile and the row tail all round alike, and a row's
// bits do not depend on where it sits in a band or on -march.

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
// every accumulator starting from zero. Element (r, p) of the A operand
// sits at a[r * ars + p * aps]: (lda, 1) reads A itself, (1, lda) reads
// A^T, so C = A*B and C = A^T*B share this tile.
inline void tile_accumulate(const float* a, std::size_t ars, std::size_t aps, const float* b,
                            std::size_t ldb, std::size_t k, float* acc) {
  const v8sf z = {};
  v8sf a0l = z, a0h = z, a1l = z, a1h = z, a2l = z, a2h = z;
  v8sf a3l = z, a3h = z, a4l = z, a4h = z, a5l = z, a5h = z;
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
                            std::size_t ldb, std::size_t k, float* acc) {
  for (std::size_t i = 0; i < kMr * kNr; ++i) acc[i] = 0.0f;
  for (std::size_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float ar = a[r * ars + p * aps];
      for (std::size_t j = 0; j < kNr; ++j) acc[r * kNr + j] += ar * bp[j];
    }
  }
}
#endif

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

// A one-column product (an output layer's forward and weight gradient),
// for which the i-p-j tail would run one latency-bound chain per row:
// kMr rows' chains run side by side in registers instead, each the same
// p-ascending sum from zero. A partial block re-reads its last live row
// in the spare chains and stores only the live ones.
inline void column_rows(const float* a, std::size_t ars, std::size_t aps, const float* b,
                        float* c, std::size_t k, std::size_t lo, std::size_t hi) {
  for (std::size_t i0 = lo; i0 < hi; i0 += kMr) {
    const std::size_t live = hi - i0 < kMr ? hi - i0 : kMr;
    const float* ar[kMr];
    for (std::size_t r = 0; r < kMr; ++r) ar[r] = a + (i0 + (r < live ? r : live - 1)) * ars;
    float acc[kMr] = {};
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t r = 0; r < kMr; ++r) acc[r] += ar[r][p * aps] * b[p];
    }
    for (std::size_t r = 0; r < live; ++r) c[i0 + r] = acc[r];
  }
}

// C rows [lo, hi) of C = op(A) * B with op(A)(i, p) = A[i * ars + p * aps],
// inner dimension k, B: k x m, C overwritten.
void gemm_band(const float* A, std::size_t ars, std::size_t aps, const float* B, float* C,
               std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  if (m == 1) {
    column_rows(A, ars, aps, B, C, k, lo, hi);
    return;
  }
  float acc[kMr * kNr];
  for (std::size_t j0 = 0; j0 + kNr <= m; j0 += kNr) {
    std::size_t i0 = lo;
    for (; i0 + kMr <= hi; i0 += kMr) {
      tile_accumulate(A + i0 * ars, ars, aps, B + j0, m, k, acc);
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
  // Band-level fusion: the tile writes z, then one pass adds the bias and
  // one activates the finished band in a contiguous span, the loop shape
  // the auto-vectorizer handles (a per-tile epilogue through the stack
  // tile measured slower here). The bias is added after the chain, so z
  // keeps gemm_row_band's bits.
  gemm_band(x, k, 1, w, y, k, m, lo, hi);
  for (std::size_t i = lo; i < hi; ++i) {
    float* yi = y + i * m;
    for (std::size_t j = 0; j < m; ++j) yi[j] += bias[j];
  }
  activate_f(act, y + lo * m, y + lo * m, d == nullptr ? nullptr : d + lo * m, (hi - lo) * m);
}

}  // namespace

namespace detail {

const KernelTable& scalar_table() {
  static const KernelTable table = {
      "scalar",      gemm_row_band_f, gemm_tn_band_f,       transpose_f,
      column_sums_f, activate_f,      dense_forward_band_f,
  };
  return table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels
