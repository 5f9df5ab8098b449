// AVX2+FMA backend. This is the ONLY translation unit compiled with
// -mavx2 -mfma (see src/nn/CMakeLists.txt), so the rest of the binary
// stays runnable on any x86-64; dispatch.cpp only hands out this table
// after checking CPUID. When the compiler can't target AVX2 the real
// implementation compiles away and avx2_table() returns nullptr.
//
// NaN handling is deliberate everywhere: _mm256_min_ps/_mm256_max_ps
// return their SECOND operand when either input is NaN, so clamps are
// written constant-first to keep NaN flowing through, and ordered
// compares (_CMP_GT_OQ, false on NaN) route NaN lanes into the branch
// that propagates it.
#include "gpufreq/nn/kernels/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

#include "gpufreq/util/hot_path.hpp"
#include "scalar_math.hpp"
#include "transpose_avx.hpp"

namespace gpufreq::nn::kernels {

namespace {

constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;

// Lane mask selecting the first `count` of 8 lanes (count <= 8), for
// maskload/maskstore, which never touch the lanes it leaves out.
inline __m256i mask_for(std::size_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Vector port of scalar_math::fast_expf — same range reduction and
// polynomial, evaluated with explicit FMAs. NaN lanes survive the clamps
// (constant-first min/max) and poison the polynomial; the ordered
// self-compare squashes NaN in fx so the int conversion stays in range,
// and y * 2^0 keeps the NaN.
inline __m256 exp256(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(88.0f), x);
  x = _mm256_max_ps(_mm256_set1_ps(-87.0f), x);
  const __m256 fx =
      _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                                      _mm256_set1_ps(0.5f)));
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_add_ps(_mm256_fmadd_ps(_mm256_mul_ps(y, x), x, x), _mm256_set1_ps(1.0f));
  const __m256 fx_int = _mm256_and_ps(fx, _mm256_cmp_ps(fx, fx, _CMP_ORD_Q));
  const __m256i biased =
      _mm256_add_epi32(_mm256_cvtps_epi32(fx_int), _mm256_set1_epi32(127));
  const __m256 pow2 = _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
  return _mm256_mul_ps(y, pow2);
}

// One 8-lane activation step for the acts worth vectorizing; the
// remaining acts (tanh, softplus) go through the scalar reference.
inline __m256 act8(Activation act, __m256 z) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  switch (act) {
    case Activation::kLinear:
      return z;
    case Activation::kRelu:
      // blend, not max: scalar relu maps NaN to 0 (z > 0 is false), and
      // the backends must agree on that edge.
      return _mm256_blendv_ps(zero, z, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    case Activation::kElu: {
      const __m256 neg = _mm256_sub_ps(exp256(z), one);
      return _mm256_blendv_ps(neg, z, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    }
    case Activation::kLeakyRelu: {
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(scalar_math::kLeakySlope), z);
      return _mm256_blendv_ps(neg, z, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    }
    case Activation::kSelu: {
      const __m256 pos = _mm256_mul_ps(_mm256_set1_ps(kSeluScale), z);
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(kSeluScale * kSeluAlpha),
                                       _mm256_sub_ps(exp256(z), one));
      return _mm256_blendv_ps(neg, pos, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    }
    case Activation::kSigmoid:
      return _mm256_div_ps(one, _mm256_add_ps(one, exp256(_mm256_sub_ps(zero, z))));
    case Activation::kSoftsign: {
      const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
      return _mm256_div_ps(z, _mm256_add_ps(one, _mm256_and_ps(z, abs_mask)));
    }
    default:
      return z;  // unreachable: callers filter tanh/softplus first
  }
}

inline bool vectorizable(Activation act) {
  return act != Activation::kTanh && act != Activation::kSoftplus;
}

// y = act(z) and d = act'(z) for one 8-lane vector, from one exp. y is
// act8's expression and d the lane form of scalar_math::derivative_f, so
// each has the bits it has when computed alone. Callers filter tanh and
// softplus first.
inline void act_deriv8(Activation act, __m256 z, __m256& y, __m256& d) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 gt = _mm256_cmp_ps(z, zero, _CMP_GT_OQ);
  switch (act) {
    case Activation::kElu: {
      const __m256 e = exp256(z);
      y = _mm256_blendv_ps(_mm256_sub_ps(e, one), z, gt);
      d = _mm256_blendv_ps(e, one, gt);
      return;
    }
    case Activation::kSelu: {
      const __m256 e = exp256(z);
      const __m256 sa = _mm256_set1_ps(kSeluScale * kSeluAlpha);
      y = _mm256_blendv_ps(_mm256_mul_ps(sa, _mm256_sub_ps(e, one)),
                           _mm256_mul_ps(_mm256_set1_ps(kSeluScale), z), gt);
      d = _mm256_blendv_ps(_mm256_mul_ps(sa, e), _mm256_set1_ps(kSeluScale), gt);
      return;
    }
    case Activation::kSigmoid: {
      const __m256 s = act8(Activation::kSigmoid, z);
      y = s;
      d = _mm256_mul_ps(s, _mm256_sub_ps(one, s));
      return;
    }
    case Activation::kSoftsign: {
      const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
      const __m256 den = _mm256_add_ps(one, _mm256_and_ps(z, abs_mask));
      y = _mm256_div_ps(z, den);
      d = _mm256_div_ps(one, _mm256_mul_ps(den, den));
      return;
    }
    case Activation::kRelu:
      y = act8(act, z);
      d = _mm256_and_ps(gt, one);
      return;
    case Activation::kLeakyRelu:
      y = act8(act, z);
      d = _mm256_blendv_ps(_mm256_set1_ps(scalar_math::kLeakySlope), one, gt);
      return;
    default:  // linear
      y = z;
      d = one;
      return;
  }
}

// Stores act(z), and act'(z) when d is non-null, for the first `count`
// lanes of z: all 8 through plain stores unless kMasked. tanh and
// softplus's value go through the scalar reference; softplus's derivative
// is the vector sigmoid.
template <bool kMasked>
inline void act_store8(Activation act, __m256 z, float* y, float* d, std::size_t count) {
  const __m256i msk = mask_for(count);
  const auto store = [msk](float* p, __m256 v) {
    if constexpr (kMasked) {
      _mm256_maskstore_ps(p, msk, v);
    } else {
      _mm256_storeu_ps(p, v);
    }
  };
  if (!vectorizable(act)) {
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, z);
    if (act == Activation::kSoftplus && d != nullptr) {
      store(d, act8(Activation::kSigmoid, z));
      d = nullptr;
    }
    detail::scalar_table().activate(act, tmp, y, d, count);
    return;
  }
  if (d == nullptr) {
    store(y, act8(act, z));
    return;
  }
  __m256 yv, dv;
  act_deriv8(act, z, yv, dv);
  store(y, yv);
  store(d, dv);
}

void activate_f(Activation act, const float* z, float* y, float* d, std::size_t n) {
  if (act == Activation::kTanh || (act == Activation::kSoftplus && d == nullptr)) {
    detail::scalar_table().activate(act, z, y, d, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    act_store8<false>(act, _mm256_loadu_ps(z + i), y + i, d == nullptr ? nullptr : d + i, 8);
  }
  if (i < n) {
    // Masked tail: the same lane arithmetic as the body, so an element's
    // bits do not depend on its position.
    const __m256 zt = _mm256_maskload_ps(z + i, mask_for(n - i));
    act_store8<true>(act, zt, y + i, d == nullptr ? nullptr : d + i, n - i);
  }
}

// 16-float row of B or C as two 8-lane halves. kMasked moves a
// column-tail block through the lane masks (maskload/maskstore never
// touch the lanes they leave out); otherwise both halves move whole.
template <bool kMasked>
inline void load16(const float* b, __m256i ml, __m256i mh, __m256& bl, __m256& bh) {
  if constexpr (kMasked) {
    bl = _mm256_maskload_ps(b, ml);
    bh = _mm256_maskload_ps(b + 8, mh);
  } else {
    bl = _mm256_loadu_ps(b);
    bh = _mm256_loadu_ps(b + 8);
  }
}

template <bool kMasked>
inline void store16(float* c, __m256i ml, __m256i mh, __m256 cl, __m256 ch) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(c, ml, cl);
    _mm256_maskstore_ps(c + 8, mh, ch);
  } else {
    _mm256_storeu_ps(c, cl);
    _mm256_storeu_ps(c + 8, ch);
  }
}

// 6x16 register tile of C = op(A) * B: 12 accumulators + 2 B lanes in the
// 16 ymm budget. Element (r, p) of op(A) sits at a[r * ars + p * aps], so
// (lda, 1) reads A and (1, lda) reads A^T. A partial tile (`live` < kMr
// rows) re-reads its last live row in the spare rows, whose accumulators
// the caller never stores; every C element is one p-ascending FMA chain
// from zero at any tile height.
template <bool kMasked>
inline void tile_accumulate(const float* a, std::size_t ars, std::size_t aps, const float* b,
                            std::size_t ldb, std::size_t k, __m256 acc[kMr][2],
                            std::size_t live, __m256i ml, __m256i mh) {
  std::size_t row_off[kMr];
  for (std::size_t r = 0; r < kMr; ++r) row_off[r] = std::min(r, live - 1) * ars;
  // The chains run in a local tile written out once at the end: __m256 may
  // alias any float, so chains kept in `acc` itself would be stored back
  // on every p step once a caller's epilogue indexes it by row.
  __m256 t[kMr][2];
  for (std::size_t r = 0; r < kMr; ++r) {
    t[r][0] = _mm256_setzero_ps();
    t[r][1] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    __m256 bl, bh;
    load16<kMasked>(b + p * ldb, ml, mh, bl, bh);
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + row_off[r] + p * aps);
      t[r][0] = _mm256_fmadd_ps(av, bl, t[r][0]);
      t[r][1] = _mm256_fmadd_ps(av, bh, t[r][1]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = t[r][0];
    acc[r][1] = t[r][1];
  }
}

// Epilogue that stores a finished C row block as it is.
struct StoreC {
  float* c;
  std::size_t m;
  template <bool kMasked>
  void put(std::size_t i, std::size_t j0, std::size_t /*jw*/, __m256i ml, __m256i mh,
           __m256 l, __m256 h) const {
    store16<kMasked>(c + i * m + j0, ml, mh, l, h);
  }
  // Rows [i0, i0 + 8) of a one-column C, lanes outside `msk` untouched.
  void put_column(std::size_t i0, __m256i msk, __m256 v) const {
    _mm256_maskstore_ps(c + i0, msk, v);
  }
};

// Epilogue of the fused layer for a vectorizable kAct: z = acc + bias,
// then y = act(z) and, when d is non-null, d = act'(z), all from
// registers. It makes no call, so the accumulator tile stays in registers.
template <Activation kAct>
struct BiasAct {
  const float* bias;
  float* y;
  float* d;
  std::size_t m;
  template <bool kMasked>
  static void store(__m256 z, float* y, float* d, __m256i msk) {
    const auto put8 = [msk](float* p, __m256 v) {
      if constexpr (kMasked) {
        _mm256_maskstore_ps(p, msk, v);
      } else {
        _mm256_storeu_ps(p, v);
      }
    };
    if (d == nullptr) {
      put8(y, act8(kAct, z));
      return;
    }
    __m256 yv, dv;
    act_deriv8(kAct, z, yv, dv);
    put8(y, yv);
    put8(d, dv);
  }
  template <bool kMasked>
  void put(std::size_t i, std::size_t j0, std::size_t /*jw*/, __m256i ml, __m256i mh, __m256 l,
           __m256 h) const {
    __m256 bl, bh;
    load16<kMasked>(bias + j0, ml, mh, bl, bh);
    const std::size_t off = i * m + j0;
    float* dl = d == nullptr ? nullptr : d + off;
    store<kMasked>(_mm256_add_ps(l, bl), y + off, dl, ml);
    store<kMasked>(_mm256_add_ps(h, bh), y + off + 8, dl == nullptr ? nullptr : dl + 8, mh);
  }
  void put_column(std::size_t i0, __m256i msk, __m256 v) const {
    store<true>(_mm256_add_ps(v, _mm256_set1_ps(bias[0])), y + i0,
                d == nullptr ? nullptr : d + i0, msk);
  }
};

// One 16-column block (columns [j0, j0 + jw) of C, B already offset to
// j0) of rows [lo, hi): full tiles, then the row tail as one partial
// tile, each finished row handed to the epilogue. The full-tile epilogue
// runs over a constant kMr so the accumulators stay in registers.
template <bool kMasked, class Epi>
inline void gemm_block(const float* A, std::size_t ars, std::size_t aps, const float* B,
                       std::size_t k, std::size_t m, std::size_t lo, std::size_t hi,
                       std::size_t j0, std::size_t jw, __m256i ml, __m256i mh, const Epi& epi) {
  std::size_t i0 = lo;
  __m256 acc[kMr][2];
  for (; i0 + kMr <= hi; i0 += kMr) {
    tile_accumulate<kMasked>(A + i0 * ars, ars, aps, B, m, k, acc, kMr, ml, mh);
    for (std::size_t r = 0; r < kMr; ++r) {
      epi.template put<kMasked>(i0 + r, j0, jw, ml, mh, acc[r][0], acc[r][1]);
    }
  }
  if (i0 < hi) {
    const std::size_t live = hi - i0;
    tile_accumulate<kMasked>(A + i0 * ars, ars, aps, B, m, k, acc, live, ml, mh);
    for (std::size_t r = 0; r < live; ++r) {
      epi.template put<kMasked>(i0 + r, j0, jw, ml, mh, acc[r][0], acc[r][1]);
    }
  }
}

// Rows [lo, hi) of C = op(A) * B with op(A)(i, p) = A[i * ars + p * aps],
// inner dimension k, B: k x m, each finished row block handed to `epi`.
// Kept out of line: inlined into dense_forward_band_f's per-activation
// switch, the instantiations compiled to a tile loop up to 2x slower.
template <class Epi>
__attribute__((noinline)) void gemm_band(const float* A, std::size_t ars, std::size_t aps,
                                         const float* B, std::size_t k, std::size_t m,
                                         std::size_t lo, std::size_t hi, const Epi& epi) {
  if (m == 1 && ars < (std::size_t{1} << 27)) {
    // A one-column product (an output layer's forward and weight
    // gradient), for which the tile would spend 16 lanes per row: here
    // each lane is one C row, running the tile's p-ascending FMA chain
    // from zero. op(A)'s column is one load when rows are adjacent
    // (ars == 1) and a gather otherwise.
    const __m256i idx = _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                           _mm256_set1_epi32(static_cast<int>(ars)));
    for (std::size_t i0 = lo; i0 < hi; i0 += 8) {
      const __m256i msk = mask_for(std::min<std::size_t>(8, hi - i0));
      const float* a = A + i0 * ars;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 av = ars == 1 ? _mm256_maskload_ps(a + p * aps, msk)
                                   : _mm256_mask_i32gather_ps(_mm256_setzero_ps(), a + p * aps,
                                                              idx, _mm256_castsi256_ps(msk), 4);
        acc = _mm256_fmadd_ps(av, _mm256_set1_ps(B[p]), acc);
      }
      epi.put_column(i0, msk, acc);
    }
    return;
  }
  const __m256i all = mask_for(8);
  std::size_t j0 = 0;
  for (; j0 + kNr <= m; j0 += kNr) {
    gemm_block<false>(A, ars, aps, B + j0, k, m, lo, hi, j0, kNr, all, all, epi);
  }
  if (j0 < m) {
    const std::size_t jw = m - j0;
    gemm_block<true>(A, ars, aps, B + j0, k, m, lo, hi, j0, jw,
                     mask_for(std::min<std::size_t>(jw, 8)), mask_for(jw > 8 ? jw - 8 : 0), epi);
  }
}

void gemm_row_band_f(const float* A, const float* B, float* C, std::size_t k,
                     std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band(A, k, 1, B, k, m, lo, hi, StoreC{C, m});
}

void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n,
                    std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band(A, 1, k, B, n, m, lo, hi, StoreC{C, m});
}

void dense_forward_band_f(const float* x, const float* w, const float* bias, Activation act,
                          float* y, float* d, std::size_t k, std::size_t m, std::size_t lo,
                          std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_forward_band_f");
  switch (act) {
    case Activation::kLinear:
      return gemm_band(x, k, 1, w, k, m, lo, hi, BiasAct<Activation::kLinear>{bias, y, d, m});
    case Activation::kRelu:
      return gemm_band(x, k, 1, w, k, m, lo, hi, BiasAct<Activation::kRelu>{bias, y, d, m});
    case Activation::kElu:
      return gemm_band(x, k, 1, w, k, m, lo, hi, BiasAct<Activation::kElu>{bias, y, d, m});
    case Activation::kLeakyRelu:
      return gemm_band(x, k, 1, w, k, m, lo, hi,
                       BiasAct<Activation::kLeakyRelu>{bias, y, d, m});
    case Activation::kSelu:
      return gemm_band(x, k, 1, w, k, m, lo, hi, BiasAct<Activation::kSelu>{bias, y, d, m});
    case Activation::kSigmoid:
      return gemm_band(x, k, 1, w, k, m, lo, hi, BiasAct<Activation::kSigmoid>{bias, y, d, m});
    case Activation::kSoftsign:
      return gemm_band(x, k, 1, w, k, m, lo, hi, BiasAct<Activation::kSoftsign>{bias, y, d, m});
    case Activation::kTanh:
    case Activation::kSoftplus:
      break;
  }
  // tanh and softplus's value come from the scalar reference: z goes out
  // through the plain store, then one pass adds the bias and activates.
  gemm_band(x, k, 1, w, k, m, lo, hi, StoreC{y, m});
  for (std::size_t i = lo; i < hi; ++i) {
    float* yi = y + i * m;
    for (std::size_t j = 0; j < m; ++j) yi[j] += bias[j];
  }
  activate_f(act, y + lo * m, y + lo * m, d == nullptr ? nullptr : d + lo * m, (hi - lo) * m);
}

void column_sums_f(const float* m, float* out, std::size_t rows, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = 0.0f;
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = m + i * cols;
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), _mm256_loadu_ps(row + j)));
    }
    for (; j < cols; ++j) out[j] += row[j];
  }
}

}  // namespace

namespace detail {

const KernelTable* avx2_table() {
  static const KernelTable table = {
      "avx2",        gemm_row_band_f, gemm_tn_band_f,       transpose_f,
      column_sums_f, activate_f,      dense_forward_band_f,
  };
  return &table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels

#else  // no AVX2+FMA target support in this TU

namespace gpufreq::nn::kernels::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace gpufreq::nn::kernels::detail

#endif
