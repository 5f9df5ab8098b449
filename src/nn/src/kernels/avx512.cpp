// AVX-512 backend. This is the ONLY translation unit compiled with
// -mavx512f -mavx512bw (see src/nn/CMakeLists.txt), so the rest of the
// binary stays runnable on any x86-64; dispatch.cpp only hands out this
// table after checking CPUID for both feature bits. When the compiler
// can't target AVX-512 the real implementation compiles away and
// avx512_table() returns nullptr.
//
// Shape: 32-wide column tiles — a PAIR of 16-float zmm lanes sharing each
// broadcast A element — with __mmask16 masked loads/stores on every tail,
// and an 8-row register tile (16 zmm accumulators + 2 B lanes in the
// 32-register budget).
//
// NaN handling matches the other backends: _mm512_min_ps/_mm512_max_ps
// return their SECOND operand when either input is NaN (clamps are written
// constant-first to keep NaN flowing), and ordered mask compares
// (_CMP_GT_OQ, false on NaN) route NaN lanes into the propagating branch —
// ReLU maps NaN to 0 exactly like the scalar reference.
//
// The kernels use only AVX512F, but the backend is built and gated on
// AVX512F+BW (src/nn/CMakeLists.txt, dispatch.cpp); every AVX-512 server
// CPU since Skylake-SP has both.
#include "gpufreq/nn/kernels/kernel_table.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

#include "gpufreq/util/hot_path.hpp"
#include "scalar_math.hpp"
#include "transpose_avx.hpp"

namespace gpufreq::nn::kernels {

namespace {

constexpr std::size_t kLanes = 16;  // floats per zmm register
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 2 * kLanes;

// Lane mask selecting the first `count` of 16 lanes (count <= 16).
inline __mmask16 mask_for(std::size_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}

// Vector port of scalar_math::fast_expf: the same range reduction and
// polynomial as the avx2 exp256, with the 2^fx scaling done by vscalefps.
// NaN survives the constant-first clamps and poisons the polynomial, and
// scalef keeps it NaN. After the clamps fx is an integer in [-126, 127]
// and y lies in about [0.7, 1.4], so y * 2^fx is the same correctly
// rounded product that a multiply by the exponent-bits power gives.
inline __m512 exp512(__m512 x) {
  x = _mm512_min_ps(_mm512_set1_ps(88.0f), x);
  x = _mm512_max_ps(_mm512_set1_ps(-87.0f), x);
  const __m512 fx = _mm512_roundscale_ps(
      _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f), _mm512_set1_ps(0.5f)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_add_ps(_mm512_fmadd_ps(_mm512_mul_ps(y, x), x, x), _mm512_set1_ps(1.0f));
  return _mm512_scalef_ps(y, fx);
}

// One 16-lane activation step for the acts worth vectorizing; the
// remaining acts (tanh, softplus) go through the scalar reference.
inline __m512 act16(Activation act, __m512 z) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  const __mmask16 gt = _mm512_cmp_ps_mask(z, zero, _CMP_GT_OQ);
  switch (act) {
    case Activation::kLinear:
      return z;
    case Activation::kRelu:
      // maskz move, not max: scalar relu maps NaN to 0 (z > 0 is false),
      // and the backends must agree on that edge.
      return _mm512_maskz_mov_ps(gt, z);
    case Activation::kElu: {
      const __m512 neg = _mm512_sub_ps(exp512(z), one);
      return _mm512_mask_blend_ps(gt, neg, z);
    }
    case Activation::kLeakyRelu: {
      const __m512 neg = _mm512_mul_ps(_mm512_set1_ps(scalar_math::kLeakySlope), z);
      return _mm512_mask_blend_ps(gt, neg, z);
    }
    case Activation::kSelu: {
      const __m512 pos = _mm512_mul_ps(_mm512_set1_ps(kSeluScale), z);
      const __m512 neg = _mm512_mul_ps(_mm512_set1_ps(kSeluScale * kSeluAlpha),
                                       _mm512_sub_ps(exp512(z), one));
      return _mm512_mask_blend_ps(gt, neg, pos);
    }
    case Activation::kSigmoid:
      return _mm512_div_ps(one, _mm512_add_ps(one, exp512(_mm512_sub_ps(zero, z))));
    case Activation::kSoftsign:
      return _mm512_div_ps(z, _mm512_add_ps(one, _mm512_abs_ps(z)));
    default:
      return z;  // unreachable: callers filter tanh/softplus first
  }
}

inline bool vectorizable(Activation act) {
  return act != Activation::kTanh && act != Activation::kSoftplus;
}

// y = act(z) and d = act'(z) for one 16-lane vector, from one exp. y is
// act16's expression and d the lane form of scalar_math::derivative_f, so
// each has the bits it has when computed alone. Callers filter tanh and
// softplus first.
inline void act_deriv16(Activation act, __m512 z, __m512& y, __m512& d) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __mmask16 gt = _mm512_cmp_ps_mask(z, _mm512_setzero_ps(), _CMP_GT_OQ);
  switch (act) {
    case Activation::kElu: {
      const __m512 e = exp512(z);
      y = _mm512_mask_blend_ps(gt, _mm512_sub_ps(e, one), z);
      d = _mm512_mask_blend_ps(gt, e, one);
      return;
    }
    case Activation::kSelu: {
      const __m512 e = exp512(z);
      const __m512 sa = _mm512_set1_ps(kSeluScale * kSeluAlpha);
      y = _mm512_mask_blend_ps(gt, _mm512_mul_ps(sa, _mm512_sub_ps(e, one)),
                               _mm512_mul_ps(_mm512_set1_ps(kSeluScale), z));
      d = _mm512_mask_blend_ps(gt, _mm512_mul_ps(sa, e), _mm512_set1_ps(kSeluScale));
      return;
    }
    case Activation::kSigmoid: {
      const __m512 s = act16(Activation::kSigmoid, z);
      y = s;
      d = _mm512_mul_ps(s, _mm512_sub_ps(one, s));
      return;
    }
    case Activation::kSoftsign: {
      const __m512 den = _mm512_add_ps(one, _mm512_abs_ps(z));
      y = _mm512_div_ps(z, den);
      d = _mm512_div_ps(one, _mm512_mul_ps(den, den));
      return;
    }
    case Activation::kRelu:
      y = act16(act, z);
      d = _mm512_maskz_mov_ps(gt, one);
      return;
    case Activation::kLeakyRelu:
      y = act16(act, z);
      d = _mm512_mask_blend_ps(gt, _mm512_set1_ps(scalar_math::kLeakySlope), one);
      return;
    default:  // linear
      y = z;
      d = one;
      return;
  }
}

// Stores act(z), and act'(z) when d is non-null, through `msk` (the first
// `count` lanes). tanh and softplus's value go through the scalar
// reference; softplus's derivative is the vector sigmoid.
inline void act_store(Activation act, __m512 z, float* y, float* d, __mmask16 msk,
                      std::size_t count) {
  if (!vectorizable(act)) {
    alignas(64) float tmp[kLanes];
    _mm512_store_ps(tmp, z);
    if (act == Activation::kSoftplus && d != nullptr) {
      _mm512_mask_storeu_ps(d, msk, act16(Activation::kSigmoid, z));
      d = nullptr;
    }
    detail::scalar_table().activate(act, tmp, y, d, count);
    return;
  }
  if (d == nullptr) {
    _mm512_mask_storeu_ps(y, msk, act16(act, z));
    return;
  }
  __m512 yv, dv;
  act_deriv16(act, z, yv, dv);
  _mm512_mask_storeu_ps(y, msk, yv);
  _mm512_mask_storeu_ps(d, msk, dv);
}

void activate_f(Activation act, const float* z, float* y, float* d, std::size_t n) {
  if (act == Activation::kTanh || (act == Activation::kSoftplus && d == nullptr)) {
    detail::scalar_table().activate(act, z, y, d, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    act_store(act, _mm512_loadu_ps(z + i), y + i, d == nullptr ? nullptr : d + i,
              mask_for(16), 16);
  }
  if (i < n) {
    // Masked tail: inactive lanes load as 0.0 (every vectorizable act is
    // total there) and the stores touch only the live lanes.
    const __mmask16 msk = mask_for(n - i);
    act_store(act, _mm512_maskz_loadu_ps(msk, z + i), y + i, d == nullptr ? nullptr : d + i,
              msk, n - i);
  }
}

// 8x32 register tile of C = op(A) * B (B row stride ldb): 16
// accumulators + 2 B lanes. Element (r, p) of op(A) sits at
// a[r * ars + p * aps], so (lda, 1) reads A and (1, lda) reads A^T.
// Masked B loads/C stores make the same kernel serve full and tail column
// blocks. A partial tile (`live` < kMr rows) re-reads its last live row in
// the spare rows, whose accumulators the caller never stores; every C
// element is one p-ascending FMA chain from zero at any tile height.
inline void tile_accumulate(const float* a, std::size_t ars, std::size_t aps, const float* b,
                            std::size_t ldb, std::size_t k, __mmask16 m0, __mmask16 m1,
                            __m512 acc[kMr][2], std::size_t live) {
  std::size_t row_off[kMr];
  for (std::size_t r = 0; r < kMr; ++r) row_off[r] = std::min(r, live - 1) * ars;
  // The chains run in a local tile written out once at the end: __m512 may
  // alias any float, so chains kept in `acc` itself would be stored back
  // on every p step once a caller's epilogue indexes it by row.
  __m512 t[kMr][2];
  for (std::size_t r = 0; r < kMr; ++r) {
    t[r][0] = _mm512_setzero_ps();
    t[r][1] = _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m512 bl = _mm512_maskz_loadu_ps(m0, b + p * ldb);
    const __m512 bh = _mm512_maskz_loadu_ps(m1, b + p * ldb + 16);
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(a[row_off[r] + p * aps]);
      t[r][0] = _mm512_fmadd_ps(av, bl, t[r][0]);
      t[r][1] = _mm512_fmadd_ps(av, bh, t[r][1]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = t[r][0];
    acc[r][1] = t[r][1];
  }
}

// Epilogue that stores a finished C row as it is.
struct StoreC {
  float* c;
  std::size_t m;
  void put(std::size_t i, std::size_t j0, std::size_t /*jw*/, __mmask16 m0, __mmask16 m1,
           __m512 l, __m512 h) const {
    _mm512_mask_storeu_ps(c + i * m + j0, m0, l);
    _mm512_mask_storeu_ps(c + i * m + j0 + 16, m1, h);
  }
  // Rows [i0, i0 + 16) of a one-column C, lanes outside `msk` untouched.
  void put_column(std::size_t i0, __mmask16 msk, __m512 v) const {
    _mm512_mask_storeu_ps(c + i0, msk, v);
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
  static void store(__m512 z, float* y, float* d, __mmask16 msk) {
    if (d == nullptr) {
      _mm512_mask_storeu_ps(y, msk, act16(kAct, z));
      return;
    }
    __m512 yv, dv;
    act_deriv16(kAct, z, yv, dv);
    _mm512_mask_storeu_ps(y, msk, yv);
    _mm512_mask_storeu_ps(d, msk, dv);
  }
  void put(std::size_t i, std::size_t j0, std::size_t jw, __mmask16 m0, __mmask16 m1,
           __m512 l, __m512 h) const {
    const std::size_t off = i * m + j0;
    float* dl = d == nullptr ? nullptr : d + off;
    store(_mm512_add_ps(l, _mm512_maskz_loadu_ps(m0, bias + j0)), y + off, dl, m0);
    if (jw > kLanes) {
      store(_mm512_add_ps(h, _mm512_maskz_loadu_ps(m1, bias + j0 + 16)), y + off + 16,
            dl == nullptr ? nullptr : dl + 16, m1);
    }
  }
  void put_column(std::size_t i0, __mmask16 msk, __m512 v) const {
    store(_mm512_add_ps(v, _mm512_set1_ps(bias[0])), y + i0, d == nullptr ? nullptr : d + i0,
          msk);
  }
};

// Rows [lo, hi) of C = op(A) * B with op(A)(i, p) = A[i * ars + p * aps],
// inner dimension k, B: k x m, each finished row handed to `epi`.
// Kept out of line: inlined into dense_forward_band_f's per-activation
// switch, the instantiations compiled to a tile loop up to 2x slower.
template <class Epi>
__attribute__((noinline)) void gemm_band(const float* A, std::size_t ars, std::size_t aps,
                                         const float* B, std::size_t k, std::size_t m,
                                         std::size_t lo, std::size_t hi, const Epi& epi) {
  if (m == 1 && ars < (std::size_t{1} << 26)) {
    // A one-column product (an output layer's forward and weight
    // gradient), for which the tile would spend 32 lanes per row: here
    // each lane is one C row, running the tile's p-ascending FMA chain
    // from zero. op(A)'s column is one load when rows are adjacent
    // (ars == 1) and a gather otherwise.
    const __m512i idx = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        _mm512_set1_epi32(static_cast<int>(ars)));
    for (std::size_t i0 = lo; i0 < hi; i0 += kLanes) {
      const __mmask16 msk = mask_for(std::min(kLanes, hi - i0));
      const float* a = A + i0 * ars;
      __m512 acc = _mm512_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const __m512 av =
            ars == 1 ? _mm512_maskz_loadu_ps(msk, a + p * aps)
                     : _mm512_mask_i32gather_ps(_mm512_setzero_ps(), msk, idx, a + p * aps, 4);
        acc = _mm512_fmadd_ps(av, _mm512_set1_ps(B[p]), acc);
      }
      epi.put_column(i0, msk, acc);
    }
    return;
  }
  for (std::size_t j0 = 0; j0 < m; j0 += kNr) {
    const std::size_t jw = std::min(kNr, m - j0);
    const __mmask16 m0 = mask_for(std::min<std::size_t>(jw, kLanes));
    const __mmask16 m1 = mask_for(jw > kLanes ? jw - kLanes : 0);
    std::size_t i0 = lo;
    __m512 acc[kMr][2];
    for (; i0 + kMr <= hi; i0 += kMr) {
      tile_accumulate(A + i0 * ars, ars, aps, B + j0, m, k, m0, m1, acc, kMr);
      for (std::size_t r = 0; r < kMr; ++r) epi.put(i0 + r, j0, jw, m0, m1, acc[r][0], acc[r][1]);
    }
    // Row tail: one partial tile, so a 5-row tail runs five independent
    // chains side by side instead of five latency-bound single rows.
    if (i0 < hi) {
      const std::size_t live = hi - i0;
      tile_accumulate(A + i0 * ars, ars, aps, B + j0, m, k, m0, m1, acc, live);
      for (std::size_t r = 0; r < live; ++r) epi.put(i0 + r, j0, jw, m0, m1, acc[r][0], acc[r][1]);
    }
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
  const __mmask16 tail = mask_for(cols % 16);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = m + i * cols;
    std::size_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(out + j,
                       _mm512_add_ps(_mm512_loadu_ps(out + j), _mm512_loadu_ps(row + j)));
    }
    if (j < cols) {
      _mm512_mask_storeu_ps(out + j, tail,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(tail, out + j),
                                          _mm512_maskz_loadu_ps(tail, row + j)));
    }
  }
}

}  // namespace

namespace detail {

const KernelTable* avx512_table() {
  static const KernelTable table = {
      "avx512",      gemm_row_band_f, gemm_tn_band_f,       transpose_f,
      column_sums_f, activate_f,      dense_forward_band_f,
  };
  return &table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels

#else  // no AVX-512F+BW target support in this TU

namespace gpufreq::nn::kernels::detail {

const KernelTable* avx512_table() { return nullptr; }

}  // namespace gpufreq::nn::kernels::detail

#endif
