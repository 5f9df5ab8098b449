// Kernel-backend tests: dispatch selection, scalar-vs-SIMD parity over
// awkward shapes, fused-vs-unfused agreement, NaN semantics of
// the fused epilogue, and the per-backend serial==parallel bitwise
// determinism contract. NaN tests call the kernel tables directly so the
// sanitizer lanes' GPUFREQ_DCHECK_FINITE layer checks stay out of the way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/nn/layer.hpp"
#include "gpufreq/nn/network.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/thread_pool.hpp"
#include "unfused_training_reference.hpp"

namespace gpufreq::nn::kernels {
namespace {

// Restore the default (env-respecting) selection when a test finishes so
// backend-forcing tests cannot leak into the rest of the binary.
struct ScopedBackend {
  explicit ScopedBackend(Backend b) { set_kernel_backend(b); }
  ~ScopedBackend() { set_kernel_backend(Backend::kAuto); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 0.5));
  return v;
}

// Tolerances sized for reordered float accumulation: a k=64 dot product of
// N(0,1) terms that cancels to ~1e-3 legitimately moves by a few 1e-6
// between accumulation orders (FMA vs separate rounds, tile vs row order),
// while any real indexing bug shows up as an O(1) difference.
void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  double rel = 1e-5, double abs = 2e-5) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double tol =
        abs + rel * static_cast<double>(std::max(std::fabs(a[i]), std::fabs(b[i])));
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

// Unfused reference through one table: z = x*w, z += bias, act(z).
std::vector<float> unfused_reference(const KernelTable& kt, const Matrix& x, const Matrix& w,
                                     const std::vector<float>& bias, Activation act) {
  std::vector<float> z = unfused_reference::pre_activation(
      kt, x.flat().data(), w.flat().data(), bias.data(), x.rows(), w.rows(), w.cols());
  kt.activate(act, z.data(), z.data(), nullptr, z.size());
  return z;
}

// The inference form of the fused layer: y only (d = nullptr).
std::vector<float> fused(const KernelTable& kt, const Matrix& x, const Matrix& w,
                         const std::vector<float>& bias, Activation act) {
  std::vector<float> y(x.rows() * w.cols());
  kt.dense_forward_band(x.flat().data(), w.flat().data(), bias.data(), act, y.data(), nullptr,
                        w.rows(), w.cols(), 0, x.rows());
  return y;
}

struct Shape {
  std::size_t rows, k, n;
};

// Tile boundaries, single-row/column edges, padding tails, the paper's
// sweep shape (61 x 3 -> 64), square power-of-two, and the 32-wide panel
// -pair edges of the AVX-512 tile: K=1 with n>32, n straddling one panel
// pair plus a masked tail, and n just under the pair width.
const Shape kShapes[] = {{1, 1, 1},  {1, 17, 1}, {5, 3, 16},   {6, 16, 16}, {7, 19, 33},
                         {61, 3, 64}, {64, 64, 64}, {13, 1, 7}, {1, 64, 1},
                         {3, 1, 33},  {9, 7, 49},  {8, 2, 96},  {2, 5, 31}};

const Activation kAllActivations[] = {
    Activation::kLinear, Activation::kRelu,    Activation::kElu,
    Activation::kLeakyRelu, Activation::kSelu, Activation::kSigmoid,
    Activation::kTanh,   Activation::kSoftplus, Activation::kSoftsign};

TEST(KernelDispatch, BackendStringRoundTrip) {
  EXPECT_EQ(backend_from_string("auto"), Backend::kAuto);
  EXPECT_EQ(backend_from_string("scalar"), Backend::kScalar);
  EXPECT_EQ(backend_from_string("avx2"), Backend::kAvx2);
  EXPECT_EQ(backend_from_string("avx512"), Backend::kAvx512);
  EXPECT_STREQ(to_string(Backend::kScalar), "scalar");
  EXPECT_STREQ(to_string(Backend::kAvx2), "avx2");
  EXPECT_STREQ(to_string(Backend::kAvx512), "avx512");
  EXPECT_THROW(backend_from_string("sse42"), InvalidArgument);
  EXPECT_THROW(backend_from_string(""), InvalidArgument);
  EXPECT_THROW(backend_from_string("AVX2 "), InvalidArgument);
  // The accepted set in the error message is generated from the backend
  // registry — it must name every backend the parser accepts.
  try {
    backend_from_string("sse42");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("auto|scalar|avx2|avx512"), std::string::npos) << msg;
  }
}

// Split "a|b|c" on '|'.
std::vector<std::string> split_accepted(const std::string& joined) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= joined.size()) {
    const std::size_t bar = joined.find('|', start);
    if (bar == std::string::npos) {
      names.push_back(joined.substr(start));
      break;
    }
    names.push_back(joined.substr(start, bar - start));
    start = bar + 1;
  }
  return names;
}

// The GPUFREQ_KERNEL_BACKEND rejection message must embed the registry-
// generated accepted set verbatim, every name it lists must parse, and
// every name the parser accepts must be listed — proven by round-tripping
// the published set instead of hand-copying "auto|scalar|avx2|avx512".
TEST(KernelDispatch, RejectionMessageListsRegistryAcceptedSet) {
  const std::string& accepted = accepted_backends();
  try {
    backend_from_string("not-a-backend");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("not-a-backend"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(expected " + accepted + ")"), std::string::npos) << msg;
  }
  const std::vector<std::string> names = split_accepted(accepted);
  EXPECT_GE(names.size(), 2u) << accepted;
  for (const std::string& name : names) {
    const Backend b = backend_from_string(name);  // must not throw
    // Listed name <-> enumerator is a bijection (no alias rows, no '?').
    EXPECT_EQ(to_string(b), name);
  }
}

TEST(KernelDispatch, ForcedScalarIsHonored) {
  ScopedBackend guard(Backend::kScalar);
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_STREQ(active().name, "scalar");
}

TEST(KernelDispatch, AutoSelectionNeverReturnsAuto) {
  set_kernel_backend(Backend::kAuto);
  const Backend b = active_backend();
  EXPECT_NE(b, Backend::kAuto);
  // Auto respects the env override (the CI scalar lane sets it); without
  // one it picks the best supported backend.
  if (const char* env = std::getenv("GPUFREQ_KERNEL_BACKEND");
      env != nullptr && backend_from_string(env) != Backend::kAuto) {
    EXPECT_EQ(b, backend_from_string(env));
  } else {
    const Backend best = avx512_available() ? Backend::kAvx512
                         : avx2_available() ? Backend::kAvx2
                                            : Backend::kScalar;
    EXPECT_EQ(b, best);
  }
}

TEST(KernelDispatch, Avx2RequestMatchesAvailability) {
  if (avx2_available()) {
    ScopedBackend guard(Backend::kAvx2);
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_STREQ(active().name, "avx2");
    EXPECT_NE(detail::avx2_table(), nullptr);
  } else {
    EXPECT_THROW(set_kernel_backend(Backend::kAvx2), InvalidArgument);
  }
}

TEST(KernelDispatch, Avx512RequestMatchesAvailability) {
  if (avx512_available()) {
    ScopedBackend guard(Backend::kAvx512);
    EXPECT_EQ(active_backend(), Backend::kAvx512);
    EXPECT_STREQ(active().name, "avx512");
    EXPECT_NE(detail::avx512_table(), nullptr);
  } else {
    // Requesting an unavailable backend must throw, never fall back
    // silently — deployments that pin avx512 should fail loudly.
    EXPECT_THROW(set_kernel_backend(Backend::kAvx512), InvalidArgument);
  }
}

// Scalar-vs-SIMD parity over every primitive and shape; shared by the
// avx2 and avx512 suites.
void check_simd_parity(const KernelTable& av) {
  const KernelTable& sc = detail::scalar_table();
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(::testing::Message() << "rows=" << s.rows << " k=" << s.k << " n=" << s.n);
    const Matrix x = random_matrix(s.rows, s.k, 17 + s.rows);
    const Matrix w = random_matrix(s.k, s.n, 29 + s.n);
    const std::vector<float> bias = random_vec(s.n, 31 + s.k);

    std::vector<float> cs(s.rows * s.n), ca(s.rows * s.n);
    sc.gemm_row_band(x.flat().data(), w.flat().data(), cs.data(), s.k, s.n, 0, s.rows);
    av.gemm_row_band(x.flat().data(), w.flat().data(), ca.data(), s.k, s.n, 0, s.rows);
    expect_close(cs, ca);

    // A^T * B with A: rows x k -> C: k x n needs B with `rows` rows.
    const Matrix b2 = random_matrix(s.rows, s.n, 41);
    std::vector<float> ts(s.k * s.n), ta(s.k * s.n);
    sc.gemm_tn_band(x.flat().data(), b2.flat().data(), ts.data(), s.rows, s.k, s.n, 0, s.k);
    av.gemm_tn_band(x.flat().data(), b2.flat().data(), ta.data(), s.rows, s.k, s.n, 0, s.k);
    expect_close(ts, ta);

    std::vector<float> ms = cs;
    for (std::size_t i = 0; i < s.rows; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) ms[i * s.n + j] += bias[j];
    }

    std::vector<float> sums_s(s.n), sums_a(s.n);
    sc.column_sums(cs.data(), sums_s.data(), s.rows, s.n);
    av.column_sums(cs.data(), sums_a.data(), s.rows, s.n);
    expect_close(sums_s, sums_a);

    for (Activation act : kAllActivations) {
      std::vector<float> as(ms.size()), aa(ms.size());
      sc.activate(act, ms.data(), as.data(), nullptr, ms.size());
      av.activate(act, ms.data(), aa.data(), nullptr, ms.size());
      expect_close(as, aa);
      expect_close(fused(sc, x, w, bias, act), fused(av, x, w, bias, act));
    }
  }
}

TEST(KernelParity, ScalarVsAvx2AllPrimitives) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  check_simd_parity(*detail::avx2_table());
}

TEST(KernelParity, ScalarVsAvx512AllPrimitives) {
  if (!avx512_available()) GTEST_SKIP() << "no AVX-512F+BW on this machine";
  check_simd_parity(*detail::avx512_table());
}

std::vector<const KernelTable*> all_available_tables() {
  std::vector<const KernelTable*> tables = {&detail::scalar_table()};
  if (avx2_available()) tables.push_back(detail::avx2_table());
  if (avx512_available()) tables.push_back(detail::avx512_table());
  return tables;
}

TEST(KernelParity, FusedMatchesUnfusedPerBackend) {
  const std::vector<const KernelTable*> tables = all_available_tables();
  for (const KernelTable* kt : tables) {
    SCOPED_TRACE(kt->name);
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(::testing::Message() << "rows=" << s.rows << " k=" << s.k << " n=" << s.n);
      const Matrix x = random_matrix(s.rows, s.k, 3 + s.rows);
      const Matrix w = random_matrix(s.k, s.n, 7 + s.n);
      const std::vector<float> bias = random_vec(s.n, 11 + s.k);
      for (Activation act : kAllActivations) {
        expect_close(unfused_reference(*kt, x, w, bias, act), fused(*kt, x, w, bias, act));
      }
    }
  }
}

TEST(KernelParity, SinglePanelLayerTilesMatchScalar) {
  // Narrow layers (n <= 16 columns): the 64 -> 1 output layer runs one C
  // row per lane on the SIMD backends, n = 5 the masked column tile; 13
  // and 21 rows add a partial row tile after the full ones.
  const KernelTable& sc = detail::scalar_table();
  const Shape shapes[] = {{8, 64, 1}, {13, 64, 1}, {21, 64, 5}, {13, 7, 5}, {3, 64, 1}};
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
    for (const Shape& s : shapes) {
      SCOPED_TRACE(::testing::Message() << "rows=" << s.rows << " k=" << s.k << " n=" << s.n);
      const Matrix x = random_matrix(s.rows, s.k, 91 + s.rows);
      const Matrix w = random_matrix(s.k, s.n, 97 + s.n);
      const std::vector<float> bias = random_vec(s.n, 101 + s.k);
      for (Activation act : {Activation::kLinear, Activation::kSelu, Activation::kTanh}) {
        expect_close(fused(sc, x, w, bias, act), fused(*kt, x, w, bias, act));
      }
    }
  }
}

TEST(KernelDeterminism, FusedLayerIsRowLocalBitwise) {
  // On every backend a row's result does not depend on whether it lands in
  // a full register tile, a partial one, or a single-row call at a shifted
  // base pointer. For the compiler-vectorized scalar reference this holds
  // because its TU never contracts a multiply-add, so the tile, the row
  // tail, and a loop's vector body and scalar tail all round alike.
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
    for (std::size_t n : {1, 5, 16, 33, 64}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const std::size_t rows = 21, k = 64;
      const Matrix x = random_matrix(rows, k, 103 + n);
      const Matrix w = random_matrix(k, n, 107 + n);
      const std::vector<float> bias = random_vec(n, 109);
      std::vector<float> whole(rows * n), split(rows * n);
      kt->dense_forward_band(x.flat().data(), w.flat().data(), bias.data(), Activation::kSelu,
                             whole.data(), nullptr, k, n, 0, rows);
      for (std::size_t i = 0; i < rows; ++i) {
        kt->dense_forward_band(x.flat().data() + i * k, w.flat().data(), bias.data(),
                               Activation::kSelu, split.data() + i * n, nullptr, k, n, 0, 1);
      }
      for (std::size_t i = 0; i < whole.size(); ++i) {
        EXPECT_EQ(whole[i], split[i]) << "at index " << i;
      }
    }
  }
}

// C = A^T * B, A: n x k, B: n x m, as one std::fma chain per element
// from zero with p ascending: the order every backend's gemm_tn promises.
std::vector<float> gemm_tn_fma_reference(const Matrix& a, const Matrix& b) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  std::vector<float> c(k * m);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < n; ++p) acc = std::fma(a(p, i), b(p, j), acc);
      c[i * m + j] = acc;
    }
  }
  return c;
}

// gemm_tn_band over C rows [0, k) in bands of 5, 3, 7, 1, 5, 3, ... rows:
// widths that split the 6- and 8-row register tiles unevenly.
std::vector<float> gemm_tn_ragged_bands(const KernelTable& kt, const Matrix& a,
                                        const Matrix& b) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  std::vector<float> c(k * m, -1.0f);
  const std::size_t widths[] = {5, 3, 7, 1};
  for (std::size_t lo = 0, w = 0; lo < k; ++w) {
    const std::size_t hi = std::min(k, lo + widths[w % 4]);
    kt.gemm_tn_band(a.flat().data(), b.flat().data(), c.data(), n, k, m, lo, hi);
    lo = hi;
  }
  return c;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      EXPECT_TRUE(std::isnan(a[i]) && std::isnan(b[i])) << "at index " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "at index " << i;
      EXPECT_EQ(std::signbit(a[i]), std::signbit(b[i])) << "at index " << i;
    }
  }
}

// m = 29 leaves a column tail wider than one avx2 lane and a partial
// second avx512 lane.
struct TnShape {
  std::size_t n, k, m;
};

std::vector<TnShape> tn_shapes() {
  std::vector<TnShape> shapes;
  for (std::size_t n : {1, 7, 64, 65}) {
    for (std::size_t k : {1, 3, 5, 16, 64, 67}) {
      for (std::size_t m : {1, 5, 16, 29, 33, 64}) shapes.push_back({n, k, m});
    }
  }
  return shapes;
}

TEST(KernelParity, GemmTnSimdMatchesFmaChainBitwise) {
  for (const KernelTable* kt : all_available_tables()) {
    if (kt == &detail::scalar_table()) continue;
    SCOPED_TRACE(kt->name);
    for (const TnShape& s : tn_shapes()) {
      SCOPED_TRACE(::testing::Message() << "n=" << s.n << " k=" << s.k << " m=" << s.m);
      const Matrix a = random_matrix(s.n, s.k, 211 + s.k);
      const Matrix b = random_matrix(s.n, s.m, 223 + s.m);
      const std::vector<float> ref = gemm_tn_fma_reference(a, b);
      std::vector<float> whole(s.k * s.m);
      kt->gemm_tn_band(a.flat().data(), b.flat().data(), whole.data(), s.n, s.k, s.m, 0, s.k);
      expect_bitwise(whole, ref);
      expect_bitwise(gemm_tn_ragged_bands(*kt, a, b), ref);
    }
  }
}

TEST(KernelParity, GemmTnScalarIsBandIndependentAndNearFmaChain) {
  const KernelTable& sc = detail::scalar_table();
  for (const TnShape& s : tn_shapes()) {
    SCOPED_TRACE(::testing::Message() << "n=" << s.n << " k=" << s.k << " m=" << s.m);
    const Matrix a = random_matrix(s.n, s.k, 227 + s.k);
    const Matrix b = random_matrix(s.n, s.m, 229 + s.m);
    std::vector<float> whole(s.k * s.m);
    sc.gemm_tn_band(a.flat().data(), b.flat().data(), whole.data(), s.n, s.k, s.m, 0, s.k);
    expect_bitwise(gemm_tn_ragged_bands(sc, a, b), whole);
    expect_close(whole, gemm_tn_fma_reference(a, b));
  }
}

// C = A * B, A: n x k, B: k x m, as one std::fma chain per element from
// zero with p ascending: the order every SIMD backend's gemm_row_band
// promises, including the one-column path that gives each lane a C row.
std::vector<float> gemm_fma_reference(const Matrix& a, const Matrix& b) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  std::vector<float> c(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc = std::fma(a(i, p), b(p, j), acc);
      c[i * m + j] = acc;
    }
  }
  return c;
}

// gemm_row_band over rows [0, n) in bands of 5, 3, 7, 1, 5, 3, ... rows.
std::vector<float> gemm_ragged_bands(const KernelTable& kt, const Matrix& a, const Matrix& b) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  std::vector<float> c(n * m, -1.0f);
  const std::size_t widths[] = {5, 3, 7, 1};
  for (std::size_t lo = 0, w = 0; lo < n; ++w) {
    const std::size_t hi = std::min(n, lo + widths[w % 4]);
    kt.gemm_row_band(a.flat().data(), b.flat().data(), c.data(), k, m, lo, hi);
    lo = hi;
  }
  return c;
}

TEST(KernelParity, GemmRowBandSimdMatchesFmaChainBitwise) {
  // Every row count 1..67 (so every remainder mod 8 and mod 16 of the
  // one-column path's lanes), m = 1 for that path and wider m for the
  // column tiles and their tails.
  for (const KernelTable* kt : all_available_tables()) {
    if (kt == &detail::scalar_table()) continue;
    SCOPED_TRACE(kt->name);
    for (std::size_t n = 1; n <= 67; ++n) {
      for (std::size_t k : {1, 3, 64, 67}) {
        for (std::size_t m : {1, 2, 7, 16, 29, 33}) {
          SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k << " m=" << m);
          const Matrix a = random_matrix(n, k, 233 + n);
          const Matrix b = random_matrix(k, m, 239 + k * 64 + m);
          const std::vector<float> ref = gemm_fma_reference(a, b);
          std::vector<float> whole(n * m);
          kt->gemm_row_band(a.flat().data(), b.flat().data(), whole.data(), k, m, 0, n);
          expect_bitwise(whole, ref);
          expect_bitwise(gemm_ragged_bands(*kt, a, b), ref);
        }
      }
    }
  }
}

// Pre-activations with every edge of the exp-based derivatives: signed
// zeros, NaN, infinities, the -87/88 clamp bounds and just past them,
// then ordinary values. 53 entries, so prefixes cover ragged vector tails.
std::vector<float> backward_inputs() {
  std::vector<float> z = {0.0f,   -0.0f,  std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          -87.0f, 88.0f, -87.5f, 88.5f, -86.9f, 87.9f, 1e-30f, -1e-30f};
  const std::vector<float> extra = random_vec(40, 233);
  for (float v : extra) z.push_back(6.0f * v);
  return z;
}

TEST(KernelActivationBackward, MatchesDerivativeTimesUpstream) {
  const std::vector<float> z = backward_inputs();
  std::vector<float> dy = random_vec(z.size(), 239);
  dy[3] = 0.0f;
  dy[4] = -0.0f;
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
    const bool reference = kt == &detail::scalar_table();
    for (Activation act : kAllActivations) {
      SCOPED_TRACE(to_string(act));
      for (std::size_t n : {1, 5, 8, 15, 16, 17, 31, 33, 53}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n);
        // dL/dz is the derivative the activate entry writes next to its
        // value, times dL/dy, as the training backward pass forms it.
        std::vector<float> want(n), y(n), got(n, -7.0f);
        for (std::size_t i = 0; i < n; ++i) want[i] = activate_derivative(act, z[i]) * dy[i];
        kt->activate(act, z.data(), y.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) got[i] *= dy[i];
        if (reference) {
          expect_bitwise(got, want);
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (std::isnan(want[i])) {
            EXPECT_TRUE(std::isnan(got[i])) << "at index " << i;
          } else {
            const double tol = 2e-5 + 1e-5 * std::fabs(static_cast<double>(want[i]));
            EXPECT_NEAR(got[i], want[i], tol) << "at index " << i;
          }
        }
      }
    }
  }
}

// Floats every 65537th bit pattern (both signs, every exponent, NaNs and
// denormals), plus the edges of the exp-based activations: signed zeros,
// infinities, NaN, the smallest and largest denormals, the -87/88 clamp
// bounds and either side of them, and the band just above -87 where the
// exp's 2^fx scale reaches 2^-126.
std::vector<float> float_sweep() {
  std::vector<float> v;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32); bits += 65537) {
    const auto b = static_cast<std::uint32_t>(bits);
    float f;
    std::memcpy(&f, &b, sizeof(f));
    v.push_back(f);
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float den_min = std::numeric_limits<float>::denorm_min();
  const float norm_min = std::numeric_limits<float>::min();
  for (float e : {0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(), den_min,
                  -den_min, norm_min - den_min, -(norm_min - den_min), norm_min, -norm_min,
                  -87.0f, 88.0f, -87.5f, 88.5f, -86.99f, -86.98f, 87.99f, -86.9f, 87.9f,
                  1e-30f, -1e-30f}) {
    v.push_back(e);
  }
  return v;
}

TEST(KernelTrainingForward, MatchesUnfusedLanesOverFloatSweep) {
  // The fused forward's epilogue over every sweep value: x is a column,
  // W a row of ones and the bias zero, so z = x (with -0 arriving as +0
  // from the chain's zero start). y and d must be the unfused
  // activate and activate_backward(dy = 1) bits; the activate entry
  // (with and without d) must agree with both.
  const std::vector<float> z = float_sweep();
  const std::size_t rows = z.size(), m = 19;  // a full 16-lane block plus a masked tail
  const std::vector<float> ones(m, 1.0f), zeros(m, 0.0f);
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
    const std::vector<float> zz =
        unfused_reference::pre_activation(*kt, z.data(), ones.data(), zeros.data(), rows, 1, m);
    for (Activation act : kAllActivations) {
      SCOPED_TRACE(to_string(act));
      std::vector<float> want_y(zz.size()), want_d(zz.size());
      for (std::size_t i = 0; i < zz.size(); ++i) {
        want_y[i] = unfused_reference::act(*kt, act, zz[i]);
        want_d[i] = unfused_reference::derivative(*kt, act, zz[i]);
      }
      std::vector<float> y(zz.size()), d(zz.size());
      kt->dense_forward_band(z.data(), ones.data(), zeros.data(), act, y.data(), d.data(), 1, m,
                             0, rows);
      expect_bitwise(y, want_y);
      expect_bitwise(d, want_d);

      std::vector<float> ya(z.size()), da(z.size()), yo(z.size());
      kt->activate(act, z.data(), ya.data(), da.data(), z.size());
      kt->activate(act, z.data(), yo.data(), nullptr, z.size());
      std::vector<float> want_ya(z.size()), want_da(z.size());
      for (std::size_t i = 0; i < z.size(); ++i) {
        want_ya[i] = unfused_reference::act(*kt, act, z[i]);
        want_da[i] = unfused_reference::derivative(*kt, act, z[i]);
      }
      expect_bitwise(ya, want_ya);
      expect_bitwise(yo, want_ya);
      expect_bitwise(da, want_da);
    }
  }
}

TEST(KernelTrainingForward, FusedForwardMatchesUnfusedCompositionBitwise) {
  // (y, d) from one kernel equal gemm_row_band -> bias add -> activate and
  // activate_backward with dy = 1, bit for bit, on every backend and
  // shape; without d the same y; and split into ragged row bands the same
  // bits again (rows are independent).
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  for (std::size_t n : {1, 3, 8, 15, 17, 31, 33, 64, 67}) shapes.push_back({13, 9, n});
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
    for (const Shape& s : shapes) {
      SCOPED_TRACE(::testing::Message() << "rows=" << s.rows << " k=" << s.k << " n=" << s.n);
      Matrix x = random_matrix(s.rows, s.k, 303 + s.rows);
      for (float& v : x.flat()) v *= 4.0f;  // reach the exp's clamp region too
      const Matrix w = random_matrix(s.k, s.n, 307 + s.n);
      const std::vector<float> bias = random_vec(s.n, 311 + s.k);
      const std::vector<float> z = unfused_reference::pre_activation(
          *kt, x.flat().data(), w.flat().data(), bias.data(), s.rows, s.k, s.n);
      for (Activation act : kAllActivations) {
        SCOPED_TRACE(to_string(act));
        std::vector<float> want_y(z.size()), want_d(z.size());
        for (std::size_t i = 0; i < z.size(); ++i) {
          want_y[i] = unfused_reference::act(*kt, act, z[i]);
          want_d[i] = unfused_reference::derivative(*kt, act, z[i]);
        }
        std::vector<float> y(z.size()), d(z.size()), y_only(z.size()), y_bands(z.size()),
            d_bands(z.size());
        kt->dense_forward_band(x.flat().data(), w.flat().data(), bias.data(), act, y.data(),
                               d.data(), s.k, s.n, 0, s.rows);
        kt->dense_forward_band(x.flat().data(), w.flat().data(), bias.data(), act,
                               y_only.data(), nullptr, s.k, s.n, 0, s.rows);
        const std::size_t widths[] = {5, 3, 7, 1};
        for (std::size_t lo = 0, b = 0; lo < s.rows; ++b) {
          const std::size_t hi = std::min(s.rows, lo + widths[b % 4]);
          kt->dense_forward_band(x.flat().data(), w.flat().data(), bias.data(), act,
                                 y_bands.data(), d_bands.data(), s.k, s.n, lo, hi);
          lo = hi;
        }
        expect_bitwise(y, want_y);
        expect_bitwise(d, want_d);
        expect_bitwise(y_only, want_y);
        expect_bitwise(y_bands, want_y);
        expect_bitwise(d_bands, want_d);
        expect_bitwise(y, unfused_reference(*kt, x, w, bias, act));
      }
    }
  }
}

std::vector<Backend> all_available_backends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (avx2_available()) backends.push_back(Backend::kAvx2);
  if (avx512_available()) backends.push_back(Backend::kAvx512);
  return backends;
}

TEST(KernelTranspose, DxPathMatchesTransposeThenGemmBitwise) {
  // DenseLayer::backward forms dL/dX from the block transpose of W and
  // gemm_row_band; it must equal a plain-loop transpose followed by the
  // same row-band GEMM (what gemm_nt used to run), bit for bit, on ragged
  // shapes that leave every 8x8 block edge partial. The transpose itself
  // must move every element exactly.
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 67};
  for (Backend backend : all_available_backends()) {
    SCOPED_TRACE(to_string(backend));
    ScopedBackend guard(backend);
    const KernelTable& kt = active();
    for (std::size_t in : dims) {
      for (std::size_t out : dims) {
        SCOPED_TRACE(::testing::Message() << "in=" << in << " out=" << out);
        DenseLayer layer(in, out, Activation::kLinear);
        layer.weights() = random_matrix(in, out, 401 + in * 71 + out);
        const Matrix wt = unfused_reference::transposed(layer.weights());
        std::vector<float> got_t(wt.size(), -1.0f);
        kt.transpose(layer.weights().flat().data(), got_t.data(), in, out);
        expect_bitwise(got_t, std::vector<float>(wt.flat().begin(), wt.flat().end()));

        for (std::size_t rows : {1, 7, 67}) {
          const Matrix x = random_matrix(rows, in, 409 + rows);
          const Matrix delta = random_matrix(rows, out, 419 + rows);
          Matrix y, dx;
          layer.forward(x, y);
          layer.backward(delta, &dx);  // linear: dL/dZ is delta exactly
          std::vector<float> want(rows * in);
          kt.gemm_row_band(delta.flat().data(), wt.flat().data(), want.data(), out, in, 0,
                           rows);
          expect_bitwise(std::vector<float>(dx.flat().begin(), dx.flat().end()), want);
        }
      }
    }
  }
}

TEST(KernelNan, FusedEpiloguePropagatesNan) {
  const std::vector<const KernelTable*> tables = all_available_tables();
  for (const KernelTable* kt : tables) {
    SCOPED_TRACE(kt->name);
    Matrix x = random_matrix(4, 8, 13);
    x(1, 3) = std::numeric_limits<float>::quiet_NaN();
    const Matrix w = random_matrix(8, 20, 15);
    const std::vector<float> bias = random_vec(20, 17);
    // SELU (and every exp-based activation) must propagate NaN through the
    // fused epilogue: a poisoned input row means a poisoned output row.
    const std::vector<float> y = fused(*kt, x, w, bias, Activation::kSelu);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_TRUE(std::isnan(y[1 * 20 + j])) << "col " << j;
    }
    // Clean rows stay clean.
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_FALSE(std::isnan(y[0 * 20 + j])) << "col " << j;
      EXPECT_FALSE(std::isnan(y[3 * 20 + j])) << "col " << j;
    }
    // ReLU deliberately maps NaN to 0 (NaN > 0 is false) — both backends
    // must agree on that semantic, not just on finite inputs.
    const std::vector<float> yr = fused(*kt, x, w, bias, Activation::kRelu);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_TRUE(yr[1 * 20 + j] == 0.0f || yr[1 * 20 + j] > 0.0f) << "col " << j;
      EXPECT_FALSE(std::isnan(yr[1 * 20 + j])) << "col " << j;
    }
  }
}

TEST(KernelDeterminism, SerialEqualsParallelBitwisePerBackend) {
  std::vector<Backend> backends = {Backend::kScalar};
  if (avx2_available()) backends.push_back(Backend::kAvx2);
  if (avx512_available()) backends.push_back(Backend::kAvx512);
  Network net(3, Network::paper_architecture(), /*seed=*/321);
  Rng rng(9);
  Matrix x(61, 3);
  for (float& v : x.flat()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (Backend b : backends) {
    SCOPED_TRACE(to_string(b));
    ScopedBackend guard(b);
    set_num_threads(1);
    const Matrix y1 = net.predict(x);
    set_num_threads(4);
    const Matrix y4 = net.predict(x);
    set_num_threads(0);
    ASSERT_EQ(y1.rows(), y4.rows());
    for (std::size_t i = 0; i < y1.rows(); ++i) {
      // Bitwise: the determinism contract, not a tolerance check.
      EXPECT_EQ(y1(i, 0), y4(i, 0)) << "row " << i;
    }
  }
}

TEST(KernelDeterminism, EmptyBatchIsRejected) {
  Network net(3, Network::paper_architecture(), /*seed=*/5);
  EXPECT_THROW(net.predict(Matrix()), InvalidArgument);
  InferenceWorkspace ws;
  EXPECT_THROW(net.predict_into(Matrix(), ws), InvalidArgument);
}

}  // namespace
}  // namespace gpufreq::nn::kernels
