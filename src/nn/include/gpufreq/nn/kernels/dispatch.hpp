#pragma once

#include <string>

namespace gpufreq::nn::kernels {

/// Which kernel implementation set the nn library computes with. The
/// scalar backend is the portable reference (compiler-vectorized, no
/// intrinsics); the AVX2 and AVX-512 backends are hand-vectorized in TUs
/// compiled with `-mavx2 -mfma` / `-mavx512f -mavx512bw` only, so the
/// rest of the binary stays portable and the choice is made at runtime
/// via CPUID.
///
/// Determinism contract: within one backend, every kernel's per-element
/// accumulation order is fixed (ascending inner dimension) and the
/// parallel partition is thread-count independent, so results are bitwise
/// identical for any set_num_threads value. Across backends results agree
/// only to floating-point tolerance (different instruction selection and
/// FMA contraction), which is why the backend is an explicit, loggable
/// choice rather than an invisible compiler detail.
enum class Backend {
  kAuto,    ///< pick the best supported backend (env override respected)
  kScalar,  ///< portable reference kernels
  kAvx2,    ///< AVX2+FMA kernels (requires CPU support)
  kAvx512,  ///< AVX-512F+BW kernels (requires CPU support)
};

const char* to_string(Backend b);

/// Parse "auto" | "scalar" | "avx2" | "avx512" (the accepted
/// GPUFREQ_KERNEL_BACKEND values); throws InvalidArgument for anything
/// else. Both the parser and its error message are generated from the
/// same backend registry that drives selection, so the accepted set can
/// never go stale against the enum.
Backend backend_from_string(const std::string& name);

/// The registry-generated accepted set for GPUFREQ_KERNEL_BACKEND —
/// "auto|scalar|avx2|avx512" — i.e. the exact string embedded in
/// backend_from_string's InvalidArgument message. Exposed so tests (and
/// tools printing usage) stay in lockstep with the registry instead of
/// hand-copying the list.
const std::string& accepted_backends();

/// True when this binary contains the AVX2 kernels AND the executing CPU
/// reports AVX2+FMA support.
bool avx2_available();

/// True when this binary contains the AVX-512 kernels AND the executing
/// CPU reports AVX-512F+BW support.
bool avx512_available();

/// The backend actually computing (never kAuto). First use runs selection:
/// GPUFREQ_KERNEL_BACKEND if set, else the best supported backend.
Backend active_backend();

/// Force a backend; kAuto re-runs the default selection. Throws
/// InvalidArgument when the requested backend is not available on this
/// CPU/binary. Like set_num_threads, not safe to call concurrently with
/// in-flight nn compute.
void set_kernel_backend(Backend b);

}  // namespace gpufreq::nn::kernels
