#pragma once

// Internal 8x8 block transpose shared by the avx2 and avx512 backends.
// Include it only inside a TU's AVX2-enabled region. The functions live in
// an unnamed namespace, so each backend TU compiles its own copy with its
// own -m flags and the linker never swaps one backend's code into the
// other's table.

#include <immintrin.h>

#include <cstddef>

namespace gpufreq::nn::kernels {
namespace {

// dst (8 x 8, row stride ldd) = src (8 x 8, row stride lds) transposed:
// pairs of rows interleave, then 4-float halves, then 128-bit lanes.
inline void transpose8x8(const float* src, std::size_t lds, float* dst, std::size_t ldd) {
  __m256 r[8];
  for (std::size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
  __m256 t[8];
  for (std::size_t i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  __m256 u[8];
  for (std::size_t i = 0; i < 8; i += 4) {
    u[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
    u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
    u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
    u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ldd, _mm256_permute2f128_ps(u[i], u[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ldd, _mm256_permute2f128_ps(u[i], u[i + 4], 0x31));
  }
}

// dst = src^T, src rows x cols: whole 8x8 blocks, then the ragged edges.
inline void transpose_f(const float* src, float* dst, std::size_t rows, std::size_t cols) {
  const std::size_t rows8 = rows - rows % 8, cols8 = cols - cols % 8;
  for (std::size_t i = 0; i < rows8; i += 8) {
    for (std::size_t j = 0; j < cols8; j += 8) {
      transpose8x8(src + i * cols + j, cols, dst + j * rows + i, rows);
    }
  }
  for (std::size_t i = 0; i < rows8; ++i) {
    for (std::size_t j = cols8; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
  }
  for (std::size_t i = rows8; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
  }
}

}  // namespace
}  // namespace gpufreq::nn::kernels
