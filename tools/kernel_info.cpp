// Prints the kernel-backend situation of this binary on this CPU: which
// backends are compiled in / runnable, and which one dispatch would pick.
// CI uses `--require <backend>` to make its conditional lanes explicit
// (exit 0 = available, 3 = not available, 2 = usage error) instead of
// silently skipping.
#include <cstdio>
#include <cstring>
#include <string>

#include "gpufreq/nn/kernels/dispatch.hpp"

using namespace gpufreq::nn;

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--require") == 0) {
    const std::string want = argv[2];
    bool ok = false;
    if (want == "scalar") {
      ok = true;
    } else if (want == "avx2") {
      ok = kernels::avx2_available();
    } else if (want == "avx512") {
      ok = kernels::avx512_available();
    } else {
      std::fprintf(stderr, "kernel_info: unknown backend '%s' (scalar|avx2|avx512)\n",
                   want.c_str());
      return 2;
    }
    std::printf("%s: %s\n", want.c_str(), ok ? "available" : "not available");
    return ok ? 0 : 3;
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--require scalar|avx2|avx512]\n", argv[0]);
    return 2;
  }
  std::printf("scalar : available (reference)\n");
  std::printf("avx2   : %s\n", kernels::avx2_available() ? "available" : "not available");
  std::printf("avx512 : %s\n", kernels::avx512_available() ? "available" : "not available");
  std::printf("active : %s\n", kernels::to_string(kernels::active_backend()));
  return 0;
}
