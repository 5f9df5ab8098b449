#include "gpufreq/nn/kernels/dispatch.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"

namespace gpufreq::nn::kernels {

namespace {

// The active table. Null until first selection; reads are acquire so a
// table published by set_kernel_backend (or first-use selection) is fully
// visible to every compute thread.
std::atomic<const KernelTable*> g_active{nullptr};

bool cpu_has_avx2_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f_bw() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

const KernelTable* scalar_table_ptr() { return &detail::scalar_table(); }
bool scalar_always() { return true; }
bool avx2_ok() { return avx2_available(); }
bool avx512_ok() { return avx512_available(); }

// The single source of truth for every concrete backend: name strings,
// parsing, the accepted-set error message, availability gating, table
// lookup, and auto-selection preference are all derived from this list.
// Adding a backend means adding one row (best first).
struct BackendEntry {
  Backend backend;
  const char* name;
  bool (*available)();
  const KernelTable* (*table)();
};

constexpr std::size_t kBackendCount = 3;

const BackendEntry* registry() {
  // Ordered best-first for kAuto selection; the scalar reference is always
  // available and terminates the search.
  static const BackendEntry entries[kBackendCount] = {
      {Backend::kAvx512, "avx512", &avx512_ok, &detail::avx512_table},
      {Backend::kAvx2, "avx2", &avx2_ok, &detail::avx2_table},
      {Backend::kScalar, "scalar", &scalar_always, &scalar_table_ptr},
  };
  return entries;
}

// "auto|scalar|avx2|avx512": generated from the registry so the message in
// backend_from_string can never drift from the accepted set.
const std::string& accepted_set() {
  static const std::string joined = [] {
    std::string s = "auto";
    const BackendEntry* entries = registry();
    // Present in enum order (scalar before the SIMD tiers), i.e. reversed
    // relative to the best-first selection order.
    for (std::size_t i = kBackendCount; i > 0; --i) {
      s += '|';
      s += entries[i - 1].name;
    }
    return s;
  }();
  return joined;
}

const BackendEntry* find_entry(Backend b) {
  const BackendEntry* entries = registry();
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    if (entries[i].backend == b) return &entries[i];
  }
  return nullptr;
}

const KernelTable* table_for(Backend b) {
  if (b != Backend::kAuto) {
    const BackendEntry* e = find_entry(b);
    GPUFREQ_REQUIRE(e != nullptr, "table_for: unknown backend enumerator");
    GPUFREQ_REQUIRE(e->available(), std::string("kernel backend '") + e->name +
                                        "' requested but unavailable (CPU or "
                                        "build lacks the required ISA)");
    return e->table();
  }
  // Auto: honor GPUFREQ_KERNEL_BACKEND, else pick the best supported.
  if (const char* env = std::getenv("GPUFREQ_KERNEL_BACKEND")) {
    const Backend forced = backend_from_string(env);
    if (forced != Backend::kAuto) return table_for(forced);
  }
  const BackendEntry* entries = registry();
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    if (entries[i].available()) return entries[i].table();
  }
  return &detail::scalar_table();  // unreachable: scalar is always available
}

}  // namespace

const char* to_string(Backend b) {
  if (b == Backend::kAuto) return "auto";
  const BackendEntry* e = find_entry(b);
  return e != nullptr ? e->name : "?";
}

Backend backend_from_string(const std::string& name) {
  if (name == "auto") return Backend::kAuto;
  const BackendEntry* entries = registry();
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    if (name == entries[i].name) return entries[i].backend;
  }
  throw InvalidArgument("unknown kernel backend '" + name + "' (expected " +
                        accepted_set() + ")");
}

const std::string& accepted_backends() { return accepted_set(); }

bool avx2_available() { return detail::avx2_table() != nullptr && cpu_has_avx2_fma(); }

bool avx512_available() {
  return detail::avx512_table() != nullptr && cpu_has_avx512f_bw();
}

namespace {

// One-time default selection, deliberately out-of-line and cold: the magic
// static's __cxa_guard_acquire (a lock sink) and getenv/parse machinery must
// not sit inside active() itself, whose fast path is on the hot inference
// chain. The hot-path analyzer sanctions this function as a boundary
// (tools/analyze/hotpath_allow.txt: first-call initialization only).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((cold, noinline))
#endif
const KernelTable*
select_and_publish_default() {
  // Magic static: exactly one thread runs the default selection, and any
  // concurrent first callers block on it here rather than racing.
  static const KernelTable* selected = [] {
    const KernelTable* s = table_for(Backend::kAuto);
    g_active.store(s, std::memory_order_release);
    return s;
  }();
  return selected;
}

}  // namespace

const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) t = select_and_publish_default();
  return *t;
}

Backend active_backend() {
  const KernelTable* t = &active();
  const BackendEntry* entries = registry();
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    if (entries[i].backend != Backend::kScalar && entries[i].table() == t) {
      return entries[i].backend;
    }
  }
  return Backend::kScalar;
}

void set_kernel_backend(Backend b) {
  g_active.store(table_for(b), std::memory_order_release);
}

}  // namespace gpufreq::nn::kernels
