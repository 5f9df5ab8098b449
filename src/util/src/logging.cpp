#include "gpufreq/util/logging.hpp"

#include <atomic>
#include <cstdio>

#include "gpufreq/util/thread_annotations.hpp"

namespace gpufreq::log {

namespace {
std::atomic<Level> g_level{Level::kWarn};

const char* level_name(Level lvl) {
  switch (lvl) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "?";
}
}  // namespace

namespace detail {
Mutex& write_mutex() {
  static Mutex m;
  return m;
}
}  // namespace detail

void set_level(Level lvl) { g_level.store(lvl, std::memory_order_relaxed); }

Level level() { return g_level.load(std::memory_order_relaxed); }

bool enabled(Level lvl) { return static_cast<int>(lvl) >= static_cast<int>(level()); }

void write(Level lvl, const std::string& module, const std::string& message) {
  if (!enabled(lvl) || message.empty()) return;
  MutexGuard lock(detail::write_mutex());
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(lvl), module.c_str(), message.c_str());
}

}  // namespace gpufreq::log
