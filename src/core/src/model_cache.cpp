#include "gpufreq/core/model_cache.hpp"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "gpufreq/nn/serialize.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/logging.hpp"

namespace gpufreq::core {

namespace fs = std::filesystem;

namespace {
constexpr std::uint32_t kMagic = 0x4746'504du;  // "GFPM"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw ParseError("model cache: truncated stream");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto n = read_pod<std::uint32_t>(is);
  if (n > (1u << 16)) throw ParseError("model cache: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), n);
  if (!is) throw ParseError("model cache: truncated stream");
  return s;
}

void write_history(std::ostream& os, const nn::TrainHistory& h) {
  write_pod(os, static_cast<std::uint64_t>(h.train_loss.size()));
  for (double v : h.train_loss) write_pod(os, v);
  for (double v : h.val_loss) write_pod(os, v);
  write_pod(os, h.wall_seconds);
}

nn::TrainHistory read_history(std::istream& is) {
  nn::TrainHistory h;
  const auto n = read_pod<std::uint64_t>(is);
  if (n > (1u << 24)) throw ParseError("model cache: implausible history length");
  h.train_loss.resize(n);
  h.val_loss.resize(n);
  for (auto& v : h.train_loss) v = read_pod<double>(is);
  for (auto& v : h.val_loss) v = read_pod<double>(is);
  h.wall_seconds = read_pod<double>(is);
  h.epochs_run = n;
  return h;
}
}  // namespace

void save_models(const PowerTimeModels& models, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw IoError("model cache: cannot open '" + path + "' for writing");
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint32_t>(models.features.metrics.size()));
  for (const auto& m : models.features.metrics) write_string(os, m);
  nn::save_model(models.power.bundle(), os);
  nn::save_model(models.time.bundle(), os);
  write_history(os, models.power_history);
  write_history(os, models.time_history);
  if (!os) throw IoError("model cache: write failed for '" + path + "'");
}

PowerTimeModels load_models(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("model cache: cannot open '" + path + "' for reading");
  if (read_pod<std::uint32_t>(is) != kMagic) throw ParseError("model cache: bad magic");
  if (read_pod<std::uint32_t>(is) != kVersion) throw ParseError("model cache: bad version");

  PowerTimeModels models;
  const auto n_feats = read_pod<std::uint32_t>(is);
  if (n_feats == 0 || n_feats > 64) throw ParseError("model cache: implausible feature count");
  models.features.metrics.clear();
  for (std::uint32_t i = 0; i < n_feats; ++i) models.features.metrics.push_back(read_string(is));
  models.power.restore(nn::load_model(is), Target::kPower);
  models.time.restore(nn::load_model(is), Target::kTime);
  models.power_history = read_history(is);
  models.time_history = read_history(is);
  return models;
}

ModelCache::ModelCache(std::string dir) : dir_(std::move(dir)) {
  GPUFREQ_REQUIRE(!dir_.empty(), "ModelCache: empty directory");
}

std::string ModelCache::default_dir() {
  if (const char* env = std::getenv("GPUFREQ_CACHE_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return ".gpufreq_cache";
}

std::string ModelCache::path_for(const std::string& key) const {
  return (fs::path(dir_) / (key + ".gfpm")).string();
}

std::optional<PowerTimeModels> ModelCache::load(const std::string& key) const {
  const std::string path = path_for(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    MutexGuard lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  try {
    PowerTimeModels models = load_models(path);
    MutexGuard lock(mutex_);
    ++stats_.hits;
    return models;
  } catch (const Error& e) {
    log::warn("core") << "ignoring unreadable model cache entry " << path << ": " << e.what();
    MutexGuard lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
}

void ModelCache::store(const std::string& key, const PowerTimeModels& models) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  save_models(models, path_for(key));
  MutexGuard lock(mutex_);
  ++stats_.stores;
}

void ModelCache::invalidate(const std::string& key) const {
  std::error_code ec;
  fs::remove(path_for(key), ec);
  MutexGuard lock(mutex_);
  ++stats_.invalidations;
}

CacheStats ModelCache::stats() const {
  MutexGuard lock(mutex_);
  return stats_;
}

}  // namespace gpufreq::core
