#include "gpufreq/serve/snapshot.hpp"

#include <utility>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"

namespace gpufreq::serve {

namespace {
void require_trained(const std::shared_ptr<const core::PowerTimeModels>& models,
                     const char* who) {
  GPUFREQ_REQUIRE(models != nullptr, std::string(who) + ": null model snapshot");
  GPUFREQ_REQUIRE(models->power.trained() && models->time.trained(),
                  std::string(who) + ": snapshot models must be trained");
}
}  // namespace

ModelSnapshotHolder::ModelSnapshotHolder(std::shared_ptr<const core::PowerTimeModels> initial) {
  require_trained(initial, "ModelSnapshotHolder");
  MutexGuard lock(mutex_);
  current_ = std::move(initial);
}

void ModelSnapshotHolder::publish(std::shared_ptr<const core::PowerTimeModels> next) {
  require_trained(next, "ModelSnapshotHolder::publish");
  MutexGuard lock(mutex_);
  current_ = std::move(next);
  // Release: a reader that observes the new epoch and then locks mutex_
  // is guaranteed to copy the new pointer (the store happens under the
  // same mutex); the release/acquire pair orders the epoch probe itself.
  epoch_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const core::PowerTimeModels> ModelSnapshotHolder::snapshot() const {
  MutexGuard lock(mutex_);
  return current_;
}

const core::OnlinePredictor& SnapshotCache::predictor(const ModelSnapshotHolder& holder) {
  GPUFREQ_HOT("gpufreq::serve::SnapshotCache::predictor");
  const std::uint64_t current = holder.epoch();
  if (current != epoch_ || !predictor_.has_value()) refresh(holder);
  return *predictor_;
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((cold, noinline))
#endif
void SnapshotCache::refresh(const ModelSnapshotHolder& holder) {
  {
    MutexGuard lock(holder.mutex_);
    pinned_ = holder.current_;
    // Re-read under the lock: publish() bumps the epoch under the same
    // mutex, so this pairs the pinned pointer with its exact epoch even
    // if another publish raced the unlocked probe above.
    epoch_ = holder.epoch_.load(std::memory_order_acquire);
  }
  predictor_.emplace(*pinned_);
}

const core::PowerTimeModels& SnapshotCache::models() const {
  GPUFREQ_REQUIRE(pinned_ != nullptr, "SnapshotCache: no snapshot pinned yet");
  return *pinned_;
}

}  // namespace gpufreq::serve
