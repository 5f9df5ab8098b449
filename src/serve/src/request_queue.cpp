#include "gpufreq/serve/request_queue.hpp"

#include <utility>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"

namespace gpufreq::serve {

bool SweepTicket::done() const {
  GPUFREQ_REQUIRE(slot_ != nullptr, "SweepTicket: empty ticket");
  MutexGuard lock(slot_->mutex);
  return slot_->done;
}

const SweepOutcome& SweepTicket::wait() const {
  GPUFREQ_REQUIRE(slot_ != nullptr, "SweepTicket: empty ticket");
  detail::SweepSlot& slot = *slot_;
  MutexLock lock(slot.mutex);
  slot.cv.wait(lock.native(), [&slot] {
    slot.mutex.assert_held();
    return slot.done;
  });
  return slot.outcome;
}

const WorkloadDescriptor& SweepTicket::descriptor() const {
  GPUFREQ_REQUIRE(slot_ != nullptr, "SweepTicket: empty ticket");
  return slot_->descriptor;
}

PriorityRequestQueue::PriorityRequestQueue() : bands_(band_count()) {}

void PriorityRequestQueue::push(std::shared_ptr<detail::SweepSlot> slot) {
  GPUFREQ_HOT("gpufreq::serve::PriorityRequestQueue::push");
  GPUFREQ_REQUIRE(slot != nullptr, "PriorityRequestQueue: null slot");
  Ring& ring = bands_[slot->descriptor.band_index()];
  if (ring.count == ring.slots.size()) grow(ring);
  slot->sequence = next_sequence_++;
  ring.slots[(ring.head + ring.count) & (ring.slots.size() - 1)] = std::move(slot);
  ++ring.count;
  ++size_;
}

std::shared_ptr<detail::SweepSlot> PriorityRequestQueue::pop() {
  GPUFREQ_HOT("gpufreq::serve::PriorityRequestQueue::pop");
  // Highest band index = highest composed priority; FIFO inside the ring.
  for (std::size_t b = bands_.size(); b-- > 0;) {
    Ring& ring = bands_[b];
    if (ring.count == 0) continue;
    std::shared_ptr<detail::SweepSlot> slot = std::move(ring.slots[ring.head]);
    ring.head = (ring.head + 1) & (ring.slots.size() - 1);
    --ring.count;
    --size_;
    return slot;
  }
  return nullptr;
}

std::size_t PriorityRequestQueue::band_size(std::size_t band_index) const {
  GPUFREQ_REQUIRE(band_index < bands_.size(), "PriorityRequestQueue: band out of range");
  return bands_[band_index].count;
}

void PriorityRequestQueue::grow(Ring& ring) {
  const std::size_t cap = ring.slots.empty() ? 16 : ring.slots.size() * 2;
  std::vector<std::shared_ptr<detail::SweepSlot>> next(cap);
  for (std::size_t i = 0; i < ring.count; ++i)
    next[i] = std::move(ring.slots[(ring.head + i) & (ring.slots.size() - 1)]);
  ring.slots = std::move(next);
  ring.head = 0;
}

}  // namespace gpufreq::serve
