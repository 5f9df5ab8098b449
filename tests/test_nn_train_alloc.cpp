// Zero-allocation guarantee of a training epoch, validation loss included,
// verified with a counting global operator new (the instrument of
// test_serve_alloc): once a fit's buffers have grown, further epochs —
// shuffle, batch gather, forward, backward, optimizer update and the
// validation forward — never touch the heap. Two fits that differ only in
// epoch count must therefore allocate the same number of times.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "gpufreq/nn/network.hpp"
#include "gpufreq/nn/trainer.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gpufreq::nn {
namespace {

std::size_t allocations_of_fit(const Matrix& x, const Matrix& y, std::size_t epochs) {
  Network net(3, Network::paper_architecture(), 23);
  TrainConfig c;
  c.epochs = epochs;
  const Trainer trainer(c);
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const TrainHistory h = trainer.fit(net, x, y);
  g_count_allocations.store(false);
  EXPECT_EQ(h.epochs_run, epochs);
  return g_allocation_count.load();
}

TEST(TrainAlloc, SteadyStateEpochsAllocateNothing) {
  Rng rng(5);
  // 650 rows: 520 train (8 batches of 64 and a ragged 8-row tail), 130
  // validation rows (three 48-row chunks, the last one ragged).
  Matrix x(650, 3), y(650, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    y(i, 0) = std::cos(x(i, 0)) + x(i, 1) * x(i, 2);
  }
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_num_threads(threads);
    // Warm the per-thread inference workspace the validation loss runs in.
    (void)allocations_of_fit(x, y, 1);
    const std::size_t two = allocations_of_fit(x, y, 2);
    const std::size_t seven = allocations_of_fit(x, y, 7);
    EXPECT_EQ(seven, two) << "2 epochs allocated " << two << " times, 7 epochs " << seven;
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace gpufreq::nn
