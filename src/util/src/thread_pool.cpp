#include "gpufreq/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "gpufreq/util/thread_annotations.hpp"

namespace gpufreq {

namespace {

thread_local bool t_inside_worker = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("GPUFREQ_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// One in-flight parallel_chunks call: workers and the caller race on
/// `next` to claim chunk indices; `done` counts finished chunks and
/// `active` counts workers still inside work_on (the caller must not
/// destroy the batch while any worker can still touch it). `active` and
/// `error` are guarded by the pool's mutex_; they cannot carry a
/// GPUFREQ_GUARDED_BY annotation because Batch is declared before Pool, so
/// the discipline is enforced by the annotated accesses in Pool instead.
struct Batch {
  detail::ChunkFn fn;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::size_t active = 0;    // guarded by Pool::mutex_
  std::exception_ptr error;  // first failure only, guarded by Pool::mutex_
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() { shutdown(); }

  std::size_t size() {
    MutexGuard lock(mutex_);
    return workers_.size() + 1;
  }

  void resize(std::size_t n) {
    shutdown();
    MutexGuard lock(mutex_);
    stop_ = false;
    // Oversized requests (e.g. GPUFREQ_NUM_THREADS=99999) would exhaust
    // process thread limits; cap them, and if spawning still fails keep
    // the workers we got — correctness never depends on the count.
    constexpr std::size_t kMaxThreads = 256;
    const std::size_t target = std::min(n == 0 ? default_thread_count() : n, kMaxThreads);
    for (std::size_t i = 0; i + 1 < target; ++i) {
      try {
        workers_.emplace_back([this] { worker_loop(); });
      } catch (const std::system_error&) {
        break;
      }
    }
  }

  void run(Batch& batch) {
    {
      MutexGuard lock(mutex_);
      batch_ = &batch;
      ++batch_id_;
    }
    cv_work_.notify_all();
    work_on(batch);  // the caller is a full participant
    MutexLock lock(mutex_);
    batch_ = nullptr;  // late wakers must not join a finished batch
    cv_done_.wait(lock.native(), [&] {
      mutex_.assert_held();
      return batch.done.load() == batch.count && batch.active == 0;
    });
    if (batch.error) std::rethrow_exception(batch.error);
  }

 private:
  Pool() { resize(0); }

  void shutdown() {
    {
      MutexGuard lock(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void work_on(Batch& batch) {
    std::size_t c;
    while ((c = batch.next.fetch_add(1)) < batch.count) {
      try {
        batch.fn(c);
      } catch (...) {
        MutexGuard lock(mutex_);
        if (!batch.error) batch.error = std::current_exception();
      }
      if (batch.done.fetch_add(1) + 1 == batch.count) {
        // Lock so the notification cannot slip between the caller's
        // predicate check and its sleep.
        MutexGuard lock(mutex_);
        cv_done_.notify_all();
      }
    }
  }

  void worker_loop() {
    t_inside_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      Batch* batch = nullptr;
      {
        MutexLock lock(mutex_);
        cv_work_.wait(lock.native(), [&] {
          mutex_.assert_held();
          return stop_ || (batch_ != nullptr && batch_id_ != seen);
        });
        if (stop_) return;
        batch = batch_;
        seen = batch_id_;
        ++batch->active;
      }
      work_on(*batch);
      {
        MutexGuard lock(mutex_);
        --batch->active;
        cv_done_.notify_all();
      }
    }
  }

  Mutex mutex_;
  std::condition_variable cv_work_, cv_done_;
  // Joined in shutdown() with the lock released (a worker needs mutex_ to
  // observe stop_ and exit), so workers_ cannot be GUARDED_BY(mutex_);
  // resize/shutdown are documented as not thread-safe in the header.
  std::vector<std::thread> workers_;
  Batch* batch_ GPUFREQ_GUARDED_BY(mutex_) = nullptr;  // at most one in flight
  std::uint64_t batch_id_ GPUFREQ_GUARDED_BY(mutex_) = 0;
  bool stop_ GPUFREQ_GUARDED_BY(mutex_) = false;
};

}  // namespace

std::size_t num_threads() { return Pool::instance().size(); }

void set_num_threads(std::size_t n) { Pool::instance().resize(n); }

namespace detail {

void parallel_chunks(std::size_t chunk_count, ChunkFn run_chunk) {
  if (chunk_count == 0) return;
  // Inline execution when nesting inside a pool worker (deadlock-free) or
  // when the pool is effectively serial. Chunk order matches the parallel
  // claim order for a single participant, so results are identical.
  if (t_inside_worker || chunk_count == 1 || Pool::instance().size() == 1) {
    for (std::size_t c = 0; c < chunk_count; ++c) run_chunk(c);
    return;
  }
  Batch batch;
  batch.fn = run_chunk;
  batch.count = chunk_count;
  Pool::instance().run(batch);
}

}  // namespace detail

}  // namespace gpufreq
