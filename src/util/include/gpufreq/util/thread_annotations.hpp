#pragma once

#include <mutex>

// Portable clang thread-safety annotations (no-ops on GCC/MSVC, which
// simply ignore the attributes) plus the annotated Mutex/MutexGuard/
// MutexLock wrappers that make them usable with libstdc++. Clang's analysis
// only understands lock/unlock functions that carry acquire/release
// attributes; libstdc++'s std::mutex and std::lock_guard are unannotated,
// so guarding state with them teaches the analyzer nothing. gpufreq code
// that protects shared state therefore uses gpufreq::Mutex with
// gpufreq::MutexGuard (or MutexLock around condition-variable waits) and
// declares the protected members GPUFREQ_GUARDED_BY(mutex_); a clang build
// (CI's clang job, or any local clang) then rejects every unlocked access
// at compile time via -Wthread-safety (enabled in gpufreq_warnings).
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define GPUFREQ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GPUFREQ_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability ("mutex" names the kind).
#define GPUFREQ_CAPABILITY(x) GPUFREQ_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires in its constructor and releases in
/// its destructor.
#define GPUFREQ_SCOPED_CAPABILITY GPUFREQ_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define GPUFREQ_GUARDED_BY(x) GPUFREQ_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define GPUFREQ_PT_GUARDED_BY(x) GPUFREQ_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function may only be called while holding the listed capabilities.
#define GPUFREQ_REQUIRES(...) \
  GPUFREQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities and holds them on return.
#define GPUFREQ_ACQUIRE(...) \
  GPUFREQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry).
#define GPUFREQ_RELEASE(...) \
  GPUFREQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts acquisition; first argument is the success value.
#define GPUFREQ_TRY_ACQUIRE(...) \
  GPUFREQ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities
/// (deadlock prevention for non-reentrant locks).
#define GPUFREQ_EXCLUDES(...) GPUFREQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime no-op that tells the analysis the capability is held here.
/// Needed inside lambdas (condition-variable predicates): the analysis is
/// intraprocedural, so a lambda body does not inherit the caller's lock set.
#define GPUFREQ_ASSERT_CAPABILITY(x) \
  GPUFREQ_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define GPUFREQ_RETURN_CAPABILITY(x) GPUFREQ_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the locking cannot be expressed.
#define GPUFREQ_NO_THREAD_SAFETY_ANALYSIS \
  GPUFREQ_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gpufreq {

/// std::mutex with capability annotations. Use together with
/// GPUFREQ_GUARDED_BY on every member the mutex protects.
class GPUFREQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GPUFREQ_ACQUIRE() { m_.lock(); }
  void unlock() GPUFREQ_RELEASE() { m_.unlock(); }
  bool try_lock() GPUFREQ_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Assert (to the static analysis only; no runtime effect) that this
  /// mutex is held. For condition-variable wait predicates.
  void assert_held() const GPUFREQ_ASSERT_CAPABILITY(this) {}

  /// The wrapped mutex, for std::condition_variable interop.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Scope-only RAII lock for gpufreq::Mutex (the annotated std::lock_guard).
/// Its release is a plain Mutex::unlock(): unlike std::unique_lock it keeps
/// no ownership flag, so there is no "unlock of an unowned lock" branch that
/// throws std::system_error (an out-of-line copy of that branch would put a
/// throw on a GPUFREQ_HOT caller's static call graph). Use it for every
/// critical section that is exactly one scope.
class GPUFREQ_SCOPED_CAPABILITY MutexGuard {
 public:
  explicit MutexGuard(Mutex& m) GPUFREQ_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexGuard() GPUFREQ_RELEASE() { m_.unlock(); }
  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

 private:
  Mutex& m_;
};

/// RAII lock for gpufreq::Mutex for condition-variable waits (the annotated
/// std::unique_lock replacement). `native()` exposes the underlying
/// std::unique_lock so std::condition_variable::wait can drop and reacquire
/// the lock; pair such waits with Mutex::assert_held() in the predicate.
/// Scope-only sections use MutexGuard instead.
class GPUFREQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) GPUFREQ_ACQUIRE(m) : lock_(m.native()) {}
  ~MutexLock() GPUFREQ_RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace gpufreq
