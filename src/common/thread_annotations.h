#pragma once

#include <condition_variable>
#include <mutex>

// Clang thread-safety analysis (-Wthread-safety) macros plus the
// annotated synchronization primitives the rest of the tree locks with.
//
// The analysis is attribute-driven: a mutex type must be declared a
// *capability* and its lock/unlock functions annotated before the
// compiler can check that every access to a GUARDED_BY member happens
// with the right lock held. libstdc++'s std::mutex carries none of
// these attributes, so the tree uses safe::Mutex / safe::MutexLock /
// safe::CondVar below — zero-overhead wrappers whose only job is to
// carry the annotations. On compilers without the attribute (gcc, msvc)
// everything expands to nothing and the wrappers behave exactly like
// the std types they wrap.
//
// Build with the `clang-thread-safety` CMake preset to run the
// analysis as an error (CI job of the same name). See DESIGN.md §10.

#if defined(__clang__)
#define SAFE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SAFE_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// Declares a type to be a capability (lockable).
#define CAPABILITY(x) SAFE_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type that acquires in its ctor, releases in its dtor.
#define SCOPED_CAPABILITY SAFE_THREAD_ANNOTATION__(scoped_lockable)

/// Member may only be accessed while holding the given capability.
#define GUARDED_BY(x) SAFE_THREAD_ANNOTATION__(guarded_by(x))

/// Pointee may only be accessed while holding the given capability.
#define PT_GUARDED_BY(x) SAFE_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Caller must hold the capability (exclusively) to call the function.
#define REQUIRES(...) \
  SAFE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Caller must hold the capability (at least shared).
#define REQUIRES_SHARED(...) \
  SAFE_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define ACQUIRE(...) \
  SAFE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define RELEASE(...) \
  SAFE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function acquires iff it returns the given boolean value.
#define TRY_ACQUIRE(...) \
  SAFE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it).
#define EXCLUDES(...) SAFE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held (analysis trusts it).
#define ASSERT_CAPABILITY(x) \
  SAFE_THREAD_ANNOTATION__(assert_capability(x))

/// Declares that the function returns a reference to the capability.
#define RETURN_CAPABILITY(x) SAFE_THREAD_ANNOTATION__(lock_returned(x))

/// Opts a function out of the analysis entirely. Must not appear outside
/// this header (the clang-thread-safety acceptance gate greps for it).
#define NO_THREAD_SAFETY_ANALYSIS \
  SAFE_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace safe {

/// \brief std::mutex with capability annotations; the only mutex type
/// the tree locks with (raw std::mutex is invisible to the analysis).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for CondVar's adopt-lock bridge only.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

/// \brief RAII lock on a safe::Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable over safe::Mutex.
///
/// Wait REQUIRES the mutex so the analysis checks every wait site holds
/// the lock it re-checks its predicate under. Callers must loop on the
/// predicate themselves:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
///
/// (A predicate lambda, std::condition_variable style, would defeat the
/// analysis: clang checks a lambda body as an unannotated function, so
/// guarded reads inside it warn. The explicit loop keeps every guarded
/// access inside the annotated scope — and is exactly the shape lint
/// rule SL007 accepts without an annotation.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified (or spuriously);
  /// re-acquires `mu` before returning.
  void Wait(Mutex& mu) REQUIRES(mu) {
    // Bridge to std::condition_variable without a second lock state:
    // adopt the already-held mutex, wait, then release the unique_lock's
    // ownership claim so the MutexLock/scope that really owns the lock
    // keeps sole responsibility for unlocking.
    std::unique_lock<std::mutex> lock(mu.native_handle(), std::adopt_lock);
    cv_.wait(lock);  // lint: bare-wait-ok(CondVar::Wait is the annotated primitive; every caller loops on its predicate under REQUIRES(mu), enforced by SL007 at the call sites)
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace safe
