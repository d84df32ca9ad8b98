#ifndef SPECQP_UTIL_MUTEX_H_
#define SPECQP_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace specqp {

// Annotated wrappers over std::mutex / std::condition_variable.
//
// libstdc++'s std::mutex carries no capability attribute, so Clang's
// Thread Safety Analysis cannot see it. specqp::Mutex is a zero-overhead
// wrapper that is a capability; all long-lived mutex members in the tree
// use it (specqp_lint.py rule 4 rejects raw std::mutex members outside
// this header).
//
// Lock/Unlock are exposed directly — unlike std::unique_lock's
// unlock()/lock() dance, explicit balanced calls are something the
// analysis tracks flow-sensitively, which the slot/worker loops
// (admission.cc, thread_pool.cc) rely on.
class SPECQP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SPECQP_ACQUIRE() { mu_.lock(); }
  void Unlock() SPECQP_RELEASE() { mu_.unlock(); }
  bool TryLock() SPECQP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Escape hatch for CondVar below. The analysis does not follow raw(),
  // so only CondVar (which re-establishes the capability contract via
  // SPECQP_REQUIRES on Wait) should use it.
  std::mutex& raw() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII lock. Replaces std::lock_guard<std::mutex> at every call site.
class SPECQP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SPECQP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SPECQP_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to specqp::Mutex. Wait/WaitFor require the
// mutex to be held, mirroring std::condition_variable's contract; callers
// write explicit `while (!predicate) cv.Wait(mu);` loops so the analysis
// sees the lock held across the predicate check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SPECQP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.raw(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the lock; don't unlock on scope exit
  }

  // Returns std::cv_status::timeout when the deadline passed first.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& dur)
      SPECQP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.raw(), std::adopt_lock);
    std::cv_status status = cv_.wait_for(lk, dur);
    lk.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace specqp

#endif  // SPECQP_UTIL_MUTEX_H_
