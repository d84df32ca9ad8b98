#ifndef SPECQP_TOPK_EXEC_CONTEXT_H_
#define SPECQP_TOPK_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>

#include "topk/exec_stats.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace specqp {

class SharedScanCache;
class ThreadPool;

// Why one execution stopped early (see ExecInterrupt).
enum class StopCause : int {
  kNone = 0,
  kCancelled = 1,         // an external cancellation flag was raised
  kDeadlineExceeded = 2,  // the execution's deadline passed
  kRaceLost = 3,          // a speculative racer was beaten by its rival
  kStoreFault = 4,        // backing store data faulted mid-execution
};

// Cooperative stop signal for one query execution.
//
// An ExecInterrupt combines an optional external cancellation flag (the
// shared state of a core CancellationToken) with an optional deadline.
// Operators poll it through ExecContext::Interrupted() inside their pull
// loops and wind down (Next() returns false) once it latches, so a
// cancelled or expired query stops mid-join within a handful of rows
// instead of draining its inputs. The latch is sticky and records the
// first cause observed; the layer that owns the execution reads cause()
// afterwards to translate the abort into a terminal Status.
//
// Thread-safety: Stopped()/CheckDeadline() may be called concurrently from
// every partition tree of a parallel execution; the external flag may be
// raised from any thread at any time. All state is atomic; loads are
// relaxed because the only consequence of observing the latch late is a
// few more rows of work.
class ExecInterrupt {
 public:
  ExecInterrupt() = default;

  ExecInterrupt(const ExecInterrupt&) = delete;
  ExecInterrupt& operator=(const ExecInterrupt&) = delete;

  // Links the external cancellation flag (kept alive by the shared_ptr for
  // the interrupt's lifetime). Call before execution starts.
  void LinkCancelFlag(std::shared_ptr<const std::atomic<bool>> flag) {
    cancel_flag_ = std::move(flag);
  }

  // Arms the deadline. Call before execution starts.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    has_deadline_ = true;
    deadline_ = deadline;
  }

  bool has_deadline() const { return has_deadline_; }

  // Arms this interrupt with `other`'s (may be null) cancellation flag and
  // deadline, not its latch: a speculative racer honours its execution's
  // terms and can still be stopped on its own. Call before execution
  // starts.
  void Inherit(const ExecInterrupt* other) {
    if (other == nullptr) return;
    cancel_flag_ = other->cancel_flag_;
    has_deadline_ = other->has_deadline_;
    deadline_ = other->deadline_;
  }

  // True once the execution should stop. Cheap (relaxed atomic loads, no
  // clock read) — safe to call per row.
  bool Stopped() const {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    if (cancel_flag_ != nullptr &&
        cancel_flag_->load(std::memory_order_relaxed)) {
      Latch(StopCause::kCancelled);
      return true;
    }
    return false;
  }

  // Reads the clock and latches kDeadlineExceeded when the deadline has
  // passed. Callers amortise this behind a poll counter (ExecContext).
  bool CheckDeadline() const {
    if (!has_deadline_) return false;
    if (std::chrono::steady_clock::now() >= deadline_) {
      Latch(StopCause::kDeadlineExceeded);
      return true;
    }
    return false;
  }

  // The first cause latched (kNone while running).
  StopCause cause() const {
    return static_cast<StopCause>(cause_.load(std::memory_order_relaxed));
  }

  // Latches `cause` from another thread — how a speculative race winner
  // winds down the losing racer (StopCause::kRaceLost). Sticky like every
  // latch: a racer already stopped for a stronger reason (cancellation,
  // deadline) keeps its first cause.
  void RequestStop(StopCause cause) const { Latch(cause); }

 private:
  // Records the first cause, then raises the sticky stop latch.
  void Latch(StopCause cause) const {
    int expected = static_cast<int>(StopCause::kNone);
    cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                   std::memory_order_relaxed);
    stopped_.store(true, std::memory_order_relaxed);
  }

  mutable std::atomic<bool> stopped_{false};
  mutable std::atomic<int> cause_{static_cast<int>(StopCause::kNone)};
  std::shared_ptr<const std::atomic<bool>> cancel_flag_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

// Per-query execution context threaded through the whole operator stack.
//
// An ExecContext bundles what one query execution needs beyond the data it
// reads: the counter sink (ExecStats), when the engine runs multi-core the
// shared ThreadPool, for queries executing as part of a batch the batch's
// SharedScanCache, and — for interruptible requests — the execution's
// ExecInterrupt. Every operator constructor takes an ExecContext* and
// records its counters via stats(); pull loops poll Interrupted() to honor
// cancellation and deadlines; orchestration layers (PlanExecutor,
// ParallelRankJoin) additionally consult pool()/num_threads() to decide on
// and drive parallel execution, and the plan executor resolves posting
// lists through shared_scans() when set (so identical patterns across the
// batch's queries are scanned once).
//
// Parallel executions split a query into partition trees. Each partition
// gets its own *child* context from ForPartition(): same query, no pool
// (partition trees are strictly serial), a private ExecStats so the
// operators of different partitions never contend on counters, and the
// same interrupt (with a private deadline-poll counter). The root context
// owns the children; MergePartitionStats() folds their counters back into
// the root stats once the execution is done.
//
// The context must outlive every operator built against it.
class ExecContext {
 public:
  // `stats` must outlive the context; `pool` may be null (serial);
  // `shared_scans` may be null (stand-alone query, no batch); `interrupt`
  // may be null (not cancellable, no deadline) and must otherwise outlive
  // the context.
  explicit ExecContext(ExecStats* stats, ThreadPool* pool = nullptr,
                       SharedScanCache* shared_scans = nullptr,
                       const ExecInterrupt* interrupt = nullptr);
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ExecStats* stats() const { return stats_; }
  ThreadPool* pool() const { return pool_; }
  // The batch's shared-scan layer, or null outside batch execution.
  SharedScanCache* shared_scans() const { return shared_scans_; }
  // The execution's stop signal, or null when not interruptible.
  const ExecInterrupt* interrupt() const { return interrupt_; }

  // True once the execution should wind down (cancellation flag raised or
  // deadline passed). Cancellation is observed immediately; the deadline
  // clock is only read every 2^7 polls, so per-row polling stays cheap.
  // Not thread-safe across callers — each partition context is polled only
  // by the thread currently driving its tree (the fork-join handoff orders
  // rounds), which is why the poll counter can be a plain integer.
  bool Interrupted() {
    if (interrupt_ == nullptr) {
      if (checkpoint_ != nullptr) return PollCheckpoint();
      return false;
    }
    if (interrupt_->Stopped()) return true;
    if (interrupt_->has_deadline() && (++deadline_poll_ & 127u) == 0 &&
        interrupt_->CheckDeadline()) {
      return true;
    }
    if (checkpoint_ != nullptr) return PollCheckpoint();
    return false;
  }

  // Installs a cardinality checkpoint: `fn` is invoked every `every` polls
  // of Interrupted() and returning true stops the execution exactly like an
  // interrupt (operators wind down, root->Next() returns false). This is
  // how the adaptive executor (core/speculation.h) gets control *inside* a
  // long root->Next() drain — a single Next() call can pull thousands of
  // input rows before emitting, so checking between Next() calls would miss
  // the divergence until too late. The callback runs on whichever thread
  // polls this context; adaptive execution installs checkpoints only on
  // serial root contexts, so that is one thread. `fn` must outlive the
  // execution or be cleared first.
  void SetCheckpoint(std::function<bool()> fn, uint32_t every) {
    checkpoint_ = std::move(fn);
    checkpoint_every_ = every == 0 ? 1 : every;
    checkpoint_poll_ = 0;
    checkpoint_fired_ = false;
  }
  void ClearCheckpoint() { checkpoint_ = nullptr; }

  // True once an installed checkpoint asked to stop (distinguishes a
  // checkpoint stop from interrupt causes and plain input exhaustion).
  bool checkpoint_fired() const { return checkpoint_fired_; }

  // Usable concurrency: pool workers plus the calling thread.
  size_t num_threads() const;
  bool parallel() const { return num_threads() > 1; }

  // Child context for one partition of a parallel execution (stable
  // address, owned by this context). Thread-safe, though partitions are
  // normally created single-threaded at build time.
  ExecContext* ForPartition();

  // Folds every partition's counters into stats() and zeroes them (so a
  // second call does not double-count). Call after the last row has been
  // pulled; the partition contexts themselves stay alive for any operators
  // still holding them.
  void MergePartitionStats();

 private:
  struct Partition;

  bool PollCheckpoint() {
    if (checkpoint_fired_) return true;
    if (++checkpoint_poll_ < checkpoint_every_) return false;
    checkpoint_poll_ = 0;
    if (checkpoint_()) checkpoint_fired_ = true;
    return checkpoint_fired_;
  }

  ExecStats* stats_;
  ThreadPool* pool_;
  SharedScanCache* shared_scans_;
  const ExecInterrupt* interrupt_;
  uint32_t deadline_poll_ = 0;
  std::function<bool()> checkpoint_;
  uint32_t checkpoint_every_ = 1;
  uint32_t checkpoint_poll_ = 0;
  bool checkpoint_fired_ = false;
  // Guards the partition arena only; everything above is either atomic
  // (via ExecInterrupt) or single-threaded by the execution contract.
  Mutex mu_;
  std::deque<std::unique_ptr<Partition>> partitions_ SPECQP_GUARDED_BY(mu_);
};

}  // namespace specqp

#endif  // SPECQP_TOPK_EXEC_CONTEXT_H_
