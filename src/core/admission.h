#ifndef SPECQP_CORE_ADMISSION_H_
#define SPECQP_CORE_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/request.h"
#include "topk/exec_context.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace specqp {

class Engine;

// Streaming batch admission: turns an online stream of windowed
// Engine::Submit calls into the batch windows the BatchExecutor amortises.
// (kImmediate requests never reach it: Submit serves them as windows of
// one on the calling thread.)
//
// Submissions accumulate in per-(k, strategy) windows (those are the batch
// dimensions BatchExecutor shares across a whole batch). A window is
// served through the engine's window step (Engine::ServeWindow), so its
// queries get the shared-scan / duplicate-collapsing / one-snapshot
// amortisation of batch execution. Admission is work-conserving: the
// controller runs Engine::num_threads() dispatch slots, and a free slot
// takes the oldest closed window or, failing that, closes the oldest open
// window once its age has reached EngineOptions::admission_max_delay_ms
// (0 by default, so at once). A window therefore grows only while every
// slot is busy, or until it reaches admission_max_batch queries, which
// closes it on the spot. Flush() closes every open window immediately
// (shutdown, tests, end of a burst). The controller reads its settings
// from the engine's options.
//
// Threading: Submit() never blocks on query execution — it runs the
// engine's Resolve step (k >= 1, parse) and the submit-time checks
// (already-cancelled token, already-expired deadline, overload sheds),
// enqueues, and returns a future. The dispatch slots are background
// threads running one loop; up to num_threads() windows are in service
// at once, so futures of different windows may complete in any order.
// Concurrent windows share the engine's thread pool, which also carries
// the parallelism inside each window. The destructor flushes and drains
// every pending request before returning — no future is ever abandoned.
//
// Cancellation and deadlines ride along: each request with a token or
// deadline gets an ExecInterrupt that the window's operator trees poll
// (see ExecContext::Interrupted), so a cancelled request aborts mid-join
// promptly. When structurally identical queries from different requests
// collapse onto one execution, that execution is only interruptible if
// every rider shares the same interrupt — a cancelled rider whose twin
// still wants the answer lets the execution finish and simply gets its
// terminal kCancelled response.
class AdmissionController {
 public:
  // Counters since construction (snapshot under the controller's lock).
  struct Stats {
    uint64_t submitted = 0;           // requests accepted into windows
    uint64_t rejected_at_submit = 0;  // parse error / bad k / cancelled
    uint64_t windows_dispatched = 0;
    uint64_t closed_on_size = 0;
    uint64_t closed_on_delay = 0;
    uint64_t closed_on_flush = 0;  // Flush() or shutdown drain
    size_t max_window_size = 0;
    uint64_t batched_queries = 0;     // queries that reached a BatchExecutor
    uint64_t shared_scan_hits = 0;    // summed over dispatched windows
    uint64_t cancelled = 0;           // terminal kCancelled responses
    uint64_t deadline_exceeded = 0;   // terminal kDeadlineExceeded responses
    uint64_t shed_queue_full = 0;     // rejected: queue depth at the cap
    uint64_t shed_deadline = 0;       // rejected: deadline cannot be met
  };

  explicit AdmissionController(Engine* engine);
  ~AdmissionController();  // flushes and drains; joins every slot

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Admits one request. Returns immediately; the future completes once the
  // request's window has been dispatched (or the request was terminated at
  // submit/dispatch time: parse error, k == 0, already-cancelled token,
  // already-expired deadline, overload shed). Queue-depth shedding
  // (admission_max_queue) holds under any number of concurrent
  // submitters: the cap is checked once before parsing, so overload is
  // shed cheaply, and again where the request is enqueued. Discarding the
  // future loses the only handle on the response, hence [[nodiscard]].
  [[nodiscard]] std::future<QueryResponse> Submit(QueryRequest request);

  // Closes every open window now and hands it to the dispatch slots. Does
  // not wait for execution; wait on the returned futures for that.
  void Flush();

  Stats stats() const;

 private:
  struct Pending {
    Query query;
    QueryRequest request;  // query moved out; service terms remain
    std::promise<QueryResponse> promise;
    std::unique_ptr<ExecInterrupt> interrupt;  // null when not interruptible
    WallTimer queued;          // started at submit
    double admission_ms = 0;   // submit-to-dispatch, snapshot at dispatch
  };

  struct Window {
    // Unique per window *generation*: re-opening a (k, strategy) key after
    // a close mints a fresh id, so close accounting can tell the two
    // apart.
    uint64_t id = 0;
    // Set by CloseWindowLocked when the close is charged to a Stats
    // counter; a window whose close was already accounted is never counted
    // again (the Flush()-vs-slot double-count fix).
    bool close_accounted = false;
    std::vector<Pending> pending;
    WallTimer age;  // since first submission
  };

  using WindowKey = std::pair<size_t, int>;  // (k, strategy)

  // Single choke point for closing a window: charges exactly one close
  // counter (deduped on the window's id via close_accounted) and moves the
  // window to the closed queue. Empty or already-accounted windows are
  // dropped without touching any counter, so
  //   closed_on_size + closed_on_delay + closed_on_flush
  // always equals the number of windows that reach the closed queue (and,
  // after a drain, windows_dispatched) — the invariant
  // core_admission_test locks in.
  void CloseWindowLocked(const WindowKey& key, Window window,
                         uint64_t Stats::*counter) SPECQP_REQUIRES(mu_);

  // True when admission_max_queue is set and the queue is at it.
  bool QueueFullLocked() const SPECQP_REQUIRES(mu_);

  // The loop every dispatch slot runs until shutdown has drained both
  // queues.
  void SlotLoop();
  // The open window opened first (lowest id), or open_.end().
  std::map<WindowKey, Window>::iterator OldestOpenLocked()
      SPECQP_REQUIRES(mu_);
  // Serves one closed window through Engine::ServeWindow and fulfills its
  // promises. Runs on a dispatch slot, without mu_ held.
  void DispatchWindow(WindowKey key, Window window);

  Engine* engine_;

  mutable Mutex mu_;
  CondVar cv_;
  // Accumulating windows.
  std::map<WindowKey, Window> open_ SPECQP_GUARDED_BY(mu_);
  // Closed windows awaiting a free slot, in close order.
  std::deque<std::pair<WindowKey, Window>> closed_ SPECQP_GUARDED_BY(mu_);
  // Admitted requests not yet fulfilled (queued or in dispatch); the
  // depth admission_max_queue sheds against.
  size_t queued_ SPECQP_GUARDED_BY(mu_) = 0;
  uint64_t next_window_id_ SPECQP_GUARDED_BY(mu_) = 0;
  bool stop_ SPECQP_GUARDED_BY(mu_) = false;
  Stats stats_ SPECQP_GUARDED_BY(mu_);

  // The dispatch slots, Engine::num_threads() of them.
  std::vector<std::thread> slots_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_ADMISSION_H_
