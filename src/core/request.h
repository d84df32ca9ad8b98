#ifndef SPECQP_CORE_REQUEST_H_
#define SPECQP_CORE_REQUEST_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/query_plan.h"
#include "query/query.h"
#include "topk/exec_context.h"
#include "topk/exec_stats.h"
#include "topk/scored_row.h"
#include "util/status.h"
#include "util/stop_probe.h"

namespace specqp {

// How a query is planned and executed. (Declared here — the request layer
// is the public API surface — and re-exported by core/engine.h.)
enum class Strategy {
  kSpecQp,   // PLANGEN speculation (the paper's contribution)
  kTrinit,   // all patterns relaxed through incremental merges (baseline)
  kNoRelax,  // plain rank joins, relaxations ignored (lower bound)
};

std::string_view StrategyName(Strategy strategy);

// Copyable handle to a shared cancellation flag. A default-constructed
// token is *empty* (not cancellable); Create() makes a live one. All
// copies share one flag, so the caller keeps a copy, hands another to a
// QueryRequest, and may RequestCancel() from any thread at any time — the
// executing operators poll the flag cooperatively and wind the query down
// within a few rows. Cancellation is sticky and cannot be reset.
class CancellationToken {
 public:
  CancellationToken() = default;  // empty: not cancellable

  static CancellationToken Create() {
    CancellationToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  bool valid() const { return flag_ != nullptr; }

  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  // The shared flag, for wiring into an ExecInterrupt (null when empty).
  std::shared_ptr<const std::atomic<bool>> flag() const { return flag_; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// One query-execution request: what to run (a pre-parsed Query, or text
// parsed against the store dictionary at submit time), how (k and
// strategy), and under which service terms (deadline, cancellation token,
// admission mode). This is the unified input of Engine::Submit and
// Engine::Explain — the only per-query entry points; pre-assembled
// batches of parsed queries go through BatchExecutor.
struct QueryRequest {
  // What to run: `query` wins when set; otherwise `text` is parsed at
  // submit time (a parse error becomes the response's terminal status).
  std::optional<Query> query;
  std::string text;

  size_t k = 10;
  Strategy strategy = Strategy::kSpecQp;

  // Service terms. The deadline is checked before execution and polled
  // cooperatively during it; an expired request terminates with
  // kDeadlineExceeded and no rows. The token may be cancelled from any
  // thread; a cancelled request terminates with kCancelled and no rows.
  // Both are best-effort-prompt: a request that completes in the same
  // instant may still report the terminal cancellation/deadline status.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  CancellationToken cancel;

  // Caller label, echoed verbatim in the response (request tracing).
  std::string tag;

  // Where the request waits. kWindow (default): it joins the engine's
  // admission window for its (k, strategy) and is served with the window
  // on a dispatch slot (shared scans, duplicate collapsing; the window
  // closes when a slot is free or at max-size). kImmediate: it is served
  // at once, on the submitting thread, as a window of one. Both go through
  // the same window step and are safe to call from any number of threads.
  enum class Admission { kWindow, kImmediate };
  Admission admission = Admission::kWindow;

  static QueryRequest FromQuery(Query query, size_t k = 10,
                                Strategy strategy = Strategy::kSpecQp);
  static QueryRequest FromText(std::string text, size_t k = 10,
                               Strategy strategy = Strategy::kSpecQp);

  // Sets the deadline `timeout` from now.
  QueryRequest& WithTimeout(std::chrono::milliseconds timeout);
};

// The one result record of the engine: the terminal Status, the plan and
// PLANGEN diagnostics, the rows and ExecStats, and the request
// echo/admission diagnostics. Every path fills it — Explain (plan only),
// Submit in either admission mode, and BatchExecutor (one per query).
// `rows` is only meaningful when status.ok(); a cancelled or expired
// request reports its terminal status with no rows (`partial` stays false
// — partial-result streaming is a future extension, nothing is ever
// silently truncated today).
struct QueryResponse {
  Status status;

  QueryPlan plan;
  PlanDiagnostics diagnostics;  // filled for kSpecQp
  std::vector<ScoredRow> rows;  // the top-k, score-descending
  ExecStats stats;
  bool partial = false;

  // Request echo + admission diagnostics.
  std::string tag;
  Strategy strategy = Strategy::kSpecQp;
  size_t k = 0;
  size_t window_size = 0;   // requests dispatched in this window (0 = kImmediate)
  double admission_ms = 0.0;  // submit-to-dispatch queueing delay (0 = kImmediate)
  // Set on kResourceExhausted (overload shed): how long the caller should
  // back off before resubmitting. 0 with a shed status means retrying is
  // pointless (e.g. the request's own deadline cannot be met).
  double retry_after_ms = 0.0;

  bool ok() const { return status.ok(); }
};

// Arms `interrupt` with the request's cancellation token and deadline.
// Returns false, leaving `interrupt` untouched, when the request has
// neither — it then runs with no interrupt at all.
bool ArmInterrupt(const QueryRequest& request, ExecInterrupt* interrupt);

// The terminal status of an execution stopped for `cause`.
Status StopStatus(StopCause cause);

// True once `interrupt` (may be null) has stopped or passed its deadline.
bool Expired(const ExecInterrupt* interrupt);

// Installs `interrupt` (may be null) as the calling thread's stop probe for
// the guard's lifetime, so the store and stats layers (ShardedStore::Match,
// posting builds, exact counts) poll its cancellation and deadline.
ScopedStopProbe InstallStopProbe(const ExecInterrupt* interrupt);

}  // namespace specqp

#endif  // SPECQP_CORE_REQUEST_H_
