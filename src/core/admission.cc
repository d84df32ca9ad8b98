#include "core/admission.h"

#include <algorithm>

#include "core/batch_executor.h"
#include "core/engine.h"
#include "util/logging.h"

namespace specqp {

namespace {

// The longest an open window waits for more requests, in milliseconds.
double MaxDelayMs(const EngineOptions& options) {
  return std::max(0.0, options.admission_max_delay_ms);
}

}  // namespace

AdmissionController::AdmissionController(Engine* engine) : engine_(engine) {
  SPECQP_CHECK(engine_ != nullptr);
  const int num_slots = engine_->num_threads();
  slots_.reserve(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) {
    slots_.emplace_back([this] { SlotLoop(); });
  }
}

AdmissionController::~AdmissionController() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& slot : slots_) slot.join();
  // A slot exits only once both queues are empty, and a window it took is
  // served before it looks again, so no promise is ever abandoned.
}

bool AdmissionController::QueueFullLocked() const {
  const size_t cap = engine_->options().admission_max_queue;
  return cap > 0 && queued_ >= cap;
}

std::future<QueryResponse> AdmissionController::Submit(QueryRequest request) {
  const EngineOptions& options = engine_->options();
  // Submit-time terminations complete the future immediately, without
  // touching the window state. Overload sheds additionally charge their
  // own Stats counter (they still count as rejected_at_submit, so the
  // submitted/rejected ledger stays a partition of all Submit calls).
  auto reject = [this](QueryResponse response,
                       uint64_t Stats::*shed_counter = nullptr) {
    {
      MutexLock lock(mu_);
      ++stats_.rejected_at_submit;
      if (shed_counter != nullptr) {
        ++(stats_.*shed_counter);
      } else if (response.status.code() == StatusCode::kCancelled) {
        ++stats_.cancelled;
      } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      }
    }
    std::promise<QueryResponse> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
  };
  auto shed_queue_full = [&](QueryResponse response) {
    response.status = Status::ResourceExhausted("admission queue full");
    response.retry_after_ms = std::max(0.0, options.admission_retry_after_ms);
    return reject(std::move(response), &Stats::shed_queue_full);
  };

  // Queue-depth shedding happens before parsing: overload protection must
  // be cheaper than the work it sheds.
  bool full = false;
  if (options.admission_max_queue > 0) {
    MutexLock lock(mu_);
    full = QueueFullLocked();
  }
  QueryResponse response;
  if (full) {
    response.tag = request.tag;
    response.strategy = request.strategy;
    response.k = request.k;
    return shed_queue_full(std::move(response));
  }
  // Parses on the submitting thread (fail fast; the dictionary is
  // read-only after Finalize, so concurrent parses are safe).
  Query parsed;
  const Query* query = engine_->Resolve(request, &parsed, &response);
  if (query == nullptr) return reject(std::move(response));
  // A cancelled token or a dead-on-arrival deadline terminates now rather
  // than stalling in a window that may not close for a long max_delay.
  auto interrupt = std::make_unique<ExecInterrupt>();
  if (!ArmInterrupt(request, interrupt.get())) interrupt.reset();
  if (Expired(interrupt.get())) {
    response.status = StopStatus(interrupt->cause());
    return reject(std::move(response));
  }
  // Deadline-aware shedding: a deadline that cannot outlast the configured
  // window delay would only be DOA'd at dispatch. Shed it now so the
  // caller learns immediately; retry_after_ms stays 0 because resubmitting
  // the same deadline cannot help.
  if (options.admission_deadline_shed && request.deadline.has_value() &&
      *request.deadline <
          std::chrono::steady_clock::now() +
              std::chrono::duration<double, std::milli>(MaxDelayMs(options))) {
    response.status = Status::ResourceExhausted(
        "deadline shorter than the admission window delay");
    return reject(std::move(response), &Stats::shed_deadline);
  }

  Pending pending;
  pending.query = query == &parsed ? std::move(parsed)
                                   : std::move(*request.query);
  request.query.reset();
  pending.interrupt = std::move(interrupt);
  pending.request = std::move(request);
  std::future<QueryResponse> future = pending.promise.get_future();

  const WindowKey key{pending.request.k,
                      static_cast<int>(pending.request.strategy)};
  bool wake_slot = false;
  {
    MutexLock lock(mu_);
    // Checked again where the slot is taken: concurrent submitters may all
    // have passed the early check before any of them enqueued.
    full = QueueFullLocked();
    if (!full) {
      ++stats_.submitted;
      ++queued_;  // balanced in DispatchWindow, once fulfilled
      Window& window = open_[key];
      if (window.pending.empty()) {
        window.id = ++next_window_id_;
        window.age.Reset();
        wake_slot = true;  // a free slot takes it, at once or when due
      }
      window.pending.push_back(std::move(pending));
      if (window.pending.size() >= options.admission_max_batch) {
        auto node = open_.extract(key);
        CloseWindowLocked(key, std::move(node.mapped()),
                          &Stats::closed_on_size);
        wake_slot = true;
      }
    }
  }
  if (full) return shed_queue_full(std::move(response));
  // One new unit of work needs one free slot; a busy slot looks again
  // when its window is served.
  if (wake_slot) cv_.NotifyOne();
  return future;
}

void AdmissionController::CloseWindowLocked(const WindowKey& key,
                                            Window window,
                                            uint64_t Stats::*counter) {
  if (window.pending.empty() || window.close_accounted) return;
  window.close_accounted = true;  // charged exactly once per window id
  ++(stats_.*counter);
  closed_.emplace_back(key, std::move(window));
}

void AdmissionController::Flush() {
  {
    MutexLock lock(mu_);
    for (auto& [key, window] : open_) {
      CloseWindowLocked(key, std::move(window), &Stats::closed_on_flush);
    }
    open_.clear();
  }
  cv_.NotifyAll();
}

AdmissionController::Stats AdmissionController::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::map<AdmissionController::WindowKey, AdmissionController::Window>::iterator
AdmissionController::OldestOpenLocked() {
  auto oldest = open_.end();
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (oldest == open_.end() || it->second.id < oldest->second.id) {
      oldest = it;
    }
  }
  return oldest;
}

void AdmissionController::SlotLoop() {
  // Explicit Lock/Unlock so the thread-safety analysis follows the lock
  // being dropped around DispatchWindow (which must run unlocked: it
  // executes queries and takes mu_ itself for stats).
  mu_.Lock();
  while (true) {
    // Nothing closed is waiting: close the oldest open window if it has
    // waited out the delay.
    const double max_delay_ms = MaxDelayMs(engine_->options());
    auto oldest = OldestOpenLocked();
    if (closed_.empty() && oldest != open_.end() &&
        oldest->second.age.ElapsedMillis() >= max_delay_ms) {
      CloseWindowLocked(oldest->first, std::move(oldest->second),
                        &Stats::closed_on_delay);
      open_.erase(oldest);
      oldest = open_.end();
    }

    if (!closed_.empty()) {
      auto [key, window] = std::move(closed_.front());
      closed_.pop_front();
      ++stats_.windows_dispatched;
      stats_.max_window_size =
          std::max(stats_.max_window_size, window.pending.size());
      // If work remains, wake another slot to look at it: Submit's one
      // wake-up per window may have reached this slot, or one that went
      // back to sleep on an older window's delay.
      if (!closed_.empty() || !open_.empty()) cv_.NotifyOne();
      mu_.Unlock();
      DispatchWindow(key, std::move(window));
      mu_.Lock();
      continue;
    }

    if (stop_) {
      // Shutdown drain: close whatever is still open and loop once more;
      // the slot exits once both queues are empty.
      if (open_.empty()) break;
      for (auto& [key, window] : open_) {
        CloseWindowLocked(key, std::move(window), &Stats::closed_on_flush);
      }
      open_.clear();
      continue;
    }

    if (oldest == open_.end()) {
      while (!stop_ && closed_.empty() && open_.empty()) cv_.Wait(mu_);
    } else {
      // Sleep until the oldest window's delay expires (or new work).
      const double remaining_ms =
          std::max(0.0, max_delay_ms - oldest->second.age.ElapsedMillis());
      cv_.WaitFor(mu_, std::chrono::duration<double, std::milli>(
                           remaining_ms + 0.05));
    }
  }
  mu_.Unlock();
}

void AdmissionController::DispatchWindow(WindowKey key, Window window) {
  std::vector<Query> queries;
  std::vector<const ExecInterrupt*> interrupts;
  for (Pending& pending : window.pending) {
    // Queueing delay ends here, before any execution happens.
    pending.admission_ms = pending.queued.ElapsedMillis();
    queries.push_back(std::move(pending.query));
    interrupts.push_back(pending.interrupt.get());
  }
  BatchStats batch_stats;
  std::vector<QueryResponse> responses =
      engine_->ServeWindow(key.first, static_cast<Strategy>(key.second),
                           queries, interrupts, &batch_stats);

  {
    MutexLock lock(mu_);
    stats_.batched_queries += batch_stats.batch_size;
    stats_.shared_scan_hits += batch_stats.shared_scan_hits;
    // Every pending request in this window is fulfilled below; release
    // their queue slots so shedding sees the post-dispatch depth.
    SPECQP_DCHECK(queued_ >= window.pending.size());
    queued_ -= std::min(queued_, window.pending.size());
    for (const QueryResponse& response : responses) {
      if (response.status.code() == StatusCode::kCancelled) {
        ++stats_.cancelled;
      } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      }
    }
  }

  for (size_t i = 0; i < window.pending.size(); ++i) {
    Pending& pending = window.pending[i];
    QueryResponse& response = responses[i];
    response.tag = std::move(pending.request.tag);
    response.window_size = window.pending.size();
    response.admission_ms = pending.admission_ms;
    pending.promise.set_value(std::move(response));
  }
}

}  // namespace specqp
