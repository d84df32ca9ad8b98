#include "core/request.h"

namespace specqp {

std::string_view StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSpecQp:
      return "Spec-QP";
    case Strategy::kTrinit:
      return "TriniT";
    case Strategy::kNoRelax:
      return "NoRelax";
  }
  return "?";
}

QueryRequest QueryRequest::FromQuery(Query query, size_t k,
                                     Strategy strategy) {
  QueryRequest request;
  request.query = std::move(query);
  request.k = k;
  request.strategy = strategy;
  return request;
}

QueryRequest QueryRequest::FromText(std::string text, size_t k,
                                    Strategy strategy) {
  QueryRequest request;
  request.text = std::move(text);
  request.k = k;
  request.strategy = strategy;
  return request;
}

QueryRequest& QueryRequest::WithTimeout(std::chrono::milliseconds timeout) {
  deadline = std::chrono::steady_clock::now() + timeout;
  return *this;
}

bool ArmInterrupt(const QueryRequest& request, ExecInterrupt* interrupt) {
  if (request.cancel.valid()) interrupt->LinkCancelFlag(request.cancel.flag());
  if (request.deadline.has_value()) interrupt->SetDeadline(*request.deadline);
  return request.cancel.valid() || request.deadline.has_value();
}

bool Expired(const ExecInterrupt* interrupt) {
  return interrupt != nullptr &&
         (interrupt->Stopped() || interrupt->CheckDeadline());
}

ScopedStopProbe InstallStopProbe(const ExecInterrupt* interrupt) {
  return ScopedStopProbe(
      [](const void* ctx) {
        return Expired(static_cast<const ExecInterrupt*>(ctx));
      },
      interrupt);
}

Status StopStatus(StopCause cause) {
  switch (cause) {
    case StopCause::kCancelled:
      return Status::Cancelled("query cancelled");
    case StopCause::kStoreFault:
      return Status::IoError("backing store faulted during execution");
    default:
      return Status::DeadlineExceeded("query deadline exceeded");
  }
}

}  // namespace specqp
