#include "runtime/budget.hpp"

#include <algorithm>

namespace htp {
namespace {

using Clock = std::chrono::steady_clock;

// Deadlines beyond ~30 years would overflow steady_clock's nanosecond
// arithmetic; nobody means them literally, so clamp.
constexpr double kMaxDeadlineSeconds = 1e9;

}  // namespace

// `fired` holds 0 while live, else the StopReason that fired it. Stores
// race benignly (deadline vs. explicit cancel can both win; either reason
// is true), which is why relaxed atomics suffice.
struct CancellationToken::State {
  std::atomic<std::uint8_t> fired{0};
  bool has_deadline = false;
  Clock::time_point deadline{};
  std::shared_ptr<State> parent;

  bool CheckFired() {
    std::uint8_t f = fired.load(std::memory_order_relaxed);
    if (f != 0) return true;
    if (has_deadline && Clock::now() >= deadline) {
      fired.store(static_cast<std::uint8_t>(StopReason::kDeadline),
                  std::memory_order_relaxed);
      return true;
    }
    if (parent && parent->CheckFired()) {
      // Latch the parent's reason locally so FiredReason() stays O(1).
      fired.store(parent->fired.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

CancellationToken CancellationToken::Manual() {
  CancellationToken token;
  token.state_ = std::make_shared<State>();
  return token;
}

CancellationToken CancellationToken::WithDeadline(double seconds_from_now,
                                                  CancellationToken parent) {
  CancellationToken token;
  token.state_ = std::make_shared<State>();
  token.state_->has_deadline = true;
  const double clamped =
      std::clamp(seconds_from_now, 0.0, kMaxDeadlineSeconds);
  token.state_->deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(clamped));
  token.state_->parent = parent.state_;
  return token;
}

bool CancellationToken::Cancelled() const {
  return state_ != nullptr && state_->CheckFired();
}

StopReason CancellationToken::FiredReason() const {
  if (!Cancelled()) return StopReason::kCompleted;
  return static_cast<StopReason>(
      state_->fired.load(std::memory_order_relaxed));
}

void CancellationToken::Cancel() const {
  if (!state_) return;
  std::uint8_t expected = 0;
  state_->fired.compare_exchange_strong(
      expected, static_cast<std::uint8_t>(StopReason::kCancelled),
      std::memory_order_relaxed);
}

double CancellationToken::RemainingSeconds() const {
  if (!state_ || !state_->has_deadline)
    return std::numeric_limits<double>::infinity();
  const double remaining =
      std::chrono::duration<double>(state_->deadline - Clock::now()).count();
  return std::max(remaining, 0.0);
}

CancellationToken StartBudget(const Budget& budget, CancellationToken parent) {
  if (!budget.HasDeadline()) return parent;
  return CancellationToken::WithDeadline(budget.time_budget_seconds, parent);
}

}  // namespace htp
