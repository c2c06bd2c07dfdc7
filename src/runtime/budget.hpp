// Cooperative cancellation for anytime runs.
//
// The FLOW pipeline is best-of-N with monotone per-round improvement, so it
// is naturally *anytime*: stopping early still leaves a valid (best-so-far)
// partition. This header provides the two pieces every stage shares:
//
//  * `Budget` — what the caller is willing to spend: an optional wall-clock
//    deadline plus a deterministic cap on Algorithm-2 rounds. (A smaller
//    `iterations` is the deterministic cap on Algorithm-1 iterations.)
//  * `CancellationToken` — a cheap, thread-safe handle the pipeline polls at
//    deterministic *safepoints* only: between Algorithm-1 outer iterations,
//    between Algorithm-2 scan/commit steps (after a commit, never mid-scan),
//    and between Algorithm-3 carve steps. Because the polls sit at points
//    where the in-flight state is already consistent, a fired token can only
//    truncate work, never corrupt it.
//
// Determinism contract (docs/robustness.md): the round cap is a pure
// function of the inputs, so results under it are bit-identical for every
// thread count. The wall-clock deadline is inherently
// schedule-dependent; when it never fires, results are bit-identical to an
// unbudgeted run (the polls are read-only), and when it fires the result is
// still a valid partition with `stop_reason` reporting why it is partial.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>

namespace htp {

/// Why a budgeted run stopped. Ordered so that the zero value means "no
/// cancellation happened" and a token's fired state can store the reason.
enum class StopReason : std::uint8_t {
  kCompleted = 0,  ///< every requested iteration ran to the end
  kDeadline = 1,   ///< the wall-clock deadline fired
  kCancelled = 2,  ///< an external CancellationToken::Cancel() fired
};

/// Stable lowercase name for CLI / log output ("completed", "deadline",
/// "cancelled").
const char* StopReasonName(StopReason reason);

/// What a run may spend. Default-constructed = unlimited (the pre-anytime
/// behaviour, bit for bit).
struct Budget {
  /// Sentinel for "no wall-clock limit".
  static constexpr double kNoTimeLimit =
      std::numeric_limits<double>::infinity();
  /// Wall-clock budget in seconds, measured from StartBudget(). Zero (or
  /// negative) means "already expired": the pipeline still returns a valid
  /// partition via its floor guarantee, as fast as it can get one.
  double time_budget_seconds = kNoTimeLimit;
  /// Deterministic cap on Algorithm-2 worklist rounds per metric
  /// computation (0 = no extra cap; min'd into FlowInjectionParams::
  /// max_rounds). Results under a cap are a bit-identical function of the
  /// cap for every thread count.
  std::size_t max_rounds = 0;

  bool HasDeadline() const {
    return time_budget_seconds < kNoTimeLimit;
  }
  bool Unlimited() const {
    return !HasDeadline() && max_rounds == 0;
  }
};

/// Shared cancellation handle. Default-constructed tokens are *inert*:
/// Cancelled() is a null-pointer test, so unbudgeted runs pay nothing.
/// Copies share state; firing is one-way (a token never un-cancels).
/// Deadline checks latch: once observed expired, the token stays fired even
/// if the clock were to misbehave. Thread-safe (atomics only, no locks).
class CancellationToken {
 public:
  /// Inert token: never fires, RemainingSeconds() is infinite.
  CancellationToken() = default;

  /// A token that can only be fired explicitly via Cancel().
  static CancellationToken Manual();

  /// A token that fires once `seconds_from_now` elapses (<= 0 = already
  /// expired), and also whenever `parent` fires. Huge values are clamped
  /// so the internal clock arithmetic cannot overflow.
  static CancellationToken WithDeadline(double seconds_from_now,
                                        CancellationToken parent = {});

  /// True once the deadline elapsed, Cancel() was called, or the parent
  /// fired. Safe and cheap to call from any thread, at any rate.
  bool Cancelled() const;

  /// The reason the token fired, or kCompleted while it has not.
  StopReason FiredReason() const;

  /// Fires the token with reason kCancelled (idempotent).
  void Cancel() const;

  /// Seconds until the deadline (clamped at 0), or +infinity when the token
  /// has no deadline of its own. Parent deadlines are not consulted.
  double RemainingSeconds() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Arms `budget`'s wall-clock deadline (if any) starting now, linked to
/// `parent` so an outer cancellation propagates. With no deadline this just
/// returns `parent` — the deterministic caps are enforced by the stages
/// themselves, not by the token.
CancellationToken StartBudget(const Budget& budget,
                              CancellationToken parent = {});

/// Thrown at a safepoint to unwind out of a construction that cannot yield
/// a partial result (Algorithm 3 builds are all-or-nothing). Always caught
/// inside the library — it never escapes RunHtpFlow and friends.
class CancelledError : public std::exception {
 public:
  const char* what() const noexcept override {
    return "htp: cancelled at a safepoint";
  }
};

}  // namespace htp
