// Unit coverage of the cooperative-cancellation primitives: inert default
// tokens, manual firing, deadline latching, parent propagation, budget
// arming, and the stop-reason names the CLI prints.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/budget.hpp"

namespace htp {
namespace {

TEST(Budget, DefaultIsUnlimited) {
  const Budget budget;
  EXPECT_FALSE(budget.HasDeadline());
  EXPECT_TRUE(budget.Unlimited());
}

TEST(Budget, AnyKnobMakesItLimited) {
  Budget deadline;
  deadline.time_budget_seconds = 5.0;
  EXPECT_TRUE(deadline.HasDeadline());
  EXPECT_FALSE(deadline.Unlimited());

  Budget rounds;
  rounds.max_rounds = 10;
  EXPECT_FALSE(rounds.HasDeadline());
  EXPECT_FALSE(rounds.Unlimited());
}

TEST(CancellationToken, DefaultTokenIsInertForever) {
  const CancellationToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_EQ(token.FiredReason(), StopReason::kCompleted);
  EXPECT_EQ(token.RemainingSeconds(),
            std::numeric_limits<double>::infinity());
  token.Cancel();  // no state: a no-op, not a crash
  EXPECT_FALSE(token.Cancelled());
}

TEST(CancellationToken, ManualTokenFiresOnCancel) {
  const CancellationToken token = CancellationToken::Manual();
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.FiredReason(), StopReason::kCancelled);
  token.Cancel();  // idempotent
  EXPECT_EQ(token.FiredReason(), StopReason::kCancelled);
}

TEST(CancellationToken, CopiesShareState) {
  const CancellationToken token = CancellationToken::Manual();
  const CancellationToken copy = token;
  token.Cancel();
  EXPECT_TRUE(copy.Cancelled());
}

TEST(CancellationToken, ZeroDeadlineIsAlreadyExpired) {
  const CancellationToken token = CancellationToken::WithDeadline(0.0);
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.FiredReason(), StopReason::kDeadline);
  EXPECT_EQ(token.RemainingSeconds(), 0.0);
}

TEST(CancellationToken, NegativeDeadlineBehavesLikeZero) {
  const CancellationToken token = CancellationToken::WithDeadline(-3.0);
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.FiredReason(), StopReason::kDeadline);
}

TEST(CancellationToken, HugeDeadlineDoesNotFire) {
  const CancellationToken token = CancellationToken::WithDeadline(1e18);
  EXPECT_FALSE(token.Cancelled());
  EXPECT_GT(token.RemainingSeconds(), 1e6);
}

TEST(CancellationToken, DeadlineFiresAndLatches) {
  const CancellationToken token = CancellationToken::WithDeadline(0.01);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!token.Cancelled() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(token.Cancelled());
  EXPECT_EQ(token.FiredReason(), StopReason::kDeadline);
  EXPECT_EQ(token.RemainingSeconds(), 0.0);
}

TEST(CancellationToken, ParentCancellationPropagates) {
  const CancellationToken parent = CancellationToken::Manual();
  const CancellationToken child =
      CancellationToken::WithDeadline(1e6, parent);
  EXPECT_FALSE(child.Cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.Cancelled());
  EXPECT_EQ(child.FiredReason(), StopReason::kCancelled);
}

TEST(CancellationToken, ChildDeadlineDoesNotFireParent) {
  const CancellationToken parent = CancellationToken::Manual();
  const CancellationToken child = CancellationToken::WithDeadline(0.0, parent);
  EXPECT_TRUE(child.Cancelled());
  EXPECT_FALSE(parent.Cancelled());
}

TEST(StartBudget, NoDeadlineReturnsParentUnchanged) {
  Budget rounds_only;
  rounds_only.max_rounds = 7;
  const CancellationToken inert = StartBudget(rounds_only);
  EXPECT_FALSE(inert.Cancelled());
  inert.Cancel();  // still the inert default token
  EXPECT_FALSE(inert.Cancelled());

  const CancellationToken parent = CancellationToken::Manual();
  const CancellationToken linked = StartBudget(rounds_only, parent);
  parent.Cancel();
  EXPECT_TRUE(linked.Cancelled());
}

TEST(StartBudget, DeadlineBudgetArmsAToken) {
  Budget budget;
  budget.time_budget_seconds = 0.0;
  const CancellationToken token = StartBudget(budget);
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.FiredReason(), StopReason::kDeadline);
}

TEST(StopReason, NamesMatchTheCliContract) {
  EXPECT_STREQ(StopReasonName(StopReason::kCompleted), "completed");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
}

}  // namespace
}  // namespace htp
