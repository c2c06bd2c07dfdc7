// The anytime contract of the FLOW driver (docs/robustness.md):
//  * an unlimited budget reproduces the unbudgeted run bit for bit;
//  * deterministic caps (max_iterations, max_rounds) equal a prefix /
//    reparameterization of the uncapped run, identically for every thread
//    count;
//  * a fired deadline — even one that is pre-expired — still yields a
//    *valid* best-so-far partition with completed=false and the right
//    stop_reason;
//  * the baselines and refiner degrade instead of failing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/htp_flow.hpp"
#include "partition/gfm.hpp"
#include "partition/htp_fm.hpp"
#include "partition/rfm.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

Hypergraph TestCircuit() {
  return testutil::RandomConnectedHypergraph(48, 64, 3, 11);
}

HtpFlowParams BaseParams(std::size_t threads = 1) {
  HtpFlowParams params;
  params.iterations = 4;
  params.seed = 77;
  params.threads = threads;
  return params;
}

void ExpectSamePartition(const HtpFlowResult& a, const HtpFlowResult& b,
                         const Hypergraph& hg) {
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    ASSERT_EQ(a.partition.leaf_of(v), b.partition.leaf_of(v)) << "node " << v;
}

TEST(HtpFlowBudget, UnlimitedBudgetIsBitIdenticalToDefault) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  const HtpFlowResult plain = RunHtpFlow(hg, spec, BaseParams());

  HtpFlowParams budgeted = BaseParams();
  budgeted.budget = Budget{};  // explicit unlimited
  const HtpFlowResult result = RunHtpFlow(hg, spec, budgeted);

  ExpectSamePartition(plain, result, hg);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(result.iterations.size(), 4u);
}

TEST(HtpFlowBudget, HugeDeadlineNeverFiresAndChangesNothing) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  const HtpFlowResult plain = RunHtpFlow(hg, spec, BaseParams());

  HtpFlowParams budgeted = BaseParams();
  budgeted.budget.time_budget_seconds = 1e6;
  const HtpFlowResult result = RunHtpFlow(hg, spec, budgeted);

  ExpectSamePartition(plain, result, hg);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kCompleted);
}

TEST(HtpFlowBudget, IterationCapEqualsPrefixOfUncappedRun) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  const HtpFlowResult full = RunHtpFlow(hg, spec, BaseParams());

  HtpFlowParams capped = BaseParams();
  capped.budget.max_iterations = 2;
  const HtpFlowResult result = RunHtpFlow(hg, spec, capped);

  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kIterationCap);
  ASSERT_EQ(result.iterations.size(), 2u);
  // Pre-forked streams make the capped run the uncapped run's prefix.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(result.iterations[i].metric_cost,
                     full.iterations[i].metric_cost);
    EXPECT_DOUBLE_EQ(result.iterations[i].best_partition_cost,
                     full.iterations[i].best_partition_cost);
    EXPECT_EQ(result.iterations[i].injections, full.iterations[i].injections);
  }
  // And the winner is the best of that prefix.
  double best = result.iterations[0].best_partition_cost;
  for (const HtpFlowIteration& it : result.iterations)
    best = std::min(best, it.best_partition_cost);
  EXPECT_DOUBLE_EQ(result.cost, best);
  RequireValidPartition(result.partition, spec);
}

TEST(HtpFlowBudget, IterationCapAtOrAboveNIsANoOp) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  const HtpFlowResult full = RunHtpFlow(hg, spec, BaseParams());

  HtpFlowParams capped = BaseParams();
  capped.budget.max_iterations = 9;  // above iterations=4
  const HtpFlowResult result = RunHtpFlow(hg, spec, capped);
  ExpectSamePartition(full, result, hg);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kCompleted);
}

TEST(HtpFlowBudget, IterationCapIsBitIdenticalAcrossThreadCounts) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  HtpFlowParams capped = BaseParams(1);
  capped.budget.max_iterations = 3;
  const HtpFlowResult serial = RunHtpFlow(hg, spec, capped);
  for (std::size_t threads : {2u, 8u}) {
    capped.threads = threads;
    const HtpFlowResult parallel = RunHtpFlow(hg, spec, capped);
    SCOPED_TRACE(threads);
    ExpectSamePartition(serial, parallel, hg);
    EXPECT_EQ(parallel.stop_reason, StopReason::kIterationCap);
  }
}

TEST(HtpFlowBudget, RoundCapIsDeterministicAndMatchesInjectionCap) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);

  // Budget-capping the rounds must equal setting the injection round cap
  // directly — it is the same deterministic knob, min'd in.
  HtpFlowParams via_budget = BaseParams();
  via_budget.budget.max_rounds = 3;
  const HtpFlowResult a = RunHtpFlow(hg, spec, via_budget);

  HtpFlowParams via_injection = BaseParams();
  via_injection.injection.max_rounds = 3;
  const HtpFlowResult b = RunHtpFlow(hg, spec, via_injection);

  ExpectSamePartition(a, b, hg);
  // A parameter change, not a cancellation: the run still completes.
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.stop_reason, StopReason::kCompleted);
  RequireValidPartition(a.partition, spec);

  // And it is thread-count invariant like everything deterministic.
  via_budget.threads = 8;
  const HtpFlowResult c = RunHtpFlow(hg, spec, via_budget);
  ExpectSamePartition(a, c, hg);
}

TEST(HtpFlowBudget, ZeroDeadlineStillReturnsAValidPartition) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    HtpFlowParams params = BaseParams(threads);
    params.budget.time_budget_seconds = 0.0;
    const HtpFlowResult result = RunHtpFlow(hg, spec, params);
    // The floor guarantee: iteration 0's first construction completed.
    RequireValidPartition(result.partition, spec);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
    EXPECT_GE(result.iterations.size(), 1u);
    EXPECT_GT(result.cost, 0.0);
  }
}

TEST(HtpFlowBudget, ExternalManualTokenReportsCancelled) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  HtpFlowParams params = BaseParams();
  params.cancel = CancellationToken::Manual();
  params.cancel.Cancel();  // fired before the run even starts
  const HtpFlowResult result = RunHtpFlow(hg, spec, params);
  RequireValidPartition(result.partition, spec);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

TEST(HtpFlowBudget, InjectionReportsCancelledMetric) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  FlowInjectionParams params;
  params.seed = 5;
  params.cancel = CancellationToken::WithDeadline(0.0);
  const FlowInjectionResult result = ComputeSpreadingMetric(hg, spec, params);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.injections, 0u);
  // The metric is still a usable (epsilon-initialized) length vector.
  ASSERT_EQ(result.metric.size(), hg.num_nets());
  for (NetId e = 0; e < hg.num_nets(); ++e)
    EXPECT_GT(result.metric[e], 0.0);
}

TEST(HtpFlowBudget, PairPathInjectionHonorsTheToken) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  FlowInjectionParams params;
  params.seed = 5;
  params.cancel = CancellationToken::WithDeadline(0.0);
  const FlowInjectionResult result =
      ComputePairPathSpreadingMetric(hg, spec, params);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.converged);
}

TEST(HtpFlowBudget, BuildPartitionThrowsCancelledErrorOnFiredToken) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  const SpreadingMetric zero(hg.num_nets(), 0.0);
  const CarveFn carve = [](const Hypergraph& sub, std::span<const double>,
                           double lb, double ub, Rng& rng) {
    return MetricFindCut(sub, std::vector<double>(sub.num_nets(), 0.0), lb,
                         ub, rng);
  };
  Rng rng(3);
  const CancellationToken fired = CancellationToken::WithDeadline(0.0);
  EXPECT_THROW(BuildPartitionTopDown(hg, spec, zero, carve, rng, fired),
               CancelledError);
  // An inert token builds fine.
  Rng rng2(3);
  const TreePartition tp = BuildPartitionTopDown(hg, spec, zero, carve, rng2);
  RequireValidPartition(tp, spec);
}

TEST(HtpFlowBudget, BaselinesStayValidUnderAFiredToken) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);

  RfmParams rfm;
  rfm.seed = 9;
  rfm.cancel = CancellationToken::WithDeadline(0.0);
  RequireValidPartition(RunRfm(hg, spec, rfm), spec);

  GfmParams gfm;
  gfm.seed = 9;
  gfm.cancel = CancellationToken::WithDeadline(0.0);
  RequireValidPartition(RunGfm(hg, spec, gfm), spec);
}

TEST(HtpFlowBudget, RefinerStopsBetweenPassesAndNeverWorsens) {
  const Hypergraph hg = TestCircuit();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  RfmParams rfm;
  rfm.seed = 9;
  TreePartition tp = RunGfm(hg, spec, {9});
  const double before = PartitionCost(tp, spec);

  HtpFmParams params;
  params.seed = 9;
  params.cancel = CancellationToken::WithDeadline(0.0);
  const HtpFmStats stats = RefineHtpFm(tp, spec, params);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.passes, 0u);  // pre-expired: not a single pass ran
  EXPECT_DOUBLE_EQ(stats.final_cost, before);
  RequireValidPartition(tp, spec);

  // Unfired token: identical to no token at all.
  HtpFmParams free_params;
  free_params.seed = 9;
  TreePartition tp2 = RunGfm(hg, spec, {9});
  const HtpFmStats free_stats = RefineHtpFm(tp2, spec, free_params);
  EXPECT_TRUE(free_stats.completed);
  EXPECT_LE(free_stats.final_cost, before);
}

}  // namespace
}  // namespace htp
