#include "core/spreading_metric.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/paper_examples.hpp"
#include "partition/random_partition.hpp"
#include "runtime/thread_pool.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(SpreadingMetric, Figure2MetricValues) {
  // d(e) = cost(e)/c(e): 0 on intra-cluster edges, 2 on level-0 cuts, 6 on
  // level-1 cuts — exactly the labels of Figure 2(b).
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  TreePartition tp = Figure2OptimalPartition(hg);
  const SpreadingMetric metric = MetricFromPartition(tp, spec);
  std::size_t zeros = 0, twos = 0, sixes = 0;
  for (double d : metric) {
    if (d == 0.0) ++zeros;
    if (d == 2.0) ++twos;
    if (d == 6.0) ++sixes;
  }
  EXPECT_EQ(zeros, 24u);
  EXPECT_EQ(twos, 4u);
  EXPECT_EQ(sixes, 2u);
  EXPECT_DOUBLE_EQ(MetricCost(hg, metric), kFigure2OptimalCost);
}

TEST(SpreadingMetric, Figure2MetricIsFeasible) {
  // Lemma 1 on the worked example.
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  TreePartition tp = Figure2OptimalPartition(hg);
  const SpreadingMetric metric = MetricFromPartition(tp, spec);
  EXPECT_FALSE(CheckSpreadingMetric(hg, spec, metric).has_value());
}

TEST(SpreadingMetric, ZeroMetricViolatedWhenGraphTooBig) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  const SpreadingMetric zero(hg.num_nets(), 0.0);
  const auto violation = CheckSpreadingMetric(hg, spec, zero);
  ASSERT_TRUE(violation.has_value());
  EXPECT_LT(violation->lhs, violation->rhs);
  EXPECT_GT(violation->tree_size, spec.capacity(0));
  // The violating tree must carry at least one net to inject on.
  EXPECT_FALSE(TreeNets(violation->tree).empty());
}

TEST(SpreadingMetric, ZeroMetricFeasibleWhenEverythingFits) {
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_net({0u, 1u, 2u, 3u});
  Hypergraph hg = builder.build();
  HierarchySpec spec({{4.0, 2, 1.0}, {4.0, 2, 1.0}});
  const SpreadingMetric zero(hg.num_nets(), 0.0);
  EXPECT_FALSE(CheckSpreadingMetric(hg, spec, zero).has_value());
}

// Lemma 1 as a property: the metric induced by ANY valid partition of a
// random circuit is feasible for constraint family (5).
class Lemma1PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1PropertyTest, PartitionMetricsAreFeasible) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      24 + seed % 20, 20 + seed % 20, 4, seed);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.25);
  Rng rng(seed * 7 + 5);
  const TreePartition tp = RandomPartition(hg, spec, rng);
  RequireValidPartition(tp, spec);
  const SpreadingMetric metric = MetricFromPartition(tp, spec);
  const auto violation = CheckSpreadingMetric(hg, spec, metric);
  EXPECT_FALSE(violation.has_value())
      << "Lemma 1 violated from source " << violation->source << ": lhs "
      << violation->lhs << " < g = " << violation->rhs;
  // And its metric cost equals the partition cost (Lemma 1's equality).
  EXPECT_NEAR(MetricCost(hg, metric), PartitionCost(tp, spec), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1PropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// What a serial FindViolationFrom sweep from `begin` would commit: the
// reference the scanner's determinism contract is stated against.
struct SweepResult {
  std::size_t index;
  SpreadingViolation violation;
};
std::optional<SweepResult> SerialSweep(ViolationScanner& serial,
                                       const std::vector<NodeId>& candidates,
                                       std::size_t begin,
                                       const SpreadingMetric& metric,
                                       double tolerance) {
  for (std::size_t i = begin; i < candidates.size(); ++i)
    if (auto v = serial.FindViolationFrom(candidates[i], metric, tolerance))
      return SweepResult{i, std::move(*v)};
  return std::nullopt;
}

class ViolationScannerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ViolationScannerTest, MatchesSerialSweepOnEveryCursor) {
  // 80 nodes clears the scanner's small-graph serial fallback, so the
  // GetParam() = 2 / 8 instances genuinely scan in parallel.
  Hypergraph hg = testutil::RandomConnectedHypergraph(80, 100, 4, 42);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  std::vector<NodeId> candidates(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) candidates[v] = v;
  Rng rng(11);
  rng.shuffle(candidates);

  // A uniformly short metric violates from many sources; scaling it up
  // sweeps the hit across the candidate list and eventually to "feasible".
  ViolationScanner scanner(hg, spec, GetParam());
  ViolationScanner serial(hg, spec, 1);
  for (double scale : {0.001, 0.01, 0.1, 1.0, 100.0}) {
    const SpreadingMetric metric(hg.num_nets(), scale);
    for (std::size_t begin : {std::size_t{0}, std::size_t{17},
                              candidates.size() - 1, candidates.size()}) {
      SCOPED_TRACE(testing::Message() << "scale " << scale << " begin "
                                      << begin);
      const auto expect =
          SerialSweep(serial, candidates, begin, metric, 1e-7);
      const auto hit = scanner.FindFirstViolation(candidates, begin, metric,
                                                  1e-7);
      ASSERT_EQ(expect.has_value(), hit.has_value());
      if (!expect) continue;
      EXPECT_EQ(hit->index, expect->index);
      EXPECT_EQ(hit->source, expect->violation.source);
      EXPECT_EQ(hit->tree_nodes, expect->violation.tree_nodes);
      EXPECT_EQ(hit->tree_size, expect->violation.tree_size);  // bitwise
      EXPECT_EQ(hit->lhs, expect->violation.lhs);
      EXPECT_EQ(hit->rhs, expect->violation.rhs);
      const std::vector<NetId> expect_nets = TreeNets(expect->violation.tree);
      EXPECT_TRUE(std::equal(hit->tree_nets.begin(), hit->tree_nets.end(),
                             expect_nets.begin(), expect_nets.end()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ViolationScannerTest,
                         ::testing::Values(1, 2, 8));

TEST(ViolationScanner, FeasibleMetricReturnsNullopt) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  const SpreadingMetric metric =
      MetricFromPartition(Figure2OptimalPartition(hg), spec);
  std::vector<NodeId> candidates(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) candidates[v] = v;
  ViolationScanner scanner(hg, spec, 4);
  EXPECT_FALSE(
      scanner.FindFirstViolation(candidates, 0, metric, 1e-7).has_value());
}

TEST(ViolationScanner, SmallGraphAndNestedConstructionDegradeToSerial) {
  Hypergraph hg = Figure2Graph();  // well under the parallel threshold
  const HierarchySpec spec = Figure2Spec();
  ViolationScanner small(hg, spec, 8);
  EXPECT_EQ(small.workers(), 1u);
  // Constructed inside a pool worker: the nested-parallelism guard forces
  // serial regardless of the requested count.
  Hypergraph big = testutil::RandomConnectedHypergraph(80, 100, 4, 42);
  const HierarchySpec big_spec = FullBinaryHierarchy(big.total_size(), 3, 0.2);
  std::size_t nested_workers = 99;
  ThreadPool pool(2);
  ParallelFor(pool, 1, [&](std::size_t) {
    ViolationScanner nested(big, big_spec, 8);
    nested_workers = nested.workers();
  });
  EXPECT_EQ(nested_workers, 1u);
  ViolationScanner outer(big, big_spec, 8);
  EXPECT_EQ(outer.workers(), 8u);
}

}  // namespace
}  // namespace htp
