#include "partition/htp_fm.hpp"

#include <gtest/gtest.h>

#include "core/paper_examples.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "partition/random_partition.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

std::uint64_t MovesApplied() {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == "fm.moves_applied") return c.value;
  return 0;
}

TEST(HtpFm, FixesASingleMisplacedNode) {
  Hypergraph hg = Figure2Graph();
  // Figure 2's exact capacities (C0 = 4 with 4-node leaves) leave no
  // headroom for single-node moves; refinement needs the slack real
  // hierarchies have. One spare slot per block suffices for the swap.
  HierarchySpec spec({{5.0, 2, 1.0}, {9.0, 2, 2.0}, {16.0, 2, 1.0}});
  TreePartition tp = Figure2OptimalPartition(hg);
  // Swap nodes 0 and 15 across the hierarchy: strictly worse than optimal.
  const BlockId leaf_a = tp.leaf_of(0);
  const BlockId leaf_d = tp.leaf_of(15);
  tp.MoveNode(0, leaf_d);
  tp.MoveNode(15, leaf_a);
  const double scrambled = PartitionCost(tp, spec);
  ASSERT_GT(scrambled, kFigure2OptimalCost);

  const HtpFmStats stats = RefineHtpFm(tp, spec);
  RequireValidPartition(tp, spec);
  EXPECT_DOUBLE_EQ(stats.initial_cost, scrambled);
  EXPECT_DOUBLE_EQ(stats.final_cost, kFigure2OptimalCost);
  EXPECT_DOUBLE_EQ(PartitionCost(tp, spec), kFigure2OptimalCost);
}

TEST(HtpFm, ReportedCostsMatchReality) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(50, 70, 4, 31);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.25);
  Rng rng(31);
  TreePartition tp = RandomPartition(hg, spec, rng);
  const double before = PartitionCost(tp, spec);
  const HtpFmStats stats = RefineHtpFm(tp, spec);
  EXPECT_EQ(stats.initial_cost, before);
  EXPECT_EQ(stats.final_cost, PartitionCost(tp, spec));
}

TEST(HtpFm, FinalCostIsTheReturnedPartitionsCost) {
  // Fractional net capacities and level weights: summed pass gains round
  // differently from a from-scratch Equation (1), so the reported cost must
  // be the returned partition's own cost, not the initial cost minus gains.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Hypergraph hg = testutil::WithFractionalCapacities(
        testutil::RandomConnectedHypergraph(60, 80, 4, seed), seed);
    const HierarchySpec spec = testutil::FractionalWeightHierarchy(
        hg.total_size(), 2 + static_cast<Level>(seed % 3));
    Rng rng(seed);
    TreePartition tp = RandomPartition(hg, spec, rng);
    const HtpFmStats stats = RefineHtpFm(tp, spec);
    EXPECT_GT(stats.moves_kept, 0u) << "seed " << seed;
    EXPECT_EQ(stats.final_cost, PartitionCost(tp, spec)) << "seed " << seed;
  }
}

TEST(HtpFm, PassStopsWithinTheWindow) {
  // On a converged partition of a 5,000-node circuit no move improves, so
  // the one pass ends after 300 applied moves, not after moving every node.
  RentCircuitParams rent;
  rent.num_gates = 5000;
  rent.num_primary_inputs = 200;
  const Hypergraph hg = RentCircuit(rent);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  Rng rng(5);
  TreePartition tp = RandomPartition(hg, spec, rng);
  while (RefineHtpFm(tp, spec).moves_kept > 0) {
  }
  const auto leaves = [&] {
    std::vector<BlockId> leaf_of(hg.num_nodes());
    for (NodeId v = 0; v < hg.num_nodes(); ++v) leaf_of[v] = tp.leaf_of(v);
    return leaf_of;
  };
  const std::vector<BlockId> converged = leaves();
  const std::uint64_t applied_before = MovesApplied();
  const HtpFmStats stats = RefineHtpFm(tp, spec);
  EXPECT_LE(MovesApplied() - applied_before, 300u);
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.moves_kept, 0u);
  EXPECT_EQ(leaves(), converged);
  EXPECT_EQ(stats.final_cost, stats.initial_cost);
}

TEST(HtpFm, RequiresCompletePartition) {
  Hypergraph hg = Figure2Graph();
  TreePartition tp(hg, 2);
  EXPECT_THROW(RefineHtpFm(tp, Figure2Spec()), Error);
}

// The paper's Table 3 property: FM improvement never makes a constructive
// solution worse, and preserves validity, for all three kinds of initial
// partitions and across random instances.
class HtpFmPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HtpFmPropertyTest, NeverWorsensAndStaysValid) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      30 + seed % 50, 40 + seed % 50, 2 + seed % 4, seed);
  const HierarchySpec spec =
      FullBinaryHierarchy(hg.total_size(), 2 + seed % 3, 0.25);
  Rng rng(seed ^ 0x1234);
  TreePartition tp = RandomPartition(hg, spec, rng);
  const double before = PartitionCost(tp, spec);
  const HtpFmStats stats = RefineHtpFm(tp, spec);
  RequireValidPartition(tp, spec);
  EXPECT_LE(stats.final_cost, before + 1e-9);
  EXPECT_EQ(stats.final_cost, PartitionCost(tp, spec));
  EXPECT_GE(stats.passes, 1u);
}

TEST_P(HtpFmPropertyTest, IdempotentAtConvergence) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(25, 35, 3, seed * 11);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.3);
  Rng rng(seed);
  TreePartition tp = RandomPartition(hg, spec, rng);
  (void)RefineHtpFm(tp, spec);
  const double converged = PartitionCost(tp, spec);
  const HtpFmStats again = RefineHtpFm(tp, spec);
  EXPECT_NEAR(again.final_cost, converged, 1e-9);
  EXPECT_EQ(again.moves_kept, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtpFmPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace htp
