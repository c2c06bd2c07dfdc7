#include <gtest/gtest.h>

#include "core/paper_examples.hpp"
#include "partition/gfm.hpp"
#include "partition/random_partition.hpp"
#include "partition/rfm.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(Rfm, SolvesFigure2Reasonably) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  RfmParams params;
  params.seed = 5;
  const TreePartition tp = RunRfm(hg, spec, params);
  RequireValidPartition(tp, spec);
  // FM min-cut carving should find the cluster structure here.
  EXPECT_LE(PartitionCost(tp, spec), 2.0 * kFigure2OptimalCost);
}

TEST(Gfm, SolvesFigure2Reasonably) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  GfmParams params;
  params.seed = 5;
  const TreePartition tp = RunGfm(hg, spec, params);
  RequireValidPartition(tp, spec);
  EXPECT_LE(PartitionCost(tp, spec), 2.0 * kFigure2OptimalCost);
}

TEST(Baselines, BeatRandomOnClusteredCircuit) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(96, 140, 3, 8);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.15);
  Rng rng(17);
  const double random_cost =
      PartitionCost(RandomPartition(hg, spec, rng), spec);
  const double rfm_cost = PartitionCost(RunRfm(hg, spec, {2}), spec);
  const double gfm_cost = PartitionCost(RunGfm(hg, spec, {2}), spec);
  EXPECT_LT(rfm_cost, random_cost);
  EXPECT_LT(gfm_cost, random_cost);
}

TEST(RandomPartition, ValidAndDeterministic) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(64, 70, 4, 5);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.3);
  Rng rng_a(7);
  Rng rng_b(7);
  const TreePartition a = RandomPartition(hg, spec, rng_a);
  const TreePartition b = RandomPartition(hg, spec, rng_b);
  RequireValidPartition(a, spec);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    EXPECT_EQ(a.leaf_of(v), b.leaf_of(v));
}

class BaselinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselinePropertyTest, RfmPartitionsAreValid) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      40 + seed % 60, 50 + seed % 60, 2 + seed % 4, seed);
  const HierarchySpec spec =
      FullBinaryHierarchy(hg.total_size(), 2 + seed % 3, 0.2);
  RfmParams params;
  params.seed = seed;
  const TreePartition tp = RunRfm(hg, spec, params);
  RequireValidPartition(tp, spec);
}

TEST_P(BaselinePropertyTest, GfmPartitionsAreValid) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      40 + seed % 60, 50 + seed % 60, 2 + seed % 4, seed ^ 0xbeef);
  const HierarchySpec spec =
      FullBinaryHierarchy(hg.total_size(), 2 + seed % 3, 0.2);
  GfmParams params;
  params.seed = seed;
  const TreePartition tp = RunGfm(hg, spec, params);
  RequireValidPartition(tp, spec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselinePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace htp
