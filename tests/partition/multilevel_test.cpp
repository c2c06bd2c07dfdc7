#include "partition/multilevel.hpp"

#include <gtest/gtest.h>

#include "multilevel/multilevel_flow.hpp"
#include "netlist/generators.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(Multilevel, FindsTheBridgeOnTwoClusters) {
  HypergraphBuilder builder;
  for (int i = 0; i < 24; ++i) builder.add_node();
  for (NodeId base : {0u, 12u})
    for (NodeId i = 0; i < 12; ++i)
      builder.add_net({base + i, base + (i + 1) % 12});
  for (NodeId base : {0u, 12u})
    for (NodeId i = 0; i < 12; i += 2)
      builder.add_net({base + i, base + (i + 5) % 12});
  builder.add_net({5u, 17u}, 1.0, "bridge");
  Hypergraph hg = builder.build();

  FmBipartitionParams window;
  window.min_size0 = 12.0;
  window.max_size0 = 12.0;
  Rng rng(3);
  VCycleParams params;
  params.coarsest_nodes = 6;
  const Bipartition part = MultilevelBipartition(hg, window, rng, params);
  EXPECT_DOUBLE_EQ(part.cut, 1.0);
  EXPECT_DOUBLE_EQ(part.size0, 12.0);
}

TEST(Multilevel, WindowAlwaysRespected) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Hypergraph hg = testutil::RandomConnectedHypergraph(
        60 + seed % 60, 80 + seed % 60, 2 + seed % 4, seed);
    FmBipartitionParams window;
    window.min_size0 = hg.total_size() * 0.4;
    window.max_size0 = hg.total_size() * 0.6;
    Rng rng(seed);
    VCycleParams params;
    params.coarsest_nodes = 20;
    const Bipartition part = MultilevelBipartition(hg, window, rng, params);
    EXPECT_GE(part.size0, window.min_size0 - 1e-9);
    EXPECT_LE(part.size0, window.max_size0 + 1e-9);
    EXPECT_NEAR(part.cut, EvaluateBipartition(hg, part.side).cut, 1e-9);
  }
}

TEST(Multilevel, AtLeastAsGoodAsFlatFmOnClusteredCircuits) {
  // On Rent-style circuits the V-cycle should usually match or beat one
  // flat FM run; assert over the sum of several seeds so single-seed noise
  // cannot flip the comparison.
  double flat_total = 0.0, ml_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RentCircuitParams circ;
    circ.num_gates = 400;
    circ.num_primary_inputs = 30;
    circ.seed = seed;
    Hypergraph hg = RentCircuit(circ);
    FmBipartitionParams window;
    window.min_size0 = hg.total_size() * 0.45;
    window.max_size0 = hg.total_size() * 0.55;
    Rng rng_flat(seed), rng_ml(seed);
    flat_total += FmBipartition(hg, window, rng_flat).cut;
    ml_total += MultilevelBipartition(hg, window, rng_ml).cut;
  }
  EXPECT_LE(ml_total, flat_total * 1.05);
}

TEST(RunMlfm, ProducesValidPartitions) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Hypergraph hg = testutil::RandomConnectedHypergraph(
        80 + seed * 10, 100, 3, seed * 13);
    const HierarchySpec spec =
        FullBinaryHierarchy(hg.total_size(), 3, 0.2);
    MlfmParams params;
    params.seed = seed;
    const TreePartition tp = RunMlfm(hg, spec, params);
    RequireValidPartition(tp, spec);
  }
}

TEST(RunMlfm, DeterministicForSeed) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(70, 90, 3, 4);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  MlfmParams params;
  params.seed = 11;
  const TreePartition a = RunMlfm(hg, spec, params);
  const TreePartition b = RunMlfm(hg, spec, params);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    EXPECT_EQ(a.leaf_of(v), b.leaf_of(v));
}

TEST(Multilevel, VCycleAndFlowDriverShareOneTranslationUnit) {
  // Both multilevel drivers live in namespace htp, and this file includes
  // both headers: their parameter structs must have distinct names, or
  // this file does not compile and a binary linking both breaks the
  // one-definition rule.
  Hypergraph hg = testutil::RandomConnectedHypergraph(90, 110, 3, 7);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  MlfmParams mlfm;
  mlfm.multilevel.coarsest_nodes = 20;
  RequireValidPartition(RunMlfm(hg, spec, mlfm), spec);
  MultilevelParams flow;
  flow.flow.iterations = 1;
  flow.coarsen_threshold = 40;
  const MultilevelResult result = RunMultilevelFlow(hg, spec, flow);
  RequireValidPartition(result.partition, spec);
  EXPECT_GE(result.coarsen_levels, 1u);
}

}  // namespace
}  // namespace htp
