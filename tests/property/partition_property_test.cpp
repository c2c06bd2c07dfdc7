// Property suite: partition invariants after RunHtpFlow on randomized
// instances. The flow partition's invariants are recomputed from first
// principles in this file, so that a bug shared between the library's
// checker and its construction code cannot hide; ValidatePartition /
// PartitionCost only cross-check them, and validate the FM-refined copy
// whose costs are recomputed here too. 200+ deterministic seeds sweep
// instance size, node weights, hierarchy shape, carver, metric scope, and
// FM seeding.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/cost.hpp"
#include "core/htp_flow.hpp"
#include "partition/htp_fm.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// Random circuit: unit sizes on even seeds, sizes in {1..3} on odd seeds
// (weighted instances need generous capacity slack — see the integration
// weighted tests).
Hypergraph PropertyCircuit(std::uint64_t seed) {
  const NodeId n = static_cast<NodeId>(18 + seed % 41);
  const bool weighted = (seed % 2) == 1;
  Rng rng(seed * 1000003 + 7);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v)
    builder.add_node(weighted ? 1.0 + static_cast<double>(rng.next_below(3))
                              : 1.0);
  for (NodeId v = 1; v < n; ++v)
    builder.add_net({static_cast<NodeId>(rng.next_below(v)), v},
                    0.5 + rng.next_double());
  const std::size_t extra = 10 + seed % 30;
  for (std::size_t i = 0; i < extra; ++i) {
    std::vector<NodeId> pins;
    const std::size_t deg = 2 + rng.next_below(4);
    for (std::size_t k = 0; k < deg; ++k)
      pins.push_back(static_cast<NodeId>(rng.next_below(n)));
    builder.add_net(pins);
  }
  return builder.build();
}

HierarchySpec PropertySpec(const Hypergraph& hg, std::uint64_t seed) {
  const Level height = 2 + static_cast<Level>(seed % 2);
  const double slack = (seed % 2) == 1 ? 0.5 : 0.25;
  return FullBinaryHierarchy(hg.total_size(), height, slack);
}

// Independent Equation-(1) recomputation: distinct level-l blocks touched
// by each net, counted as span 0 when the net stays inside one block.
double RecomputeCost(const TreePartition& tp, const HierarchySpec& spec) {
  const Hypergraph& hg = tp.hypergraph();
  double total = 0.0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    for (Level l = 0; l < tp.root_level(); ++l) {
      std::set<BlockId> blocks;
      for (NodeId v : hg.pins(e)) blocks.insert(tp.block_at(v, l));
      if (blocks.size() > 1)
        total += spec.weight(l) * static_cast<double>(blocks.size()) *
                 hg.net_capacity(e);
    }
  }
  return total;
}

class PartitionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionPropertyTest, FlowPartitionSatisfiesAllInvariants) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = PropertyCircuit(seed);
  const HierarchySpec spec = PropertySpec(hg, seed);

  HtpFlowParams params;
  params.iterations = 1 + seed % 2;
  params.carver = (seed % 3) == 0 ? CarverKind::kMstSplit
                                  : CarverKind::kPrimPrefix;
  params.metric_scope = (seed % 5) == 0 ? MetricScope::kGlobalOnce
                                        : MetricScope::kPerSubproblem;
  params.seed = seed * 31 + 1;
  const HtpFlowResult result = RunHtpFlow(hg, spec, params);
  const TreePartition& tp = result.partition;

  // --- Structure: a proper tree with the root at the spec's top level and
  // every child exactly one level below its parent.
  ASSERT_EQ(tp.root_level(), spec.root_level());
  ASSERT_GE(tp.num_blocks(), 1u);
  EXPECT_EQ(tp.parent(TreePartition::kRoot), kInvalidBlock);
  for (BlockId q = 1; q < tp.num_blocks(); ++q) {
    const BlockId p = tp.parent(q);
    ASSERT_NE(p, kInvalidBlock) << "block " << q;
    ASSERT_EQ(tp.level(q) + 1, tp.level(p)) << "block " << q;
    const auto kids = tp.children(p);
    EXPECT_NE(std::find(kids.begin(), kids.end(), q), kids.end())
        << "block " << q << " missing from parent's child list";
  }

  // --- Exhaustive: every node sits in exactly one level-0 leaf, and every
  // level's blocks partition V (disjointness is per-node: block_at is a
  // function, so it suffices that each node maps into a real block whose
  // recomputed contents are consistent).
  ASSERT_TRUE(tp.fully_assigned());
  std::map<BlockId, double> recomputed_size;  // over ALL blocks, all levels
  double assigned_total = 0.0;
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    const BlockId leaf = tp.leaf_of(v);
    ASSERT_NE(leaf, kInvalidBlock) << "node " << v;
    ASSERT_EQ(tp.level(leaf), 0u) << "node " << v;
    assigned_total += hg.node_size(v);
    // The root-path of v: block_at must walk leaf -> root through the
    // parent links, one block per level.
    BlockId expect = leaf;
    for (Level l = 0; l <= tp.root_level(); ++l) {
      const BlockId q = tp.block_at(v, l);
      ASSERT_EQ(q, expect) << "node " << v << " level " << l;
      recomputed_size[q] += hg.node_size(v);
      expect = tp.parent(q);
    }
  }
  EXPECT_DOUBLE_EQ(assigned_total, hg.total_size());
  EXPECT_EQ(recomputed_size.count(TreePartition::kRoot), 1u);
  EXPECT_DOUBLE_EQ(recomputed_size[TreePartition::kRoot], hg.total_size());

  // --- Size bookkeeping and capacity bounds C_l, from the independent
  // per-block sums (empty chain blocks legitimately recompute to 0).
  for (BlockId q = 0; q < tp.num_blocks(); ++q) {
    const auto it = recomputed_size.find(q);
    const double size = it == recomputed_size.end() ? 0.0 : it->second;
    EXPECT_NEAR(tp.block_size(q), size, 1e-9) << "block " << q;
    EXPECT_LE(size, spec.capacity(tp.level(q)) + 1e-9) << "block " << q;
  }

  // --- Branch bounds K_l above level 0.
  for (BlockId q = 0; q < tp.num_blocks(); ++q) {
    if (tp.level(q) > 0) {
      EXPECT_LE(tp.children(q).size(), spec.max_branches(tp.level(q)))
          << "block " << q;
    }
  }

  // --- Reported cost: equals the from-scratch Equation-(1) recomputation,
  // the library's own scorer, and the best per-iteration construction.
  const double recomputed = RecomputeCost(tp, spec);
  EXPECT_NEAR(result.cost, recomputed, 1e-9);
  EXPECT_NEAR(result.cost, PartitionCost(tp, spec), 1e-9);
  ASSERT_FALSE(result.iterations.empty());
  ASSERT_TRUE(result.completed);
  double best = result.iterations.front().best_partition_cost;
  for (const HtpFlowIteration& it : result.iterations)
    best = std::min(best, it.best_partition_cost);
  EXPECT_NEAR(result.cost, best, 1e-9);

  // --- FM refinement (boundary-seeded on odd seeds): the costs it reports
  // equal the recomputed Equation (1) before and after, it never worsens,
  // and the refined partition stays valid.
  TreePartition refined = tp;
  HtpFmParams fm;
  fm.boundary_only = (seed % 2) == 1;
  const HtpFmStats stats = RefineHtpFm(refined, spec, fm);
  EXPECT_NEAR(stats.initial_cost, recomputed, 1e-9);
  EXPECT_NEAR(stats.final_cost, RecomputeCost(refined, spec), 1e-9);
  EXPECT_LE(stats.final_cost, stats.initial_cost + 1e-9);
  EXPECT_EQ(ValidatePartition(refined, spec), std::vector<std::string>{});
}

TEST_P(PartitionPropertyTest, RerunIsBitIdentical) {
  // Determinism as a property: the same seed must reproduce the identical
  // partition and cost on a second run (fresh scanner, fresh CSR lowering,
  // fresh RNG streams).
  const std::uint64_t seed = GetParam();
  if (seed % 4 != 0) GTEST_SKIP() << "sampled at 1-in-4 to bound runtime";
  const Hypergraph hg = PropertyCircuit(seed);
  const HierarchySpec spec = PropertySpec(hg, seed);
  HtpFlowParams params;
  params.iterations = 2;
  params.seed = seed + 5;
  const HtpFlowResult a = RunHtpFlow(hg, spec, params);
  const HtpFlowResult b = RunHtpFlow(hg, spec, params);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    EXPECT_EQ(a.partition.leaf_of(v), b.partition.leaf_of(v)) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 200));

}  // namespace
}  // namespace htp
