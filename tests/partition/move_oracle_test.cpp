// Per-move checks of HtpMoveOracle against the Equation-(1) scorer. On
// Rent circuits with fractional net capacities and level weights, for
// random (node, leaf) pairs: Delta is the cost change Apply makes, Feasible
// is the capacity check recomputed along the target's chain, a move and its
// reverse restore the cost and the span tables, and the interior shortcut
// equals Delta bit for bit.
#include "partition/move_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "netlist/generators.hpp"
#include "partition/htp_fm.hpp"
#include "partition/random_partition.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// Capacity feasibility from scratch: block sizes summed over the nodes, and
// the target's chain walked by parent links up to the first block that
// already holds v.
bool RecomputedFeasible(const TreePartition& tp, const HierarchySpec& spec,
                        NodeId v, BlockId target) {
  const Hypergraph& hg = tp.hypergraph();
  std::map<BlockId, double> size;
  for (NodeId u = 0; u < hg.num_nodes(); ++u)
    for (Level l = 0; l <= tp.root_level(); ++l)
      size[tp.block_at(u, l)] += hg.node_size(u);
  for (BlockId q = target; tp.block_at(v, tp.level(q)) != q;
       q = tp.parent(q)) {
    if (size[q] + hg.node_size(v) > spec.capacity(tp.level(q)) + 1e-9)
      return false;
  }
  return true;
}

bool IsInterior(const TreePartition& tp, NodeId v) {
  const Hypergraph& hg = tp.hypergraph();
  for (NetId e : hg.nets(v))
    for (NodeId u : hg.pins(e))
      if (tp.leaf_of(u) != tp.leaf_of(v)) return false;
  return true;
}

// Every interior node against every other leaf; returns how many interior
// nodes there were, so a caller can tell the check was not vacuous.
std::size_t CheckInteriorShortcut(const HtpMoveOracle& oracle,
                                  const TreePartition& tp) {
  const std::vector<BlockId> leaves = tp.Leaves();
  std::vector<double> by_lca;
  std::size_t interior = 0;
  for (NodeId v = 0; v < tp.hypergraph().num_nodes(); ++v) {
    const bool expected = IsInterior(tp, v);
    EXPECT_EQ(oracle.InteriorDeltas(v, by_lca), expected) << "node " << v;
    if (!expected) continue;
    ++interior;
    const BlockId from = tp.leaf_of(v);
    for (BlockId leaf : leaves) {
      if (leaf == from) continue;
      EXPECT_EQ(by_lca[tp.LcaLevel(from, leaf)], oracle.Delta(v, leaf))
          << "node " << v << " leaf " << leaf;
    }
  }
  return interior;
}

// Random (node, leaf) pairs on `tp`: each is checked, applied, checked
// against the recomputed cost, reversed, and sometimes applied again so
// later pairs see a changed partition. Returns {feasible, infeasible}.
std::pair<std::size_t, std::size_t> CheckRandomMoves(
    TreePartition& tp, const HierarchySpec& spec, Rng& rng) {
  HtpMoveOracle oracle(tp, spec);
  const std::vector<BlockId> leaves = tp.Leaves();
  const NodeId n = tp.hypergraph().num_nodes();
  std::size_t feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    const BlockId target = leaves[rng.next_below(leaves.size())];
    const BlockId from = tp.leaf_of(v);
    if (target == from) continue;
    const bool ok = oracle.Feasible(v, target);
    EXPECT_EQ(ok, RecomputedFeasible(tp, spec, v, target))
        << "node " << v << " target " << target;
    ++(ok ? feasible : infeasible);

    const double before = PartitionCost(tp, spec);
    const double delta = oracle.Delta(v, target);
    oracle.Apply(v, target);
    const double after = PartitionCost(tp, spec);
    EXPECT_NEAR(after - before, delta, 1e-9 * std::max(1.0, before))
        << "node " << v << " target " << target;

    oracle.Apply(v, from);
    EXPECT_EQ(PartitionCost(tp, spec), before);
    EXPECT_EQ(oracle.Delta(v, target), delta);  // span tables restored
    if (ok && rng.next_bool(0.5)) oracle.Apply(v, target);
  }
  CheckInteriorShortcut(oracle, tp);
  return {feasible, infeasible};
}

class MoveOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveOracleTest, EveryMoveMatchesTheRecomputedCost) {
  const std::uint64_t seed = GetParam();
  RentCircuitParams rent;
  rent.num_gates = 120 + 20 * (seed % 5);
  rent.num_primary_inputs = 12;
  rent.seed = seed;
  const Hypergraph hg =
      testutil::WithFractionalCapacities(RentCircuit(rent), seed);
  const Level height = 2 + static_cast<Level>(seed % 3);
  const HierarchySpec spec =
      testutil::FractionalWeightHierarchy(hg.total_size(), height);
  Rng rng(seed * 7919);
  TreePartition tp = RandomPartition(hg, spec, rng);

  const auto [feasible, infeasible] = CheckRandomMoves(tp, spec, rng);
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
  RequireValidPartition(tp, spec);

  // A refined partition has interior nodes to check the shortcut on.
  (void)RefineHtpFm(tp, spec);
  const HtpMoveOracle refined(tp, spec);
  EXPECT_GT(CheckInteriorShortcut(refined, tp), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveOracleTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace htp
