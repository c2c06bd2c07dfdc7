// Byte-identity golden for the hierarchical FM refiner. The expected rows
// were captured from the refiner before its set-up moved to flat span
// tables, leaf-ancestor/LCA tables and the seeding memo; every later change
// to that code must reproduce them exactly. Each row pins, for one height,
// the FNV-1a hash of the refined partition's text, the pass count, the kept
// moves and the final cost (printed with 17 significant digits, so it is the
// exact double).
//
// The instance is a Rent circuit whose nodes have two sizes (1 and 2), with
// fractional net capacities and level weights: the seeding memo is keyed by
// (source leaf, node size), so both sizes must share leaves.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/partition_io.hpp"
#include "netlist/generators.hpp"
#include "partition/htp_fm.hpp"
#include "partition/random_partition.hpp"
#include "server/artifact_key.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

Hypergraph TwoSizeRentCircuit() {
  RentCircuitParams rent;
  rent.num_gates = 600;
  rent.num_primary_inputs = 40;
  rent.seed = 24;
  const Hypergraph unit =
      testutil::WithFractionalCapacities(RentCircuit(rent), 24);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < unit.num_nodes(); ++v)
    builder.add_node(v % 3 == 0 ? 2.0 : 1.0);
  for (NetId e = 0; e < unit.num_nets(); ++e)
    builder.add_net(unit.pins(e), unit.net_capacity(e));
  return builder.build();
}

std::string Row(const TreePartition& tp, const HtpFmStats& stats) {
  const std::uint64_t hash =
      serve::HashBytes(serve::kFnvOffset, WritePartitionText(tp));
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s passes=%zu kept=%zu cost=%.17g",
                serve::HexKey(hash).c_str(), stats.passes, stats.moves_kept,
                stats.final_cost);
  return buf;
}

struct Golden {
  Level height;
  const char* full;      // full-seeded RefineHtpFm from a random start
  const char* boundary;  // boundary-seeded, after one full-seeded pass
};

constexpr Golden kGolden[] = {
    {2, "6b9d0298893d4002 passes=5 kept=553 cost=216.99999999999994",
     "1f6602a09e575ccd passes=6 kept=260 cost=197.17999999999992"},
    {3, "88368bd37c87d940 passes=6 kept=626 cost=311.9799999999999",
     "99e8c1eb2457e660 passes=6 kept=381 cost=276.0499999999999"},
    {4, "b2189434d47ff5d3 passes=8 kept=784 cost=517.67999999999984",
     "b3f80c0bf9bd18bf passes=7 kept=365 cost=517.67999999999984"},
    {5, "0842dcc7436b2238 passes=10 kept=1125 cost=797.13999999999987",
     "c698c712433c448d passes=7 kept=497 cost=833.93999999999994"},
};

TEST(HtpFmGolden, RefinedPartitionsAreByteIdentical) {
  const Hypergraph hg = TwoSizeRentCircuit();
  for (const Golden& golden : kGolden) {
    const HierarchySpec spec =
        testutil::FractionalWeightHierarchy(hg.total_size(), golden.height);
    {
      Rng rng(golden.height);
      TreePartition tp = RandomPartition(hg, spec, rng);
      const HtpFmStats stats = RefineHtpFm(tp, spec);
      RequireValidPartition(tp, spec);
      EXPECT_EQ(Row(tp, stats), golden.full) << "height " << golden.height;
    }
    {
      Rng rng(golden.height);
      TreePartition tp = RandomPartition(hg, spec, rng);
      HtpFmParams one_pass;
      one_pass.max_passes = 1;
      (void)RefineHtpFm(tp, spec, one_pass);
      HtpFmParams boundary;
      boundary.boundary_only = true;
      const HtpFmStats stats = RefineHtpFm(tp, spec, boundary);
      RequireValidPartition(tp, spec);
      EXPECT_EQ(Row(tp, stats), golden.boundary)
          << "height " << golden.height;
    }
  }
}

}  // namespace
}  // namespace htp
