// Induced sub-hypergraphs and cluster contraction.
//
// Algorithm 3 recurses on the subgraph H' = (V', E') cut off by find_cut,
// which keeps a mapping back to the parent hypergraph so nets retain their
// identity for cost accounting. The coarseners (src/multilevel/) and GFM's
// bottom-up grouping contract clusters of nodes into supernodes.
#pragma once

#include <span>
#include <vector>

#include "netlist/hypergraph.hpp"

namespace htp {

/// A hypergraph derived from a parent, with id mappings back to it.
struct SubHypergraph {
  Hypergraph hg;
  /// node id in `hg` -> node id in the parent.
  std::vector<NodeId> node_to_parent;
  /// net id in `hg` -> net id in the parent.
  std::vector<NetId> net_to_parent;
};

/// Extracts the sub-hypergraph induced by `nodes` (distinct parent node ids).
///
/// A parent net survives iff at least two of its pins lie in `nodes`; its
/// pins are restricted to `nodes`. Node sizes, capacities, and names carry
/// over. Order of `nodes` defines the new node numbering.
///
/// Degree-0 contract: every node in `nodes` is KEPT, even when restriction
/// (or a netlist delta that removed its last net — src/incremental/) leaves
/// it with no incident nets. A node's positive size still consumes block
/// capacity whether or not any net references it, so dropping it would
/// silently under-count s(V') and let carves overfill blocks. Callers that
/// want connectivity-pruned sets must filter before inducing. Regression:
/// tests/netlist/subhypergraph_test.cpp ("DegreeZeroNodesAreKept").
SubHypergraph InducedSubHypergraph(const Hypergraph& parent,
                                   std::span<const NodeId> nodes);

/// Contracts nodes into supernodes according to `cluster_of` (one cluster id
/// in [0, num_clusters) per parent node). Supernode sizes are the summed
/// member sizes; every cluster must be non-empty. A parent net survives iff
/// it touches >= 2 distinct clusters; its pins become the touched clusters.
/// Nets whose contracted pin sets coincide are merged into one coarse net
/// whose capacity is the sum of the merged capacities. Equation-(1) costs
/// are additive in capacity, so a partition of the merged coarse hypergraph
/// has exactly the cost of the same partition of the unmerged one — merging
/// only shrinks the instance (no net-id mapping survives, which is why the
/// coarsener keeps node mementos only). Coarse net order is the first-
/// occurrence order of each distinct pin set, so the result is a pure
/// function of the input (no hashing order leaks out).
Hypergraph ContractClustersMerged(const Hypergraph& parent,
                                  std::span<const BlockId> cluster_of,
                                  BlockId num_clusters);

/// Connected components over the hypergraph (two nodes are adjacent when
/// they share a net). Returns per-node component id in [0, count).
struct Components {
  std::vector<NodeId> component_of;
  NodeId count = 0;
};
Components ConnectedComponents(const Hypergraph& hg);

}  // namespace htp
