// Deterministic coarsening for the multilevel FLOW engine (docs/scaling.md).
//
// A coarsening pass clusters the nodes of a hypergraph and contracts each
// cluster into one supernode via ContractClustersMerged, which *merges*
// parallel nets by summing their capacities. Because the hierarchical cost
// of Equation (1) is additive in net capacity, the merge is cost-exact: any
// partition of the coarse graph, projected back through the cluster map,
// has exactly the same cost on the fine graph (the round-trip invariant
// tests/multilevel/coarsen_test.cpp asserts).
//
// Determinism contract: both schemes are pure functions of the hypergraph
// and the parameters. Nodes are visited in index order, candidate scores
// are compared with a strict ">" so ties fall to the smallest candidate id,
// and no RNG is consulted anywhere — so every level of the multilevel
// pipeline is bit-identical across seeds, threads, and runs.
#pragma once

#include <vector>

#include "netlist/hypergraph.hpp"

namespace htp {

/// How one coarsening pass forms clusters.
enum class CoarsenScheme {
  /// Greedy heavy-edge matching: nodes pair up with the unmatched neighbor
  /// of the highest rating; clusters have at most two fine nodes, so each
  /// pass shrinks the graph by at most 2x. The classic multilevel choice
  /// (hMETIS-style); conservative and high quality.
  kHeavyEdgeMatching,
  /// Greedy cluster growing (label-propagation style): each node, in index
  /// order, joins the already-formed cluster with the highest rating among
  /// its neighbors, or opens a new one. Clusters grow up to
  /// `max_cluster_size`, so a single pass can shrink aggressively; the
  /// right choice for 100k+-node inputs.
  kLabelPropagation,
};

/// Parameters of one coarsening pass.
struct CoarsenParams {
  CoarsenScheme scheme = CoarsenScheme::kLabelPropagation;
  /// Upper bound on the total fine size of a cluster (0 = unlimited). The
  /// multilevel driver derives this from the hierarchy spec so supernodes
  /// never exceed what the coarse-level construction can pack
  /// (multilevel_flow.cpp, FeasibleClusterCap).
  double max_cluster_size = 0.0;
  /// Nets with more pins than this contribute no rating signal (a k-pin net
  /// ties everything to everything; scoring it costs O(k) per pin for
  /// nothing). They still appear, contracted, in the coarse graph.
  std::size_t max_rating_net_degree = 500;
};

/// One level of the coarsening stack: the cluster memento plus the
/// contracted hypergraph. `cluster_of[v]` is the supernode (coarse node id)
/// holding fine node v; ids are dense in first-touch order, so the mapping
/// doubles as the exact uncoarsening recipe (ProjectPartition).
struct CoarsenLevel {
  std::vector<BlockId> cluster_of;
  BlockId num_clusters = 0;
  Hypergraph coarse;
};

/// Runs one coarsening pass over `fine`. Always returns a valid level; when
/// nothing can be merged (every node isolated or the size cap blocks every
/// pair) the coarse graph has the same node count as the fine one — callers
/// detect the stall by comparing node counts (CoarsenToThreshold does).
CoarsenLevel CoarsenOnce(const Hypergraph& fine, const CoarsenParams& params);

/// Repeats CoarsenOnce until the coarsest graph has at most `threshold`
/// nodes, a pass shrinks by less than ~5% (stall guard), or 64 passes ran.
/// Returns the stack finest-first; entry i maps level-i nodes to
/// level-(i+1) supernodes. An empty result means the input was already at
/// or below the threshold.
std::vector<CoarsenLevel> CoarsenToThreshold(const Hypergraph& hg,
                                             NodeId threshold,
                                             const CoarsenParams& params);

}  // namespace htp
