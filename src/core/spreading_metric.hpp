// Spreading metrics: fractional solutions to linear program (P1).
//
// A spreading metric is a nonnegative length d(e) per net. Feasibility for
// (P1) means every node set is spread apart:
//
//   for all S ⊆ V, v ∈ S:  sum_{u ∈ S} s(u) * dist_d(v, u) >= g(s(S))   (3)
//
// which, by Claim 4 of Even et al. [4], holds iff it holds for the O(n^2)
// shortest-path-tree prefixes S(v, k):
//
//   for all v, k:  sum_{u ∈ S(v,k)} s(u) * dist_d(v, u) >= g(s(S(v,k)))  (5)
//
// This header provides: metrics induced by partitions (Lemma 1), the metric
// objective sum_e c(e) d(e), and ViolationScanner — the one separation
// oracle over family (5). Algorithm 2's injection rounds run its
// deterministic (optionally parallel) batch form; the pair-path baseline,
// the exact LP solver, and the full feasibility check CheckSpreadingMetric
// run its serial single-source form.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cost.hpp"
#include "core/hierarchy.hpp"
#include "core/tree_partition.hpp"
#include "graph/csr_view.hpp"
#include "graph/dijkstra.hpp"

namespace htp {

class ThreadPool;

/// d(e) per net, aligned with net ids.
using SpreadingMetric = std::vector<double>;

/// Lemma 1: the integral metric d(e) = cost(e) / c(e) induced by a
/// hierarchical tree partition — feasible for (P1) with objective equal to
/// the partition's interconnection cost.
SpreadingMetric MetricFromPartition(const TreePartition& tp,
                                    const HierarchySpec& spec);

/// The (P1) objective: sum_e c(e) * d(e).
double MetricCost(const Hypergraph& hg, const SpreadingMetric& metric);

/// One violated constraint of family (5).
struct SpreadingViolation {
  NodeId source = kInvalidNode;   ///< v
  std::size_t tree_nodes = 0;     ///< k
  double tree_size = 0.0;         ///< s(S(v,k))
  double lhs = 0.0;               ///< sum s(u) dist(v,u)
  double rhs = 0.0;               ///< g(s(S(v,k)))
  /// The violating shortest-path tree itself (for flow injection / cuts).
  ShortestPathTree tree;
};

/// Full feasibility check of family (5) over all sources, on one serial
/// ViolationScanner. Returns the first violation found (scanning sources in
/// id order), or nullopt when `metric` is a feasible spreading metric.
std::optional<SpreadingViolation> CheckSpreadingMetric(
    const Hypergraph& hg, const HierarchySpec& spec,
    const SpreadingMetric& metric, double tolerance = 1e-7);

/// Deterministic parallel candidate scan over constraint family (5) — the
/// engine inside one Algorithm-2 injection round (core/flow_injection.cpp).
///
/// A batch call scans `candidates[begin..end)` against one fixed metric and
/// returns the *lowest-index* violating candidate: precisely what a serial
/// `FindViolationFrom` sweep from `begin` would have committed, because the
/// candidates below the hit saw the same metric the sweep would have shown
/// them, and everything after the hit is discarded (the caller re-scans it
/// against the post-injection metric). Workers grab candidates from a
/// shared cursor, grow each S(v,k) tree on their own preallocated
/// DijkstraWorkspace, and report violation status plus the tree's net set
/// into a pre-sized slot; an early-cancel flag stops a worker as soon as a
/// lower-indexed violation exists, since its result could never commit.
///
/// Hot path: trees grow over a CsrView built once at construction (one
/// lowering per metric computation, shared read-only by every worker) and
/// each growth stops early once no remaining prefix of S(v,k) can violate
/// (5) — later nodes lie at least the current radius away and g is convex,
/// so checking the full-size endpoint s(V) certifies every later prefix
/// (docs/algorithms.md, "The concave stop certificate"). The early exit is
/// a pure function of (source, metric), so it never disturbs determinism.
///
/// Ball certificates: a batch growth that passes also yields a radius ρ_v
/// such that every node within ρ_v of v provably passes (5) too, by the
/// triangle inequality (docs/algorithms.md, "Ball certificates"). Those
/// nodes join the scanner's certified set, and later batch calls skip
/// their growths: a certified candidate counts as passing without one.
/// Lengths only grow during a metric computation, so a certificate stays
/// valid for the scanner's lifetime — hence the precondition that the
/// `metric` of every FindFirstViolation call is pointwise >= the metric of
/// every earlier call on the same scanner (Algorithm 2 builds one scanner
/// per metric computation). FindViolationFrom neither reads nor extends
/// the certified set.
///
/// Determinism contract: the returned hit, the certified set, the
/// committed dijkstra.* counter totals, and the flow.scan_* and
/// flow.ball_skips counters are bit-identical for every `threads` value
/// (asserted by tests/core/htp_flow_parallel_test.cpp); only wall-clock
/// changes. Parallel workers also skip candidates that concurrent balls
/// cover; the commit replays the serial order and re-grows any candidate
/// that order would have grown (docs/parallelism.md). Construction inside
/// a pool worker (a parallel FLOW iteration) degrades to serial via the
/// runtime's nested-parallelism guard, as does any hypergraph too small to
/// amortize the fork-join.
class ViolationScanner {
 public:
  /// `threads`: scan workers (1 = serial, 0 = all hardware threads). The
  /// pool (if any) is spun up once here and reused across every batch.
  /// `shared_csr` (optional) supplies a pre-lowered CsrView of `hg` —
  /// metric-independent and immutable, so a caching layer (src/server)
  /// can amortize the lowering across metric computations. Null (the
  /// default) lowers a private view, exactly the pre-sharing behaviour;
  /// results are identical either way because the view is a pure function
  /// of the hypergraph.
  ViolationScanner(const Hypergraph& hg, const HierarchySpec& spec,
                   std::size_t threads,
                   std::shared_ptr<const CsrView> shared_csr = nullptr);
  ~ViolationScanner();
  ViolationScanner(const ViolationScanner&) = delete;
  ViolationScanner& operator=(const ViolationScanner&) = delete;

  /// One violated constraint as found by a batch scan: the slim form of
  /// SpreadingViolation — the committing caller needs the tree's net set,
  /// not the tree itself. `tree_nets` points into scanner-owned storage and
  /// is valid until the next FindFirstViolation call.
  struct ScanHit {
    std::size_t index = 0;          ///< position within `candidates`
    NodeId source = kInvalidNode;   ///< v = candidates[index]
    std::size_t tree_nodes = 0;     ///< k
    double tree_size = 0.0;         ///< s(S(v,k))
    double lhs = 0.0;               ///< sum s(u) dist(v,u)
    double rhs = 0.0;               ///< g(s(S(v,k)))
    std::span<const NetId> tree_nets;  ///< sorted distinct nets of S(v,k)
  };

  /// Scans candidates[begin..end) against `metric` with `tolerance` slack
  /// and returns the lowest-index violation, or nullopt when every scanned
  /// candidate satisfies family (5). Certified candidates pass without a
  /// growth; passing growths certify their balls. `metric` must be
  /// pointwise >= the metric of every earlier call on this scanner.
  std::optional<ScanHit> FindFirstViolation(std::span<const NodeId> candidates,
                                            std::size_t begin,
                                            const SpreadingMetric& metric,
                                            double tolerance);

  /// Checks constraints (5) rooted at one node, serially: returns the
  /// *first* violation met while growing S(v,k) for k = 1..n, together
  /// with the violating tree, or nullopt when v is satisfied. `tolerance`
  /// is the absolute slack granted to the left-hand side. The growth is
  /// credited to the dijkstra.* counters as one call. This is the form for
  /// callers that need the whole tree (the LP's Equation-(6) rows, the
  /// pair-path walk); a batch call commits the same verdict per candidate.
  std::optional<SpreadingViolation> FindViolationFrom(
      NodeId source, const SpreadingMetric& metric, double tolerance = 1e-7);

  /// Resolved worker count (1 when serial; never affects results).
  std::size_t workers() const { return workers_; }

  /// Whether a committed ball certificate covers `v`, so that batch scans
  /// pass it without a growth. Thread-count invariant like the verdicts.
  bool certified(NodeId v) const { return certified_[v] != 0; }

 private:
  struct Slot;
  struct Worker;
  class BallBound;

  /// A breakpoint C_l of g inside (0, s(V)), with g(C_l) precomputed.
  struct BallCap {
    double size;
    double g;
  };

  /// The family-(5) test on one prefix S(v,k) with rhs = g(s(S(v,k))),
  /// shared by both scan forms.
  GrowAction CheckPrefix(const GrowState& state, double rhs, double tolerance,
                         Slot& slot) const;

  /// One batch growth from `source`: the verdict goes into `slot`, and a
  /// passing growth returns its ball radius (every settled node within it
  /// is certified); a violated or cancelled growth returns a negative
  /// radius. `cancel_below` (parallel scans only) stops the growth once a
  /// violation below index `index` is known, setting `slot.cancelled`.
  double GrowCandidate(NodeId source, const SpreadingMetric& metric,
                       double tolerance, Worker& worker, Slot& slot,
                       const std::atomic<std::size_t>* cancel_below,
                       std::size_t index) const;

  const Hypergraph& hg_;
  const HierarchySpec& spec_;
  /// Shared read-only adjacency for all workers; owned here when built
  /// privately, co-owned with the caller when passed in.
  std::shared_ptr<const CsrView> csr_;
  double total_size_ = 0.0;  ///< s(V): the stop certificate's far endpoint
  double g_cap_ = 0.0;  ///< g(s(V)): upper bound on every rhs of family (5)
  /// The ball certificate's inputs: g's breakpoints below s(V), g's
  /// steepest slope, and the relative float margin (docs/algorithms.md).
  std::vector<BallCap> ball_caps_;
  double g_slope_ = 0.0;
  double ball_margin_ = 0.0;
  /// Committed certified set: 1 for every node a serial-order ball covers.
  /// Written only by the committing thread, between fork-joins.
  std::vector<std::uint8_t> certified_;
  /// Parallel scans only: hint_[v] == hint_epoch_ when a ball grown in the
  /// current batch covers v. Racy by design (relaxed atomics); the commit
  /// replay makes every result independent of what the hints said.
  std::unique_ptr<std::atomic<std::uint32_t>[]> hint_;
  std::uint32_t hint_epoch_ = 0;
  std::size_t workers_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Worker[]> worker_state_;
  std::vector<Slot> slots_;
};

}  // namespace htp
