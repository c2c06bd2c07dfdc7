// Algorithm 2: stochastic flow injection for computing spreading metrics.
//
// Motivated by the duality between (P1) and a maximum-flow problem over the
// shortest-path trees S(v,k) (Section 3.1): each edge carries a flow f(e)
// and an exponential length d(e) = exp(alpha * f(e) / c(e)) - 1. Nodes whose
// constraints (5) may be violated live in a worklist V'. For each worklist
// node v (visited in random order), a truncated Dijkstra grows S(v,k) until
// a constraint is violated or the whole graph is covered; on violation,
// `delta` units of flow are injected on every net of the violating tree and
// their lengths re-penalized; otherwise v leaves the worklist for good —
// lengths only ever grow, so satisfied constraints stay satisfied.
#pragma once

#include <cstdint>
#include <memory>

#include "core/spreading_metric.hpp"
#include "runtime/budget.hpp"

namespace htp {

/// Tunables of Algorithm 2 (paper values for epsilon/alpha/delta are not
/// reported; defaults were calibrated on the ISCAS85-like suite — see the
/// ablation benches).
struct FlowInjectionParams {
  /// Initial flow on every edge ("a very small amount of flows, epsilon, so
  /// that its length will be close (but not equal) to 0").
  double epsilon = 1e-3;
  /// Congestion exponent in d(e) = exp(alpha f(e) / c(e)) - 1.
  double alpha = 0.05;
  /// Flow units injected on each edge of a violating tree (step 2.1.4).
  double delta = 0.5;
  /// Absolute tolerance granted to constraint (5) checks.
  double tolerance = 1e-7;
  /// Safety cap on passes over the worklist (each pass visits every
  /// remaining node once, in random order).
  std::size_t max_rounds = 4000;
  /// Random seed for the per-round visiting order.
  std::uint64_t seed = 1;
  /// Worker threads for the candidate scan inside each injection round
  /// (ViolationScanner). 1 = serial, 0 = all hardware threads. Results are
  /// bit-identical for every value; only wall-clock changes. Ignored by
  /// ComputePairPathSpreadingMetric, whose injection step needs the full
  /// violating tree (a path walk through parent links) rather than just its
  /// net set, so it runs the scanner's serial single-source form.
  std::size_t threads = 1;
  /// Cooperative cancellation handle, polled at the algorithm's safepoints:
  /// the top of every worklist round and after every commit (an injection
  /// is applied and re-penalized in full — never mid-scan). A fired token
  /// stops the loop with `cancelled = true`; the returned metric is the
  /// last committed state, so it is always internally consistent (just not
  /// necessarily feasible for family (5)). Inert by default: unbudgeted
  /// runs are bit-identical to the pre-anytime code path.
  CancellationToken cancel;
  /// Optional pre-lowered CSR adjacency of the input hypergraph (the
  /// metric-independent star expansion ViolationScanner otherwise builds
  /// per computation). A caching layer (src/server) passes the shared view
  /// here so repeat requests skip the lowering; null (the default) keeps
  /// the private per-computation build. Never affects results — the view
  /// is a pure function of the hypergraph. Both ComputeSpreadingMetric and
  /// ComputePairPathSpreadingMetric scan on it.
  std::shared_ptr<const CsrView> csr;
  /// Warm-start seed for incremental (ECO) repartitioning
  /// (docs/incremental.md). When set it must carry exactly one value per
  /// net of `hg`: a prior run's converged metric d(e), remapped through a
  /// netlist delta (untouched nets keep their converged length, touched or
  /// added nets carry 0). Initialization inverts each seed back into flow,
  ///
  ///   f(e) = max(epsilon, c(e) * ln(1 + d(e)) / alpha),
  ///
  /// so Algorithm 2 *resumes* injection from the prior near-feasible state
  /// instead of starting from the uniform-epsilon cold start; the monotone
  /// length-growth convergence argument is unchanged because a warm start
  /// only raises initial lengths. Null (the default) is the cold start,
  /// bit-identical to every prior release. A warm seed changes results, so
  /// it participates in the artifact-cache key (server/artifact_key.hpp) —
  /// warm-seeded metrics never alias cold cache entries.
  std::shared_ptr<const SpreadingMetric> warm_metric;
};

/// Outcome of Algorithm 2.
struct FlowInjectionResult {
  SpreadingMetric metric;        ///< d(e) per net
  std::size_t injections = 0;    ///< number of violating trees flooded
  std::size_t rounds = 0;        ///< worklist passes executed
  bool converged = false;        ///< worklist emptied within max_rounds
  bool cancelled = false;        ///< params.cancel fired at a safepoint
  double metric_cost = 0.0;      ///< sum_e c(e) d(e) of the final metric
};

/// Runs Algorithm 2 and returns the computed spreading metric. The result
/// is feasible for constraint family (5) whenever `converged` is true.
FlowInjectionResult ComputeSpreadingMetric(const Hypergraph& hg,
                                           const HierarchySpec& spec,
                                           const FlowInjectionParams& params);

/// The predecessor injection style of Lang–Rao [10] and Yeh–Cheng–Lin [17]
/// ("iteratively adding or rerouting flows on the shortest paths between
/// randomly selected pairs of nodes", Section 3.1), adapted to the same
/// termination criterion as Algorithm 2 so the two are directly
/// comparable: while some source still violates family (5), inject `delta`
/// flow on the shortest PATH between a random pair instead of on the
/// violating shortest-path TREE. Converges for the same monotonicity
/// reason; typically needs many more injections because each one lengthens
/// only one path. Compared against Algorithm 2 in bench/ablation_injection.
FlowInjectionResult ComputePairPathSpreadingMetric(
    const Hypergraph& hg, const HierarchySpec& spec,
    const FlowInjectionParams& params);

}  // namespace htp
