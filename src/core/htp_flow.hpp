// Algorithm 1: the complete network-flow-based HTP heuristic (FLOW).
//
//   repeat N times:
//     1.1  compute a spreading metric by stochastic flow injection (Alg. 2)
//     1.2  construct a partition from the metric (Alg. 3 / find_cut)
//   output the best partition found
//
// The conclusion of the paper suggests amortizing the expensive metric
// computation by "constructing multiple partitions for the same spreading
// metric without a significant increase on the run time" —
// `constructions_per_metric` implements exactly that and is swept by
// bench/ablation_multipart.
#pragma once

#include <functional>
#include <optional>

#include "core/build_partition.hpp"
#include "core/flow_injection.hpp"

namespace htp {

/// How spreading metrics feed Algorithm 3's recursion.
enum class MetricScope {
  /// The paper's literal pipeline: one global metric, reused (restricted)
  /// in every subproblem. Cheap, but the restriction blurs the metric's
  /// signal at lower levels (boundary nets keep their full multi-level
  /// length inside a block) — see DESIGN.md and bench/ablation_scope.
  kGlobalOnce,
  /// Re-run the flow injection on each subproblem with the same hierarchy
  /// spec (the sub-level capacities are the binding ones, so g() is
  /// unchanged). Subproblems shrink geometrically, so the asymptotic cost
  /// matches a single global computation up to the branching factor. This
  /// recovers the paper's reported quality on our substrate and is the
  /// default.
  kPerSubproblem,
};

/// find_cut implementation used by Algorithm 3 inside FLOW.
enum class CarverKind {
  /// The paper's Procedure find_cut: Prim prefix growth with min-cut
  /// prefix selection (core/find_cut.hpp).
  kPrimPrefix,
  /// The conclusion's future-work suggestion: Karger-style 1-respecting
  /// cuts of the metric MST (core/mst_carver.hpp).
  kMstSplit,
};

/// Parameters of Algorithm 1.
struct HtpFlowParams {
  FlowInjectionParams injection;
  /// N: outer iterations (fresh metric + construction each time).
  std::size_t iterations = 4;
  /// Partitions constructed per computed metric (>= 1; the paper's
  /// future-work amortization).
  std::size_t constructions_per_metric = 1;
  /// Metric reuse strategy for the recursion (see MetricScope).
  MetricScope metric_scope = MetricScope::kPerSubproblem;
  /// Which carve implementation find_cut uses.
  CarverKind carver = CarverKind::kPrimPrefix;
  /// Master seed; per-iteration streams are forked from it.
  std::uint64_t seed = 1;
  /// Worker threads for the outer iterations: 1 = serial (default, the
  /// pre-parallelism code path), 0 = all hardware threads, anything else
  /// literal. Every iteration draws from its own pre-forked RNG stream and
  /// writes into its own result slot, so the returned partition, cost, and
  /// iteration stats (wall_seconds aside) are bit-identical for every
  /// value of `threads`.
  std::size_t threads = 1;
  /// Worker threads for the candidate scan *inside* each Algorithm-2
  /// injection round (ViolationScanner; overrides injection.threads). The
  /// two knobs compose: `threads` parallelizes across iterations,
  /// `metric_threads` parallelizes within one metric computation — when
  /// both exceed 1 the runtime's nested-parallelism guard keeps the inner
  /// scan serial inside pool workers rather than oversubscribing. Results
  /// are bit-identical for every combination (asserted by
  /// tests/core/htp_flow_parallel_test.cpp).
  std::size_t metric_threads = 1;
  /// Anytime controls (docs/robustness.md): optional wall-clock deadline
  /// plus deterministic caps on injection rounds and outer iterations. The
  /// default (unlimited) budget reproduces the pre-anytime behaviour bit
  /// for bit. When the deadline fires, the driver still returns a *valid*
  /// best-so-far partition: the first construction of iteration 0 always
  /// runs to completion (the floor guarantee), everything else may be
  /// skipped or truncated, and `HtpFlowResult::stop_reason` says why.
  Budget budget;
  /// Optional external cancellation handle (e.g. a signal handler's
  /// Manual() token). Linked as the parent of the budget deadline, so
  /// either source stops the run. Inert by default.
  CancellationToken cancel;
  /// Optional metric provider. When set, every spreading-metric
  /// computation FLOW performs — the global per-iteration metric *and* the
  /// per-subproblem metrics of MetricScope::kPerSubproblem — goes through
  /// this function instead of calling ComputeSpreadingMetric directly. An
  /// instrumenting caller hooks in here: perfbench's traced run lowers
  /// each CsrView into FlowInjectionParams::csr and times the lowering and
  /// the metric apart. The provider must be thread-safe (called
  /// concurrently from pool workers when threads exceeds 1) and must
  /// return exactly what ComputeSpreadingMetric(hg, spec, params) would —
  /// the determinism contract extends through it. Null (the default) is
  /// the direct call.
  std::function<FlowInjectionResult(
      const Hypergraph&, const HierarchySpec&, const FlowInjectionParams&)>
      metric_compute;
  /// When true, the winning iteration's converged *global* metric is moved
  /// into `HtpFlowResult::best_metric` so callers can persist it as an ECO
  /// warm-start seed (src/incremental/warm_start.hpp). Costs one
  /// O(num_nets) vector copy per iteration and nothing else — results are
  /// unchanged. Off by default.
  bool keep_best_metric = false;
};

/// Statistics of one Algorithm-1 iteration.
struct HtpFlowIteration {
  double metric_cost = 0.0;        ///< sum c(e) d(e) — the Lemma-2 witness
  double best_partition_cost = 0.0;  ///< best construction on this metric
  std::size_t injections = 0;
  bool metric_converged = false;
  /// Wall-clock of this iteration (metric + all constructions). Purely
  /// informational: the one field excluded from the determinism guarantee.
  double wall_seconds = 0.0;
};

/// Outcome of Algorithm 1. The partition is *always* valid (it passes
/// ValidatePartition), even when a budget fired: `completed` and
/// `stop_reason` report whether it is the full best-of-N answer or an
/// anytime best-so-far.
struct HtpFlowResult {
  TreePartition partition;  ///< best partition over all constructions
  double cost = 0.0;        ///< its interconnection cost (Equation (1))
  /// Stats of the iterations that actually ran (skipped iterations are
  /// omitted, so `iterations.size()` can be below `params.iterations`
  /// when a budget fired).
  std::vector<HtpFlowIteration> iterations;
  /// True iff every requested iteration ran every construction to the end.
  bool completed = true;
  /// Why the run stopped (kCompleted, kDeadline, kCancelled).
  StopReason stop_reason = StopReason::kCompleted;
  /// The winning iteration's converged global metric d(e), populated iff
  /// `params.keep_best_metric` was set (empty otherwise). This is the seed
  /// a WarmStartState persists for incremental repartitioning.
  SpreadingMetric best_metric;
};

/// The injection parameters of one FLOW metric computation:
/// `params.injection` with the budget's deterministic round cap, `cancel`,
/// and `metric_threads` applied. The seed (and any warm seed) is the
/// caller's to set.
FlowInjectionParams FlowMetricInjection(const HtpFlowParams& params,
                                        const CancellationToken& cancel);

/// One spreading-metric computation, routed through `params.metric_compute`
/// when it is set (an instrumenting caller's hook) and ComputeSpreadingMetric
/// otherwise.
FlowInjectionResult ComputeFlowMetric(const HtpFlowParams& params,
                                      const Hypergraph& hg,
                                      const HierarchySpec& spec,
                                      const FlowInjectionParams& injection);

/// Algorithm 3's carver as FLOW runs it on `hg`. In
/// MetricScope::kPerSubproblem mode every proper subproblem above leaf
/// capacity gets a freshly injected, always-cold local metric seeded from
/// `metric_rng` (the restriction of a global metric keeps full multi-level
/// lengths on boundary nets and so misguides lower-level carves); every
/// other carve uses the metric it is handed. Either way the carve is the
/// best of four find_cut restarts: the cheapest in-window result wins, and
/// a fired `cancel` stops the restarts after the first one. `truncated`,
/// when given, is set once a local metric was cut short by `cancel`. The
/// returned function references `hg`, `spec`, `params`, `metric_rng` and
/// `truncated`, which must outlive it. This is the carver of RunHtpFlow's
/// constructions and of the ECO re-carver
/// (src/incremental/eco_repartition.cpp).
CarveFn FlowCarver(const Hypergraph& hg, const HierarchySpec& spec,
                   const HtpFlowParams& params,
                   const CancellationToken& cancel, Rng& metric_rng,
                   bool* truncated = nullptr);

/// Runs Algorithm 1 (FLOW) on `hg` with respect to `spec`.
HtpFlowResult RunHtpFlow(const Hypergraph& hg, const HierarchySpec& spec,
                         const HtpFlowParams& params = {});

}  // namespace htp
