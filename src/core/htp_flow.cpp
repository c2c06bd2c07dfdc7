#include "core/htp_flow.hpp"

#include <algorithm>
#include <chrono>

#include "core/mst_carver.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace htp {
namespace {

// Algorithm-1 driver telemetry. Each iteration span lands on the lane of
// whichever pool thread ran it, tagged with the iteration index.
obs::Counter c_runs("driver.runs");
obs::Counter c_iterations("driver.iterations");
obs::Counter c_attempts("carve.attempts");
// Anytime telemetry: all three stay zero unless a budget is set, so
// unbudgeted counter totals are untouched. `driver.budget_remaining_ms` is
// the wall-clock headroom left when a deadline-budgeted run returned (kMax:
// the roomiest run in the snapshot window).
obs::Counter c_cancelled("driver.cancelled");
obs::Counter c_iterations_skipped("driver.iterations_skipped");
obs::Counter c_budget_remaining_ms("driver.budget_remaining_ms",
                                   obs::CounterKind::kMax);
obs::Timer t_run("driver.run");
obs::Timer t_iteration("driver.iteration");
obs::Timer t_construct("driver.construct");
// One journal record per executed Algorithm-1 iteration; `iter` leads the
// payload so the drained journal lists iterations in index order.
obs::Event e_iteration("driver.iteration");

// find_cut restarts per carve.
constexpr std::size_t kCarveAttempts = 4;

// find_cut with best-of-kCarveAttempts restarts: the cheapest in-window
// carve wins (in-window results strictly dominate out-of-window ones; first
// on ties). A fired token stops the restarts after the first completed
// attempt, so the carve (and the enclosing construction) stays valid.
// Every attempt run is credited to the `carve.attempts` counter.
CarveResult BestOfCarves(const Hypergraph& hg,
                         std::span<const double> metric, double lb, double ub,
                         Rng& rng, CarverKind carver,
                         const CancellationToken& cancel) {
  CarveResult best;
  bool have = false;
  std::size_t executed = 0;
  for (std::size_t t = 0; t < kCarveAttempts; ++t) {
    CarveResult cut = carver == CarverKind::kMstSplit
                          ? MstSplitCarve(hg, metric, lb, ub, rng)
                          : MetricFindCut(hg, metric, lb, ub, rng);
    ++executed;
    const bool better =
        !have ||
        (cut.in_window && !best.in_window) ||
        (cut.in_window == best.in_window && cut.cut_value < best.cut_value);
    if (better) {
      best = std::move(cut);
      have = true;
    }
    // Safepoint: between attempts (an attempt is never abandoned midway).
    if (cancel.Cancelled()) break;
  }
  c_attempts.Add(executed);
  return best;
}

// The RNG streams one iteration consumes, pre-forked from the master in the
// exact order the serial loop drew them (injection seed, then the metric
// stream, then the construction stream). Forking mutates the master, so all
// streams are materialized up front before any iteration runs; afterwards an
// iteration touches only its own entry, making the outer loop data-parallel.
struct IterationStreams {
  std::uint64_t injection_seed;
  Rng metric_rng;
  Rng construct_rng;
};

// Result slot of one outer iteration.
struct IterationOutcome {
  HtpFlowIteration stats;
  std::optional<TreePartition> best_partition;
  double best_cost = 0.0;
  bool skipped = false;    ///< token fired before the iteration started
  bool truncated = false;  ///< token fired somewhere inside the iteration
  /// The iteration's converged global metric, kept iff keep_best_metric
  /// (the winner's copy moves into HtpFlowResult::best_metric).
  SpreadingMetric metric;
};

// One Algorithm-1 iteration: compute a metric, construct
// `constructions_per_metric` partitions on it, keep the cheapest (first on
// ties). Reads only shared immutable state plus its own stream slot.
//
// `guarantee_result` implements the anytime floor: the first construction
// runs to completion no matter what (its build gets an inert token), so
// even a pre-expired deadline yields a valid partition. Every later
// construction may be cut short by CancelledError, caught here — the
// exception never escapes RunHtpFlow.
IterationOutcome RunIteration(const Hypergraph& hg, const HierarchySpec& spec,
                              const HtpFlowParams& params,
                              IterationStreams& streams,
                              const CancellationToken& cancel,
                              bool guarantee_result) {
  const auto start = std::chrono::steady_clock::now();
  FlowInjectionParams injection = FlowMetricInjection(params, cancel);
  injection.seed = streams.injection_seed;
  const FlowInjectionResult metric =
      ComputeFlowMetric(params, hg, spec, injection);

  IterationOutcome out;
  out.stats.metric_cost = metric.metric_cost;
  out.stats.injections = metric.injections;
  out.stats.metric_converged = metric.converged;
  out.stats.best_partition_cost = -1.0;
  out.truncated = metric.cancelled;
  if (params.keep_best_metric) out.metric = metric.metric;

  // The whole-graph carves use the metric computed above; FlowCarver gives
  // proper subproblems their own local metrics (MetricScope).
  const CarveFn carve = FlowCarver(hg, spec, params, cancel,
                                   streams.metric_rng, &out.truncated);

  for (std::size_t c = 0; c < params.constructions_per_metric; ++c) {
    // Floor guarantee: the first construction must complete while no
    // partition exists yet, so its build polls an inert token (the metric
    // computations and carve restarts inside it still honor `cancel` and
    // degrade to their fastest valid behaviour once it fires).
    const bool must_finish = guarantee_result && !out.best_partition;
    if (!must_finish && cancel.Cancelled()) {
      out.truncated = true;
      break;
    }
    obs::PhaseScope construct_span(t_construct, "construction", c);
    try {
      const CancellationToken build_cancel =
          must_finish ? CancellationToken{} : cancel;
      TreePartition tp = BuildPartitionTopDown(
          hg, spec, metric.metric, carve, streams.construct_rng, build_cancel);
      const double cost = PartitionCost(tp, spec);
      if (out.stats.best_partition_cost < 0.0 ||
          cost < out.stats.best_partition_cost)
        out.stats.best_partition_cost = cost;
      if (!out.best_partition || cost < out.best_cost) {
        out.best_partition = std::move(tp);
        out.best_cost = cost;
      }
    } catch (const CancelledError&) {
      out.truncated = true;
      break;
    }
  }
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace

FlowInjectionParams FlowMetricInjection(const HtpFlowParams& params,
                                        const CancellationToken& cancel) {
  FlowInjectionParams injection = params.injection;
  if (params.budget.max_rounds > 0)
    injection.max_rounds =
        std::min(injection.max_rounds, params.budget.max_rounds);
  injection.cancel = cancel;
  injection.threads = params.metric_threads;
  return injection;
}

FlowInjectionResult ComputeFlowMetric(const HtpFlowParams& params,
                                      const Hypergraph& hg,
                                      const HierarchySpec& spec,
                                      const FlowInjectionParams& injection) {
  return params.metric_compute ? params.metric_compute(hg, spec, injection)
                               : ComputeSpreadingMetric(hg, spec, injection);
}

CarveFn FlowCarver(const Hypergraph& hg, const HierarchySpec& spec,
                   const HtpFlowParams& params,
                   const CancellationToken& cancel, Rng& metric_rng,
                   bool* truncated) {
  return [&hg, &spec, &params, cancel, &metric_rng, truncated](
             const Hypergraph& sub, std::span<const double> sub_metric,
             double lb, double ub, Rng& rng) {
    if (params.metric_scope == MetricScope::kPerSubproblem &&
        sub.num_nodes() < hg.num_nodes() &&
        sub.total_size() > spec.capacity(0)) {
      FlowInjectionParams local = FlowMetricInjection(params, cancel);
      local.seed = metric_rng.next_u64();
      // A warm seed (ECO, docs/incremental.md) is sized for the *input*
      // hypergraph; per-subproblem locals run on different net sets, so
      // they always inject cold (exactly what a cold run would do).
      local.warm_metric.reset();
      const FlowInjectionResult local_metric =
          ComputeFlowMetric(params, sub, spec, local);
      if (local_metric.cancelled && truncated) *truncated = true;
      return BestOfCarves(sub, local_metric.metric, lb, ub, rng,
                          params.carver, cancel);
    }
    return BestOfCarves(sub, sub_metric, lb, ub, rng, params.carver, cancel);
  };
}

HtpFlowResult RunHtpFlow(const Hypergraph& hg, const HierarchySpec& spec,
                         const HtpFlowParams& params) {
  HTP_CHECK(params.iterations >= 1);
  HTP_CHECK(params.constructions_per_metric >= 1);
  obs::PhaseScope run_span(t_run);
  c_runs.Add();
  // The deterministic iteration cap truncates the plan up front; because
  // streams are forked in serial order below, the capped run equals the
  // uncapped run's first `planned` iterations bit for bit.
  const std::size_t planned =
      params.budget.max_iterations > 0
          ? std::min(params.iterations, params.budget.max_iterations)
          : params.iterations;
  c_iterations.Add(planned);
  const CancellationToken cancel = StartBudget(params.budget, params.cancel);
  Rng master(params.seed);

  std::vector<IterationStreams> streams;
  streams.reserve(planned);
  for (std::size_t iter = 0; iter < planned; ++iter) {
    // Braced init evaluates left to right — the serial draw order.
    streams.push_back(IterationStreams{master.fork(iter).next_u64(),
                                       master.fork(2000 + iter),
                                       master.fork(1000 + iter)});
  }

  // Each iteration fills exactly its own slot; with threads == 1 this runs
  // inline on the calling thread. Exceptions (e.g. infeasible instances)
  // propagate from the lowest failing iteration regardless of thread count.
  // Safepoint: between outer iterations — a fired token skips whole
  // iterations, except iteration 0, which carries the floor guarantee.
  std::vector<IterationOutcome> outcomes(planned);
  ParallelFor(params.threads, planned, [&](std::size_t iter) {
    if (iter != 0 && cancel.Cancelled()) {
      outcomes[iter].skipped = true;
      return;
    }
    // The span lands on the lane of whichever worker ran this iteration.
    obs::PhaseScope iteration_span(t_iteration, "iter", iter);
    outcomes[iter] =
        RunIteration(hg, spec, params, streams[iter], cancel, iter == 0);
    const IterationOutcome& out = outcomes[iter];
    // Journaled from whichever worker ran the iteration; the record's
    // payload is a function of the pre-forked stream alone, so the drained
    // (name, fields)-ordered journal is thread-count-invariant.
    e_iteration.Record(
        {{"iter", static_cast<double>(iter)},
         {"seed", static_cast<double>(streams[iter].injection_seed)},
         {"injections", static_cast<double>(out.stats.injections)},
         {"metric_cost", out.stats.metric_cost},
         {"constructive_cost", out.stats.best_partition_cost},
         {"converged", out.stats.metric_converged ? 1.0 : 0.0},
         {"truncated", out.truncated ? 1.0 : 0.0}});
  });

  // Deterministic reduction: the serial loop kept the first strictly
  // cheaper construction, i.e. the lowest (iteration, construction) index
  // achieving the minimum cost — reproduce that tie-break exactly.
  // Skipped/fully-truncated iterations have no partition and never win;
  // iteration 0 always has one (the floor guarantee).
  std::size_t winner = planned;
  std::size_t skipped = 0;
  bool token_truncated = false;
  for (std::size_t i = 0; i < planned; ++i) {
    if (outcomes[i].skipped) {
      ++skipped;
      continue;
    }
    token_truncated |= outcomes[i].truncated;
    if (!outcomes[i].best_partition) continue;
    if (winner == planned ||
        outcomes[i].best_cost < outcomes[winner].best_cost)
      winner = i;
  }
  token_truncated |= skipped > 0;
  HTP_CHECK_MSG(winner != planned,
                "anytime floor violated: no construction completed");

  HtpFlowResult result{std::move(*outcomes[winner].best_partition),
                       outcomes[winner].best_cost,
                       {},
                       true,
                       StopReason::kCompleted,
                       {}};
  if (params.keep_best_metric)
    result.best_metric = std::move(outcomes[winner].metric);
  result.iterations.reserve(planned - skipped);
  for (IterationOutcome& out : outcomes)
    if (!out.skipped) result.iterations.push_back(out.stats);

  if (token_truncated) {
    // A fired token is the runtime event that actually cut the run, so it
    // outranks the deterministic iteration cap.
    const StopReason fired = cancel.FiredReason();
    result.stop_reason =
        fired != StopReason::kCompleted ? fired : StopReason::kCancelled;
    result.completed = false;
    c_cancelled.Add();
  } else if (planned < params.iterations) {
    result.stop_reason = StopReason::kIterationCap;
    result.completed = false;
  }
  if (skipped > 0) c_iterations_skipped.Add(skipped);
  // Finite only when a deadline was armed (via params.budget or an already
  // deadline-bearing params.cancel), so unbudgeted totals stay untouched.
  const double remaining = cancel.RemainingSeconds();
  if (remaining < Budget::kNoTimeLimit) {
    c_budget_remaining_ms.Add(
        static_cast<std::uint64_t>(remaining * 1000.0));
  }
  return result;
}

}  // namespace htp
