// Convergence trace of Algorithm 2 (figure-style series).
//
// The paper argues convergence qualitatively ("As d(e) increases for some
// edges in each iteration, more constraints in (5) are satisfied ...
// eventually all constraints are satisfied"). This bench prints the
// worklist size and the metric objective sum c(e) d(e) after every pass,
// so the monotone shrinkage of V' and the growth of the metric toward its
// final cost can be plotted directly.
#include "bench_common.hpp"
#include "core/flow_injection.hpp"

int main(int argc, char** argv) {
  using namespace htp;
  const bench::Options options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("SERIES", "Algorithm 2 convergence (worklist + metric "
                               "cost per pass)",
                     options);

  Hypergraph hg = MakeIscas85Like("c1355", options.seed);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());

  // Re-running with increasing round caps exposes the whole trajectory
  // through the public API (one row per cap; costs are cumulative states,
  // not re-randomized: the seed fixes the whole run). The two telemetry
  // columns (Dijkstra pops during the metric computation, its CPU time)
  // come from the obs snapshot.
  std::printf("%8s %12s %14s %12s %10s %14s %12s\n", "rounds", "violated",
              "injections", "metric cost", "converged", "dijkstra pops",
              "metric ms");
  ViolationScanner scanner(hg, spec, 1);
  const std::size_t caps[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
  for (std::size_t cap : caps) {
    bench::ObsSection obs_section(options, "convergence_series",
                                  "cap=" + std::to_string(cap),
                                  /*print_phases=*/false);
    FlowInjectionParams params;
    params.seed = options.seed;
    params.max_rounds = cap;
    if (options.budget.max_rounds != 0)
      params.max_rounds =
          std::min(params.max_rounds, options.budget.max_rounds);
    params.cancel = StartBudget(options.budget);
    const FlowInjectionResult r = ComputeSpreadingMetric(hg, spec, params);
    // Snapshot before the feasibility recheck below adds its own Dijkstra
    // growth to the totals.
    const obs::Snapshot snap = obs::TakeSnapshot();
    double metric_ms = 0.0;
    for (const obs::TimerValue& t : snap.timers)
      if (t.name == "flow.compute_metric")
        metric_ms = static_cast<double>(t.total_ns) / 1e6;
    // Count still-violated sources under the produced metric.
    std::size_t violated = 0;
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      if (scanner.FindViolationFrom(v, r.metric)) ++violated;
    std::printf("%8zu %12zu %14zu %12.2f %10s %14llu %12.2f\n", r.rounds,
                violated, r.injections, r.metric_cost,
                r.converged ? "yes" : "no",
                static_cast<unsigned long long>(
                    bench::CounterTotal(snap, "dijkstra.pops")),
                metric_ms);
    if (r.converged) break;
  }
  return 0;
}
