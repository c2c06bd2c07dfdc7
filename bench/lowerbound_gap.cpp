// Lemma 2 in practice: on small instances, compare
//   * the exact LP optimum of (P1) (cutting-plane simplex),
//   * the heuristic flow-injection metric's objective,
//   * the true optimal partition cost (exhaustive),
//   * the FLOW heuristic's partition cost.
// Paper ordering that must hold: LP <= OPT <= FLOW. The bench exits 1 when
// a row breaks it, or when the LP does not converge to an optimum or the
// exhaustive search finds no partition, so CI runs it as a check. The
// flow-injected metric is feasible for (5) but not optimal, so its
// objective lands at or above the LP value (it is NOT itself a certified
// lower bound).
#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "core/paper_examples.hpp"
#include "lp/spreading_lp.hpp"
#include "netlist/rng.hpp"
#include "partition/exhaustive.hpp"

namespace {

htp::Hypergraph SmallRandom(htp::NodeId n, std::size_t extra,
                            std::uint64_t seed) {
  htp::Rng rng(seed);
  htp::HypergraphBuilder builder;
  for (htp::NodeId v = 0; v < n; ++v) builder.add_node(1.0);
  for (htp::NodeId v = 1; v < n; ++v)
    builder.add_net({static_cast<htp::NodeId>(rng.next_below(v)), v});
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<htp::NodeId>(rng.next_below(n));
    const auto b = static_cast<htp::NodeId>(rng.next_below(n));
    if (a != b) builder.add_net({a, b});
  }
  return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace htp;
  const bench::Options options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("LEMMA 2", "LP lower bound vs optimum vs FLOW on small "
                                "instances",
                     options);
  std::printf("%-12s %10s %10s %10s %12s %8s\n", "instance", "LP bound",
              "optimum", "FLOW", "flow-metric", "LP/OPT");

  struct Case {
    std::string name;
    Hypergraph hg;
    HierarchySpec spec;
  };
  std::vector<Case> cases;
  cases.push_back({"figure2", Figure2Graph(), Figure2Spec()});
  const std::size_t count = options.quick ? 2 : 5;
  for (std::size_t i = 0; i < count; ++i) {
    Hypergraph hg = SmallRandom(10, 8, options.seed + i);
    HierarchySpec spec({{4.0, 2, 1.0}, {7.0, 2, 2.0}, {10.0, 2, 1.0}});
    cases.push_back({"rand10-" + std::to_string(i), std::move(hg), spec});
  }

  // Absolute slack on both comparisons for the LP's floating-point
  // round-off: figure 2's bound is 20 + 1.07e-13 against OPT = 20.
  constexpr double kSlack = 1e-6;
  std::size_t violations = 0;
  for (Case& c : cases) {
    const SpreadingLpResult lp = SolveSpreadingLp(c.hg, c.spec);
    const auto exact = ExhaustiveHtp(c.hg, c.spec);
    HtpFlowParams params;
    params.iterations = 4;
    params.seed = options.seed;
    params.threads = options.threads;
    params.budget = bench::FlowBudget(options);
    const HtpFlowResult flow = RunHtpFlow(c.hg, c.spec, params);
    const double opt = exact ? exact->cost : -1.0;
    std::printf("%-12s %10.3f %10.0f %10.0f %12.3f %8.3f\n", c.name.c_str(),
                lp.lower_bound, opt, flow.cost,
                flow.iterations.back().metric_cost,
                opt > 0 ? lp.lower_bound / opt : 1.0);
    const char* broken = nullptr;
    if (lp.status != LpStatus::kOptimal || !lp.converged)
      broken = "the LP did not converge to an optimum";
    else if (!exact)
      broken = "the exhaustive search found no partition";
    else if (lp.lower_bound > opt + kSlack)
      broken = "LP bound > optimum";
    else if (opt > flow.cost + kSlack)
      broken = "optimum > FLOW";
    if (broken) {
      std::fprintf(stderr, "%s: invariant broken: %s\n", c.name.c_str(),
                   broken);
      ++violations;
    }
  }
  std::printf("\ninvariant: LP bound <= optimum <= FLOW on every row\n");
  return violations == 0 ? 0 : 1;
}
