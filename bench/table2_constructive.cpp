// Regenerates TABLE 2 of the paper: "Partitioning results of three
// algorithms" — the interconnection cost (Equation (1)) of the GFM, RFM,
// and FLOW constructive algorithms on the five ISCAS85 test cases, with the
// FLOW runtime, under the paper's experimental hierarchy (full binary tree
// of height 4, Section 4).
//
// Expected shape (the published cells did not survive the scan): "FLOW
// outperforms GFM and RFM in most cases, especially with significant
// improvements for circuits c2670 and c7552. However, the result for c6288
// by FLOW was worse than those by GFM and RFM."
#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "partition/gfm.hpp"
#include "partition/rfm.hpp"

int main(int argc, char** argv) {
  using namespace htp;
  const bench::Options options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("TABLE 2",
                     "partitioning results of the three constructive "
                     "algorithms (full binary tree, height 4)",
                     options);
  if (options.trials > 1)
    std::printf("costs are means over %zu independent seeds\n",
                options.trials);
  // With --threads != 1 or --metric-threads != 1 every FLOW run is repeated
  // fully serially, so the table also reports the parallel wall-clock
  // speedup (costs are identical by construction; any mismatch aborts the
  // bench). A --time-budget makes costs wall-clock-dependent, which voids
  // the bit-identity premise, so the divergence check is downgraded to a
  // warning then.
  const bool report_speedup =
      options.threads != 1 || options.metric_threads != 1;
  std::printf("%-8s %10s %10s %10s %12s %12s %12s", "circuit", "GFM", "RFM",
              "FLOW", "GFM CPU(s)", "RFM CPU(s)", "FLOW CPU(s)");
  if (report_speedup) std::printf(" %12s %8s", "FLOW@1(s)", "speedup");
  std::printf("\n");

  double flow_wins = 0, cases = 0;
  for (const auto& [name, hg] : bench::LoadSuite(options)) {
    // Per-circuit telemetry scope: prints the per-phase breakdown under the
    // row and writes its RunReport under --report-dir. With --threads != 1
    // the totals include the serial reference re-runs.
    bench::ObsSection obs_section(options, "table2_constructive", name);
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());

    double gfm_cost = 0, rfm_cost = 0, flow_cost = 0;
    double gfm_t = 0, rfm_t = 0, flow_t = 0, flow_serial_t = 0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      const std::uint64_t seed = options.seed + trial * 7919;
      gfm_t += bench::TimeSeconds([&] {
        GfmParams p;
        p.seed = seed;
        gfm_cost += PartitionCost(RunGfm(hg, spec, p), spec);
      });
      rfm_t += bench::TimeSeconds([&] {
        RfmParams p;
        p.seed = seed;
        rfm_cost += PartitionCost(RunRfm(hg, spec, p), spec);
      });
      HtpFlowParams p;
      p.iterations = options.quick ? 2 : 4;
      p.seed = seed;
      p.threads = options.threads;
      p.budget = bench::FlowBudget(options);
      p.metric_threads = options.metric_threads;
      double cost = 0;
      flow_t += bench::TimeSeconds([&] { cost = RunHtpFlow(hg, spec, p).cost; });
      flow_cost += cost;
      if (report_speedup) {
        p.threads = 1;
        p.metric_threads = 1;
        double serial_cost = 0;
        flow_serial_t += bench::TimeSeconds(
            [&] { serial_cost = RunHtpFlow(hg, spec, p).cost; });
        if (serial_cost != cost) {
          if (options.Deadlined()) {
            std::fprintf(stderr,
                         "note: costs diverge under --time-budget "
                         "(expected; the deadline is schedule-dependent): "
                         "%s %.17g vs serial %.17g\n",
                         name.c_str(), cost, serial_cost);
          } else {
            std::fprintf(stderr,
                         "determinism violation on %s: threads=%zu "
                         "metric-threads=%zu cost %.17g != serial cost "
                         "%.17g\n",
                         name.c_str(), options.threads,
                         options.metric_threads, cost, serial_cost);
            return 1;
          }
        }
      }
    }
    const double n = static_cast<double>(options.trials);
    gfm_cost /= n;
    rfm_cost /= n;
    flow_cost /= n;
    std::printf("%-8s %10.0f %10.0f %10.0f %12.2f %12.2f %12.2f",
                name.c_str(), gfm_cost, rfm_cost, flow_cost, gfm_t / n,
                rfm_t / n, flow_t / n);
    if (report_speedup)
      std::printf(" %12.2f %7.2fx", flow_serial_t / n,
                  flow_t > 0 ? flow_serial_t / flow_t : 0.0);
    std::printf("\n");
    cases += 1;
    if (flow_cost <= std::min(gfm_cost, rfm_cost)) flow_wins += 1;
  }
  std::printf("\nFLOW best on %.0f of %.0f circuits "
              "(paper: best on 4 of 5, losing on c6288)\n",
              flow_wins, cases);
  return 0;
}
