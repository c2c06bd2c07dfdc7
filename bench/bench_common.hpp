// Shared plumbing for the table/figure regeneration harnesses.
//
// Every bench prints a self-describing header (what it regenerates, which
// paper artifact it corresponds to, the seeds used) followed by an aligned
// text table, so `for b in build/bench/*; do $b; done` produces a readable
// report. Numeric flags parse strictly (tools/numeric_flags.hpp): a
// malformed or out-of-range value exits 2. Flags:
//   --quick            smaller circuit set / fewer iterations
//   --seed <u64>       master seed (default 1997)
//   --threads <n>      worker threads for FLOW's outer iterations
//                      (0 = all hardware threads, default 1, at most 256);
//                      FLOW results are bit-identical for every value, only
//                      the wall clock changes
//   --metric-threads <n>  worker threads for the candidate scan inside each
//                      flow-injection round (0 = all hardware threads,
//                      default 1, at most 256); same bit-identity guarantee
//   --time-budget <s>  wall-clock budget per FLOW run (seconds); a fired
//                      deadline returns the best partition found so far
//                      (anytime semantics, docs/robustness.md) — costs are
//                      then budget-dependent, not comparable to unbudgeted
//                      tables
//   --max-rounds <n>   deterministic cap on Algorithm-2 worklist rounds per
//                      metric computation (bit-identical for every thread
//                      count, unlike --time-budget)
//   --bench-dir <dir>  load real ISCAS85 .bench files named <circuit>.bench
//                      from <dir> instead of the calibrated generators
//   --obs-jsonl <file> append the telemetry snapshot of each measured
//                      section as JSONL rows (obs/sinks.hpp), one line per
//                      counter/timer, tagged with bench name and scope —
//                      the machine-readable per-phase breakdown
//   --report-dir <dir> write one RunReport JSON (obs/report.hpp) per
//                      measured section into <dir>, named
//                      <bench>.<scope>.report.json — the schema-versioned
//                      artifact scripts/obs_report.py validates and diffs
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/csr_view.hpp"
#include "graph/dijkstra.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/sinks.hpp"
#include "runtime/budget.hpp"
#include "tools/numeric_flags.hpp"

namespace htp::bench {

struct Options {
  bool quick = false;
  std::uint64_t seed = 1997;
  std::size_t trials = 1;  ///< independent seeds averaged by some benches
  std::size_t threads = 1;  ///< FLOW worker threads (0 = hardware)
  std::size_t metric_threads = 1;  ///< scan threads per injection round
  /// Anytime knobs applied to every FLOW run (--time-budget / --max-rounds;
  /// default unlimited = the exact unbudgeted tables).
  Budget budget;
  std::string bench_dir;
  std::string obs_jsonl;  ///< JSONL telemetry stream path ("" = off)
  std::string report_dir;  ///< RunReport output directory ("" = off)

  /// True when --time-budget was given: results depend on wall clock, so
  /// the benches must not treat parallel/serial cost divergence as a bug.
  bool Deadlined() const { return budget.HasDeadline(); }
};

/// The budget every FLOW run of a bench should inherit.
inline Budget FlowBudget(const Options& options) { return options.budget; }

inline Options ParseArgs(int argc, char** argv) {
  Options options;
  int i = 1;
  try {
    for (; i < argc; ++i) {
      auto arg = [&](const char* name) {
        return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
      };
      if (std::strcmp(argv[i], "--quick") == 0) {
        options.quick = true;
      } else if (arg("--seed")) {
        options.seed = tools::ParseUnsigned(argv[++i]);
      } else if (arg("--trials")) {
        options.trials =
            std::max<std::size_t>(1, tools::ParseUnsigned(argv[++i]));
      } else if (arg("--threads")) {
        options.threads = tools::ParseUnsigned(argv[++i], tools::kMaxThreads);
      } else if (arg("--metric-threads")) {
        options.metric_threads =
            tools::ParseUnsigned(argv[++i], tools::kMaxThreads);
      } else if (arg("--time-budget")) {
        options.budget.time_budget_seconds = tools::ParseDouble(argv[++i]);
      } else if (arg("--max-rounds")) {
        options.budget.max_rounds = tools::ParseUnsigned(argv[++i]);
      } else if (arg("--bench-dir")) {
        options.bench_dir = argv[++i];
      } else if (arg("--obs-jsonl")) {
        options.obs_jsonl = argv[++i];
      } else if (arg("--report-dir")) {
        options.report_dir = argv[++i];
      } else {
        std::fprintf(stderr,
                     "unknown argument '%s' (supported: --quick, --seed N, "
                     "--trials N, --threads N, --metric-threads N, "
                     "--time-budget S, --max-rounds N, --bench-dir DIR, "
                     "--obs-jsonl FILE, --report-dir DIR)\n",
                     argv[i]);
        std::exit(2);
      }
    }
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    std::fprintf(stderr, "malformed or out-of-range value '%s' for %s\n",
                 argv[i], argv[i - 1]);
    std::exit(2);
  }
  return options;
}

/// The circuits of Tables 1-3, loaded from real .bench files when
/// --bench-dir is given, synthesized otherwise. --quick keeps the two
/// smallest plus the multiplier.
inline std::vector<std::pair<std::string, Hypergraph>> LoadSuite(
    const Options& options) {
  std::vector<std::pair<std::string, Hypergraph>> suite;
  for (const SuiteEntry& entry : Iscas85Suite()) {
    if (options.quick && entry.name != "c1355" && entry.name != "c2670" &&
        entry.name != "c6288")
      continue;
    if (!options.bench_dir.empty()) {
      suite.emplace_back(
          entry.name,
          ParseBenchFile(options.bench_dir + "/" + entry.name + ".bench").hg);
    } else {
      suite.emplace_back(entry.name, MakeIscas85Like(entry.name, options.seed));
    }
  }
  return suite;
}

/// Wall-clock seconds of a callable's execution.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Fixed deterministic workload (independent of the suite under test): full
/// CSR Dijkstra sweeps over a mid-size generated circuit. Scales with the
/// host's single-core speed the same way the metric phase does, which is
/// what makes wall ratios normalized by it comparable across machines.
/// Shared by every bench that feeds the regression gate (regression_suite,
/// multilevel_scale) so their "normalized_wall" columns share one unit.
inline double CalibrationSeconds() {
  const Hypergraph hg = MakeIscas85Like("c1355", 7);
  const CsrView view(hg);
  const std::vector<double> len(hg.num_nets(), 1.0);
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  double sink = 0.0;
  const double seconds = TimeSeconds([&] {
    for (int rep = 0; rep < 6; ++rep)
      for (NodeId source = 0; source < hg.num_nodes(); source += 7) {
        workspace.Grow(
            view, source, len,
            [](const GrowState&) { return GrowAction::kContinue; }, tree);
        sink += tree.dist[tree.order.back()];
      }
  });
  if (sink < 0.0) std::printf("impossible\n");  // keep the work observable
  return seconds;
}

/// Value of a counter in a snapshot (0 when absent, e.g. obs off).
inline std::uint64_t CounterTotal(const obs::Snapshot& snap,
                                  std::string_view name) {
  for (const obs::CounterValue& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// Scopes telemetry totals to one measured section (a circuit, a parameter
/// setting): resets the registry on construction; on destruction emits the
/// section's snapshot as JSONL (when --obs-jsonl is set) and optionally a
/// one-line per-phase breakdown under the section's table row. Everything
/// degrades to a no-op when obs is compiled out (snapshots are empty).
class ObsSection {
 public:
  ObsSection(const Options& options, const char* bench, std::string scope,
             bool print_phases = true)
      : options_(options), bench_(bench), scope_(std::move(scope)),
        print_phases_(print_phases) {
    obs::ResetAll();
  }
  ~ObsSection() {
    const obs::Snapshot snap = obs::TakeSnapshot();
    if (!options_.obs_jsonl.empty()) {
      std::ofstream out(options_.obs_jsonl, std::ios::app);
      if (out) obs::WriteJsonlSnapshot(out, snap, bench_, scope_);
    }
    if (!options_.report_dir.empty()) {
      obs::RunReportBuilder rb(bench_);
      rb.MetaString("scope", scope_);
      rb.MetaNumber("seed", static_cast<double>(options_.seed));
      rb.WallNumber("threads", static_cast<double>(options_.threads));
      rb.WallNumber("metric_threads",
                    static_cast<double>(options_.metric_threads));
      std::error_code ec;  // best-effort: a failed mkdir surfaces below
      std::filesystem::create_directories(options_.report_dir, ec);
      const std::string path = options_.report_dir + "/" + bench_ + "." +
                               scope_ + ".report.json";
      std::ofstream out(path);
      if (out)
        out << rb.Render(snap, obs::DrainEvents()) << '\n';
      else
        std::fprintf(stderr, "warning: cannot write RunReport to %s\n",
                     path.c_str());
    }
    if (print_phases_) PrintPhaseBreakdown(snap);
  }
  ObsSection(const ObsSection&) = delete;
  ObsSection& operator=(const ObsSection&) = delete;

  /// Compact per-phase line, e.g.
  ///   phases: metric 12.3ms/8 | build 4.5ms/8 | carve 3.2ms/96 | fm ...
  /// Timer totals are CPU time summed over workers, so with --threads > 1
  /// they can exceed the wall clock.
  static void PrintPhaseBreakdown(const obs::Snapshot& snap) {
    static constexpr struct { const char* label; const char* timer; } kPhases[] = {
        {"metric", "flow.compute_metric"},
        {"build", "build.partition"},
        {"carve", "carve.find_cut"},
        {"mst", "carve.mst_split"},
        {"fm", "fm.refine"},
    };
    std::string line;
    char buf[96];
    for (const auto& phase : kPhases) {
      for (const obs::TimerValue& t : snap.timers) {
        if (t.name != phase.timer || t.count == 0) continue;
        std::snprintf(buf, sizeof buf, "%s%s %.1fms/%llu",
                      line.empty() ? "" : " | ", phase.label,
                      static_cast<double>(t.total_ns) / 1e6,
                      static_cast<unsigned long long>(t.count));
        line += buf;
      }
    }
    if (!line.empty()) std::printf("  phases: %s\n", line.c_str());
  }

 private:
  const Options& options_;
  const char* bench_;
  std::string scope_;
  bool print_phases_;
};

inline void PrintHeader(const char* artifact, const char* description,
                        const Options& options) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("source circuits: %s | seed=%llu%s\n",
              options.bench_dir.empty()
                  ? "calibrated ISCAS85-like generators (see DESIGN.md)"
                  : options.bench_dir.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.quick ? " | --quick" : "");
  if (options.threads != 1)
    std::printf("FLOW threads: %zu%s (results identical to --threads 1)\n",
                options.threads, options.threads == 0 ? " (all hardware)" : "");
  if (options.metric_threads != 1)
    std::printf(
        "metric scan threads: %zu%s (results identical to "
        "--metric-threads 1)\n",
        options.metric_threads,
        options.metric_threads == 0 ? " (all hardware)" : "");
  if (options.budget.HasDeadline())
    std::printf(
        "time budget: %.3gs per FLOW run (anytime best-so-far; costs are "
        "budget-dependent)\n",
        options.budget.time_budget_seconds);
  if (options.budget.max_rounds != 0)
    std::printf("round cap: %zu Algorithm-2 rounds per metric "
                "(deterministic)\n",
                options.budget.max_rounds);
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace htp::bench
