// htp_cli — command-line hierarchical tree partitioner.
//
// Reads an ISCAS85 .bench netlist (or one of the built-in ISCAS85-like
// circuits), partitions it into a K-ary hierarchy, optionally refines with
// the generalized FM improver, and writes the partition in the
// htp-partition text format (core/partition_io.hpp).
//
//   htp_cli --bench c880.bench --height 4 --algo flow --refine
//           --out c880.part
//   htp_cli --circuit c2670 --height 3 --branching 2 --weights 1,4,16
//   htp_cli --circuit c1355 --stats --trace c1355.trace.json
//
// The run pipeline itself lives in server/session.hpp (RunSession); this
// file is the thin driver: parse argv into a SessionRequest, run it with
// no cache, print the same summary lines the pre-split CLI printed, and
// write the requested artifacts. htp_serve drives the identical pipeline,
// which is what keeps daemon partitions bit-identical to CLI partitions.
//
// Exit codes: 0 success, 2 bad usage (including malformed numeric
// arguments), 1 runtime failure.
#include <cstdio>
#include <fstream>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dot_export.hpp"
#include "core/partition_io.hpp"
#include "incremental/netlist_delta.hpp"
#include "incremental/warm_start.hpp"
#include "obs/obs.hpp"
#include "obs/sinks.hpp"
#include "runtime/thread_pool.hpp"
#include "server/session.hpp"
#include "tools/numeric_flags.hpp"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--bench FILE | --circuit NAME] [options]\n"
               "  --bench FILE       ISCAS85 .bench netlist to partition\n"
               "  --circuit NAME     built-in circuit (c1355..c7552); "
               "default c1355\n"
               "  --algo A           flow | flow-mst | rfm | gfm "
               "(default flow)\n"
               "  --height H         hierarchy height (default 4)\n"
               "  --branching K      children per block (default 2)\n"
               "  --slack S          capacity slack fraction (default 0.10)\n"
               "  --weights w0,w1..  per-level cost weights (default all 1)\n"
               "  --iterations N     Algorithm-1 iterations (default 4)\n"
               "  --threads T        worker threads for FLOW iterations; "
               "0 = all\n"
               "                     hardware threads (default 0; at most "
               "256);\n"
               "                     results are identical for every T\n"
               "  --metric-threads M worker threads for the candidate scan\n"
               "                     inside each flow-injection round "
               "(default 1;\n"
               "                     0 = all; at most 256); results are "
               "identical\n"
               "                     for every M\n"
               "  --time-budget SEC  wall-clock budget in seconds; when it "
               "fires,\n"
               "                     the best partition found so far is "
               "returned\n"
               "                     and the run reports stop_reason="
               "deadline\n"
               "  --max-rounds N     cap Algorithm-2 worklist rounds per "
               "metric\n"
               "                     (deterministic, unlike --time-budget)\n"
               "  --multilevel       coarsen -> partition -> uncoarsen "
               "pipeline\n"
               "                     for large netlists (flow algos only; "
               "see\n"
               "                     docs/scaling.md)\n"
               "  --coarsen-threshold N\n"
               "                     stop coarsening at N supernodes "
               "(default 800);\n"
               "                     inputs already below N run flat\n"
               "  --refine           apply generalized FM afterwards\n"
               "  --delta FILE       htp-delta v1 netlist edit applied to "
               "the\n"
               "                     resolved netlist before partitioning "
               "(ECO;\n"
               "                     flow algos only, see "
               "docs/incremental.md)\n"
               "  --warm-start FILE  htp-warm-start v1 state of a prior "
               "run;\n"
               "                     resumes flow injection and clones the "
               "prior\n"
               "                     partition's untouched root subtrees\n"
               "  --warm-out FILE    write this run's warm-start state "
               "(metric +\n"
               "                     final partition) for the next ECO "
               "run\n"
               "  --seed S           random seed (default 1)\n"
               "  --out FILE         write the partition (default stdout "
               "summary only)\n"
               "  --dot FILE         write a Graphviz rendering of the "
               "tree\n"
               "  --stats[=FILE]     print (or write) the telemetry stats "
               "report\n"
               "  --trace FILE       write a Chrome trace_event JSON of the "
               "run\n"
               "                     (open in chrome://tracing or Perfetto)\n"
               "  --report FILE      write the schema-versioned RunReport "
               "JSON\n"
               "                     (deterministic journal + wall stats; "
               "validate,\n"
               "                     render, or diff with "
               "scripts/obs_report.py)\n"
               "  --obs-jsonl FILE   write the telemetry snapshot as JSONL "
               "rows\n"
               "                     (one object per counter/timer/"
               "histogram)\n",
               argv0);
}

using htp::tools::ParseDouble;
using htp::tools::ParseUnsigned;

std::vector<double> ParseWeights(const std::string& csv) {
  std::vector<double> weights;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string piece = comma == std::string::npos
                                  ? csv.substr(start)
                                  : csv.substr(start, comma - start);
    weights.push_back(ParseDouble(piece));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return weights;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace htp;
  serve::SessionRequest request;
  request.circuit = "c1355";
  std::string out_file;
  std::string warm_out_file;
  std::string dot_file, trace_file, stats_file, report_file, jsonl_file;
  std::string weights_csv;
  bool stats = false;

  // Bad usage — unknown flags, missing values, and malformed or
  // out-of-range numbers alike — exits 2 with the usage message, as
  // docs/file-formats.md promises.
  try {
    for (int i = 1; i < argc; ++i) {
      auto arg = [&](const char* name) {
        if (std::strcmp(argv[i], name) != 0) return false;
        if (i + 1 >= argc) {
          Usage(argv[0]);
          std::exit(2);
        }
        return true;
      };
      if (arg("--bench")) request.bench_file = argv[++i];
      else if (arg("--circuit")) request.circuit = argv[++i];
      else if (arg("--algo")) request.algo = argv[++i];
      else if (arg("--height"))
        request.height = static_cast<Level>(
            ParseUnsigned(argv[++i], std::numeric_limits<Level>::max()));
      else if (arg("--branching")) request.branching = ParseUnsigned(argv[++i]);
      else if (arg("--slack")) request.slack = ParseDouble(argv[++i]);
      else if (arg("--weights")) weights_csv = argv[++i];
      else if (arg("--iterations"))
        request.iterations = ParseUnsigned(argv[++i]);
      else if (arg("--threads"))
        request.threads = ParseUnsigned(argv[++i], tools::kMaxThreads);
      else if (arg("--metric-threads"))
        request.metric_threads = ParseUnsigned(argv[++i], tools::kMaxThreads);
      else if (arg("--time-budget"))
        request.budget.time_budget_seconds = ParseDouble(argv[++i]);
      else if (arg("--max-rounds"))
        request.budget.max_rounds = ParseUnsigned(argv[++i]);
      else if (arg("--coarsen-threshold"))
        request.coarsen_threshold = ParseUnsigned(argv[++i]);
      else if (std::strcmp(argv[i], "--multilevel") == 0)
        request.multilevel = true;
      else if (arg("--seed")) request.seed = ParseUnsigned(argv[++i]);
      else if (arg("--out")) out_file = argv[++i];
      else if (arg("--dot")) dot_file = argv[++i];
      else if (arg("--trace")) trace_file = argv[++i];
      else if (arg("--report")) report_file = argv[++i];
      else if (arg("--obs-jsonl")) jsonl_file = argv[++i];
      else if (std::strcmp(argv[i], "--stats") == 0) stats = true;
      else if (std::strncmp(argv[i], "--stats=", 8) == 0) {
        stats = true;
        stats_file = argv[i] + 8;
      }
      else if (arg("--delta")) request.delta_file = argv[++i];
      else if (arg("--warm-start")) request.warm_file = argv[++i];
      else if (arg("--warm-out")) {
        warm_out_file = argv[++i];
        request.emit_warm_state = true;
      }
      else if (std::strcmp(argv[i], "--refine") == 0) request.refine = true;
      else if (std::strcmp(argv[i], "--help") == 0) { Usage(argv[0]); return 0; }
      else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        Usage(argv[0]);
        return 2;
      }
    }
    if (!weights_csv.empty()) {
      request.weights = ParseWeights(weights_csv);
      if (request.weights.size() != request.height) {
        std::fprintf(stderr,
                     "error: --weights needs exactly --height values\n");
        Usage(argv[0]);
        return 2;
      }
    }
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "error: malformed numeric argument\n");
    Usage(argv[0]);
    return 2;
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "error: numeric argument out of range\n");
    Usage(argv[0]);
    return 2;
  }

  if (!trace_file.empty()) obs::SetTracing(true);
  // Deterministic lane naming: the driver thread is "main", pool workers
  // are "worker-<i>" (named by the runtime), so repeated traces line up.
  obs::NameThisThread("main");
  request.collect_report = !report_file.empty();

  try {
    const serve::SessionResult run = serve::RunSession(request, nullptr);
    const Hypergraph& hg = *run.netlist;
    std::printf("netlist: %u nodes, %u nets, %zu pins\n", hg.num_nodes(),
                hg.num_nets(), hg.num_pins());
    std::printf("hierarchy: %s\n", run.spec.ToString().c_str());

    if (request.algo == "flow" || request.algo == "flow-mst") {
      // Self-describing runs: --threads 0 silently meant "all hardware
      // threads", which made timings impossible to interpret after the
      // fact; print the resolved worker counts up front.
      std::printf(
          "flow: %zu iterations on %zu threads (--threads %zu), "
          "%zu scan threads (--metric-threads %zu)\n",
          request.iterations, ResolveThreadCount(request.threads),
          request.threads, ResolveThreadCount(request.metric_threads),
          request.metric_threads);
      if (run.used_multilevel) {
        std::printf(
            "multilevel: %zu coarsening levels, coarsest %u nodes, "
            "coarse cost %.0f%s\n",
            run.coarsen_levels, run.coarsest_nodes, run.coarse_cost,
            run.feasibility_fallbacks
                ? (" (" + std::to_string(run.feasibility_fallbacks) +
                   " infeasible levels discarded)")
                      .c_str()
                : "");
        for (std::size_t i = 0; i < run.level_stats.size(); ++i) {
          const MultilevelLevelStats& s = run.level_stats[i];
          std::printf("  uncoarsen level %zu: %u nodes, %.0f -> %.0f "
                      "(%zu FM passes)\n",
                      run.level_stats.size() - 1 - i, s.nodes,
                      s.projected_cost, s.refined_cost, s.fm_passes);
        }
        if (!request.budget.Unlimited())
          std::printf("multilevel: stop_reason=%s\n",
                      StopReasonName(run.stop_reason));
      } else if (!request.budget.Unlimited()) {
        std::printf("flow: stop_reason=%s (%zu of %zu iterations ran)\n",
                    StopReasonName(run.stop_reason), run.iterations.size(),
                    request.iterations);
      }
    }
    if (run.eco) {
      std::printf(
          "eco: warm=%s, %zu blocks reused, %zu re-carved%s, "
          "warm injections %zu%s\n",
          run.warm_source.c_str(), run.eco_blocks_reused,
          run.eco_blocks_recarved, run.eco_full_rebuild ? " (full rebuild)" : "",
          run.eco_warm_injections,
          run.eco_converged ? "" : " (metric not converged)");
    }
    std::printf("%s cost: %.0f\n", request.algo.c_str(), run.cost);

    if (run.refined) {
      std::printf("after FM refinement: %.0f (%zu moves kept, %zu passes%s)\n",
                  run.fm.final_cost, run.fm.moves_kept, run.fm.passes,
                  run.fm.completed ? "" : ", stopped by budget");
    }

    if (!out_file.empty()) {
      WritePartitionFile(*run.partition, out_file);
      std::printf("partition written to %s\n", out_file.c_str());
    }
    if (!warm_out_file.empty()) {
      std::ofstream warm(warm_out_file, std::ios::binary);
      if (!warm) throw Error("cannot open for writing: " + warm_out_file);
      warm << run.warm_state;
      std::printf("warm-start state written to %s\n", warm_out_file.c_str());
    }
    if (!dot_file.empty()) {
      std::ofstream dot(dot_file);
      if (!dot) throw Error("cannot open for writing: " + dot_file);
      dot << PartitionToDot(*run.partition, run.spec);
      std::printf("graphviz tree written to %s\n", dot_file.c_str());
    }
    if (!trace_file.empty()) {
      std::ofstream trace(trace_file);
      if (!trace) throw Error("cannot open for writing: " + trace_file);
      obs::WriteChromeTrace(trace, obs::DrainTrace(), obs::TakeLaneNames());
      std::printf("chrome trace written to %s%s\n", trace_file.c_str(),
                  obs::TracingEnabled()
                      ? ""
                      : " (empty: built with HTP_OBS_ENABLED=OFF)");
    }
    if (!report_file.empty()) {
      std::ofstream report(report_file);
      if (!report) throw Error("cannot open for writing: " + report_file);
      report << run.report << '\n';
      std::printf("run report written to %s\n", report_file.c_str());
    }
    if (!jsonl_file.empty()) {
      std::ofstream jsonl(jsonl_file);
      if (!jsonl) throw Error("cannot open for writing: " + jsonl_file);
      obs::WriteJsonlSnapshot(
          jsonl, obs::TakeSnapshot(), "htp_cli",
          request.bench_file.empty() ? request.circuit : request.bench_file);
      std::printf("obs jsonl written to %s\n", jsonl_file.c_str());
    }
    if (stats) {
      const std::string report = obs::RenderStatsReport(obs::TakeSnapshot());
      if (stats_file.empty()) {
        std::fputs(report.c_str(), stdout);
      } else {
        std::ofstream out(stats_file);
        if (!out) throw Error("cannot open for writing: " + stats_file);
        out << report;
        std::printf("stats report written to %s\n", stats_file.c_str());
      }
    }
  } catch (const DeltaError& e) {
    // Malformed --delta / --warm-start input is a usage error, like
    // malformed numeric flags: exit 2 with the usage text
    // (docs/incremental.md; enforced by the WILL_FAIL CLI smokes).
    std::fprintf(stderr, "error: %s\n", e.what());
    Usage(argv[0]);
    return 2;
  } catch (const WarmStartError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    Usage(argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
