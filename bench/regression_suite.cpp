// Performance-regression runner: times FLOW on the benchmark suite and
// emits a machine-readable BENCH_htp.json that scripts/bench_regression.py
// compares against the committed baseline (repo root BENCH_htp.json).
//
// Two classes of fields, compared differently:
//  * deterministic fields (cost, injections, dijkstra_pops) — bit-exact by
//    the library's determinism contract for every threads x metric-threads
//    combination, so the checker demands equality;
//  * wall-clock fields — machine-dependent, so each run also times a fixed
//    deterministic calibration kernel and reports per-circuit wall seconds
//    normalized by it. The checker compares the normalized ratios within a
//    tolerance, which transfers across hosts of different speeds. Each
//    circuit's FLOW run is timed bench::kGateRepetitions times, each
//    repetition right after one timing of the kernel, and both report their
//    minimum: on a shared host other load only adds time, and interleaving
//    lets both minima sample the same quiet spells. The repetitions must
//    agree on every deterministic field.
//
// Usage: regression_suite --json out.json [--quick] [--seed N]
//                         [--threads N] [--metric-threads N]
#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/htp_flow.hpp"

namespace {

struct CircuitRow {
  std::string name;
  double flow_wall_seconds = 0.0;
  double cost = 0.0;
  std::uint64_t injections = 0;
  std::uint64_t dijkstra_pops = 0;
  double metric_phase_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace htp;
  // Strip --json (ours) before handing the rest to the shared parser.
  std::string json_path;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else
      rest.push_back(argv[i]);
  }
  const bench::Options options =
      bench::ParseArgs(static_cast<int>(rest.size()), rest.data());
  bench::PrintHeader("REGRESSION",
                     "FLOW wall-clock + deterministic work counters per "
                     "circuit (see docs/benchmarks.md)",
                     options);

  double calibration = std::numeric_limits<double>::infinity();
  std::vector<CircuitRow> rows;
  for (const auto& [name, hg] : bench::LoadSuite(options)) {
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
    HtpFlowParams params;
    params.iterations = options.quick ? 2 : 4;
    params.seed = options.seed;
    params.threads = options.threads;
    params.metric_threads = options.metric_threads;
    CircuitRow row;
    row.name = name;
    for (int repetition = 0; repetition < bench::kGateRepetitions;
         ++repetition) {
      calibration = std::min(calibration, bench::CalibrationSample());
      obs::ResetAll();
      HtpFlowResult result{TreePartition(hg, spec.root_level())};
      const double wall =
          bench::TimeSeconds([&] { result = RunHtpFlow(hg, spec, params); });
      std::uint64_t injections = 0;
      for (const HtpFlowIteration& it : result.iterations)
        injections += it.injections;
      const obs::Snapshot snap = obs::TakeSnapshot();
      const std::uint64_t pops = bench::CounterTotal(snap, "dijkstra.pops");
      if (repetition > 0 && (result.cost != row.cost ||
                             injections != row.injections ||
                             pops != row.dijkstra_pops)) {
        std::fprintf(stderr, "%s: repetitions disagree on a deterministic "
                             "field\n", name.c_str());
        return 1;
      }
      row.cost = result.cost;
      row.injections = injections;
      row.dijkstra_pops = pops;
      if (repetition > 0 && wall >= row.flow_wall_seconds) continue;
      row.flow_wall_seconds = wall;
      for (const obs::TimerValue& t : snap.timers)
        if (t.name == "flow.compute_metric")
          row.metric_phase_ms = static_cast<double>(t.total_ns) / 1e6;
    }
    rows.push_back(std::move(row));
  }

  std::printf("calibration kernel: %.3fs\n", calibration);
  std::printf("%-8s %12s %12s %10s %14s %14s\n", "circuit", "FLOW(s)",
              "FLOW(norm)", "cost", "dijkstra pops", "metric ms");
  for (const CircuitRow& row : rows)
    std::printf("%-8s %12.3f %12.3f %10.0f %14llu %14.1f\n",
                row.name.c_str(), row.flow_wall_seconds,
                row.flow_wall_seconds / calibration, row.cost,
                static_cast<unsigned long long>(row.dijkstra_pops),
                row.metric_phase_ms);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n";
    out << "  \"schema\": \"htp-bench-regression-v1\",\n";
    out << "  \"quick\": " << (options.quick ? "true" : "false") << ",\n";
    out << "  \"seed\": " << options.seed << ",\n";
    out << "  \"threads\": " << options.threads << ",\n";
    out << "  \"metric_threads\": " << options.metric_threads << ",\n";
    out << "  \"calibration_seconds\": " << calibration << ",\n";
    out << "  \"circuits\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CircuitRow& r = rows[i];
      out << "    {\"name\": \"" << r.name << "\""
          << ", \"flow_wall_seconds\": " << r.flow_wall_seconds
          << ", \"normalized_wall\": " << r.flow_wall_seconds / calibration
          << ", \"cost\": " << r.cost
          << ", \"injections\": " << r.injections
          << ", \"dijkstra_pops\": " << r.dijkstra_pops
          << ", \"metric_phase_ms\": " << r.metric_phase_ms << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
