// Multilevel scaling harness: RunMultilevelFlow on generated Rent-style
// circuits of 10k / 50k / 100k nodes (docs/scaling.md). Reports the same
// row schema as regression_suite so scripts/bench_regression.py gates it
// against the "multilevel" section of BENCH_htp.json:
//
//   multilevel_scale --json out.json [--quick] [--seed N] [--threads N]
//                    [--metric-threads N]
//
// --quick keeps the 10k and 50k circuits (the CI gate); the full run adds
// 100k. Deterministic fields (cost, injections, dijkstra_pops, and fm_moves,
// the FM moves applied by the per-level refinement) are bit-exact for every
// threads x metric-threads combination — the multilevel pipeline inherits
// the flat driver's determinism contract (coarsening and refinement are
// serial and RNG-free). partition_hash is the FNV-1a hash of the partition
// text after an untimed whole-graph RefineHtpFm, the stage a `--refine`
// session runs next; it pins the partition itself, not only its cost.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/partition_io.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "partition/htp_fm.hpp"
#include "server/artifact_key.hpp"

namespace {

struct ScaleRow {
  std::string name;
  double flow_wall_seconds = 0.0;
  double cost = 0.0;
  std::uint64_t injections = 0;
  std::uint64_t dijkstra_pops = 0;
  std::uint64_t fm_moves = 0;
  std::string partition_hash;
  double metric_phase_ms = 0.0;
  std::size_t levels = 0;
  htp::NodeId coarsest_nodes = 0;
};

htp::Hypergraph ScaleCircuit(std::size_t gates, std::uint64_t seed) {
  htp::RentCircuitParams params;
  params.num_gates = gates;
  params.num_primary_inputs = gates / 25;
  params.seed = seed;
  return htp::RentCircuit(params);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace htp;
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
  bench::PrintHeader("MULTILEVEL SCALE",
                     "coarsen -> FLOW -> uncoarsen on 10k..100k-node Rent "
                     "circuits (docs/scaling.md)",
                     options);

  const double calibration = bench::CalibrationSeconds();
  std::printf("calibration kernel: %.3fs\n", calibration);
  std::printf("%-10s %9s %12s %12s %10s %14s %9s %7s %9s\n", "circuit",
              "nodes", "wall(s)", "wall(norm)", "cost", "dijkstra pops",
              "fm moves", "levels", "coarsest");

  std::vector<std::size_t> sizes{10000, 50000};
  if (!options.quick) sizes.push_back(100000);

  std::vector<ScaleRow> rows;
  for (const std::size_t gates : sizes) {
    const Hypergraph hg = ScaleCircuit(gates, options.seed);
    obs::ResetAll();
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
    MultilevelParams params;
    params.flow.iterations = options.quick ? 1 : 2;
    params.flow.seed = options.seed;
    params.flow.threads = options.threads;
    params.flow.metric_threads = options.metric_threads;
    params.flow.budget = bench::FlowBudget(options);
    ScaleRow row;
    row.name = "rent" + std::to_string(gates / 1000) + "k";
    MultilevelResult result{TreePartition(hg, spec.root_level())};
    row.flow_wall_seconds = bench::TimeSeconds(
        [&] { result = RunMultilevelFlow(hg, spec, params); });
    RequireValidPartition(result.partition, spec);
    row.cost = result.cost;
    row.levels = result.coarsen_levels;
    row.coarsest_nodes = result.coarsest_nodes;
    const obs::Snapshot snap = obs::TakeSnapshot();
    row.injections = bench::CounterTotal(snap, "flow.injections");
    row.dijkstra_pops = bench::CounterTotal(snap, "dijkstra.pops");
    row.fm_moves = bench::CounterTotal(snap, "fm.moves_applied");
    for (const obs::TimerValue& t : snap.timers)
      if (t.name == "flow.compute_metric")
        row.metric_phase_ms = static_cast<double>(t.total_ns) / 1e6;
    (void)RefineHtpFm(result.partition, spec);
    row.partition_hash = serve::HexKey(serve::HashBytes(
        serve::kFnvOffset, WritePartitionText(result.partition)));
    std::printf("%-10s %9u %12.3f %12.3f %10.0f %14llu %9llu %7zu %9u\n",
                row.name.c_str(), hg.num_nodes(), row.flow_wall_seconds,
                row.flow_wall_seconds / calibration, row.cost,
                static_cast<unsigned long long>(row.dijkstra_pops),
                static_cast<unsigned long long>(row.fm_moves), row.levels,
                row.coarsest_nodes);
    rows.push_back(std::move(row));
  }

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
      const ScaleRow& r = rows[i];
      out << "    {\"name\": \"" << r.name << "\""
          << ", \"flow_wall_seconds\": " << r.flow_wall_seconds
          << ", \"normalized_wall\": " << r.flow_wall_seconds / calibration
          << ", \"cost\": " << r.cost
          << ", \"injections\": " << r.injections
          << ", \"dijkstra_pops\": " << r.dijkstra_pops
          << ", \"fm_moves\": " << r.fm_moves
          << ", \"partition_hash\": \"" << r.partition_hash << "\""
          << ", \"metric_phase_ms\": " << r.metric_phase_ms
          << ", \"levels\": " << r.levels
          << ", \"coarsest_nodes\": " << r.coarsest_nodes << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
