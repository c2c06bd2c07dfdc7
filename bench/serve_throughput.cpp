// Cold-vs-warm artifact-cache gate for the htp_serve session pipeline:
// runs the SAME 10k-node Rent-circuit request twice through RunSession
// against one ArtifactCache — first with every tier cold, then warm — and
// emits both as rows in the regression_suite JSON shape, so
// scripts/bench_regression.py gates them as the "serve" section of
// BENCH_htp.json (docs/benchmarks.md, docs/server.md).
//
// The warm run must be served from cache, and the bench checks exactly
// that: it computes no spreading metric (the dominant phase; docs/server.md
// works the numbers) — flow.metrics, dijkstra.pops and metric_misses are
// 0 — and hits the metric tier once per cold miss. A cache that silently
// stops hitting fails the binary, not just the baseline diff. The bench
// also re-checks the bit-identity contract: the warm partition must equal
// the cold one exactly. Warm wall time is gated by
// scripts/bench_regression.py like every row; a cold-over-warm ratio would
// mostly price the cold metric.
//
// Deterministic row fields: the cold row carries the full run's
// cost/injections/dijkstra_pops; the warm row's injections are 0 BY
// DESIGN — every metric was a cache hit, no injection ever ran — which is
// precisely the behavior the baseline pins down.
//
// Usage: serve_throughput --json out.json [--quick] [--seed N]
//                         [--threads N] [--metric-threads N]
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/partition_io.hpp"
#include "server/session.hpp"

namespace {

struct ServeRow {
  std::string name;
  double wall_seconds = 0.0;
  double cost = 0.0;
  std::uint64_t injections = 0;
  std::uint64_t dijkstra_pops = 0;
  double metric_phase_ms = 0.0;
};

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
  bench::PrintHeader("SERVE THROUGHPUT",
                     "cold vs warm artifact cache on a repeated 10k-node "
                     "request (docs/server.md)",
                     options);

  const double calibration = bench::CalibrationSeconds();
  std::printf("calibration kernel: %.3fs\n", calibration);

  RentCircuitParams circuit;
  circuit.num_gates = 10000;
  circuit.num_primary_inputs = 400;
  circuit.seed = options.seed;
  auto hg = std::make_shared<const Hypergraph>(RentCircuit(circuit));

  // The request a serve client would repeat: flat FLOW, where the metric
  // phase dominates the wall clock — exactly what the cache tiers skip on
  // the warm run.
  serve::SessionRequest request;
  request.netlist = hg;
  request.height = 3;
  request.iterations = 1;
  request.threads = options.threads;
  request.metric_threads = options.metric_threads;
  request.seed = options.seed;

  serve::ArtifactCache cache;
  std::printf("%-14s %12s %12s %10s %14s %12s\n", "phase", "wall(s)",
              "wall(norm)", "cost", "dijkstra pops", "metric hits");

  std::vector<ServeRow> rows;
  std::string partitions[2];
  std::uint64_t metrics_computed[2] = {};  // flow.metrics: not from cache
  serve::SessionCacheOutcome caches[2];
  for (const char* phase : {"cold", "warm"}) {
    obs::ResetAll();
    serve::SessionResult result = RunSession(request, &cache);
    ServeRow row;
    row.name = std::string("rent10k_") + phase;
    row.wall_seconds = result.run_seconds;
    row.cost = result.cost;
    const obs::Snapshot snap = obs::TakeSnapshot();
    row.injections = bench::CounterTotal(snap, "flow.injections");
    row.dijkstra_pops = bench::CounterTotal(snap, "dijkstra.pops");
    metrics_computed[rows.size()] = bench::CounterTotal(snap, "flow.metrics");
    caches[rows.size()] = result.cache;
    for (const obs::TimerValue& t : snap.timers)
      if (t.name == "flow.compute_metric")
        row.metric_phase_ms = static_cast<double>(t.total_ns) / 1e6;
    partitions[rows.size()] = WritePartitionText(*result.partition);
    std::printf("%-14s %12.3f %12.3f %10.0f %14llu %12zu\n", row.name.c_str(),
                row.wall_seconds, row.wall_seconds / calibration, row.cost,
                static_cast<unsigned long long>(row.dijkstra_pops),
                result.cache.metric_hits);
    rows.push_back(std::move(row));
  }

  // The two contracts this bench exists to enforce.
  if (partitions[0] != partitions[1]) {
    std::fprintf(stderr,
                 "FAIL: warm partition differs from cold partition "
                 "(cache broke bit-identity)\n");
    return 1;
  }
  const serve::SessionCacheOutcome& cold = caches[0];
  const serve::SessionCacheOutcome& warm = caches[1];
  if (cold.metric_misses == 0 || metrics_computed[1] != 0 ||
      rows[1].dijkstra_pops != 0 || warm.metric_misses != 0 ||
      warm.metric_hits != cold.metric_misses) {
    std::fprintf(stderr,
                 "FAIL: warm run computed metrics instead of hitting the "
                 "cache (flow.metrics %llu, dijkstra.pops %llu, metric "
                 "misses %zu, metric hits %zu vs %zu cold misses)\n",
                 static_cast<unsigned long long>(metrics_computed[1]),
                 static_cast<unsigned long long>(rows[1].dijkstra_pops),
                 warm.metric_misses, warm.metric_hits, cold.metric_misses);
    return 1;
  }
  std::printf("warm run: %zu metric hits, 0 computed (%.1fx faster than "
              "cold)\n",
              warm.metric_hits, rows[0].wall_seconds / rows[1].wall_seconds);

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
      const ServeRow& r = rows[i];
      out << "    {\"name\": \"" << r.name << "\""
          << ", \"flow_wall_seconds\": " << r.wall_seconds
          << ", \"normalized_wall\": " << r.wall_seconds / calibration
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
