// Performance-regression runner: one run times every gated row and writes
// the machine-readable document that scripts/bench_regression.py compares
// against the committed baseline (repo root BENCH_htp.json). It has four
// sections (docs/benchmarks.md):
//
//   circuits    flat FLOW on the ISCAS85-like suite;
//   multilevel  coarsen -> FLOW -> uncoarsen on 10k and 50k-gate Rent
//               circuits (100k added without --quick; docs/scaling.md);
//   serve       one 10k-gate request through serve::RunSession against a
//               cold artifact cache, then repeated against the warm one
//               (docs/server.md);
//   eco         a cold request with emit_warm_state, then the ECO request
//               that removes one local net and resumes from its warm_text
//               (docs/incremental.md), at the session's default ECO
//               settings.
//
// Every row has two classes of fields, compared differently:
//  * exact fields (cost, injections, dijkstra_pops, and fm_moves /
//    partition_hash where recorded) — bit-exact by the library's
//    determinism contract for every threads x metric-threads combination,
//    so the checker demands equality, and every run of a row must agree;
//  * normalized_wall — the row's wall seconds divided by a calibration
//    kernel timed in the same process, compared within a tolerance. Each
//    row is timed kGateRepetitions times, each repetition right after one
//    timing of the kernel, and both keep their minimum: on a shared host
//    other load only adds time, and interleaving lets both minima sample
//    the same quiet spells. The repetitions go round-robin over all rows,
//    so each row's samples spread over the whole run, and a repetition
//    reruns its row until kMinSampleSeconds have passed, so a short row is
//    not a few milliseconds at the mercy of one preemption.
//
// The serve and eco sections also enforce their contracts in-binary: a
// warm serve run computes no metric, hits the metric tier once per cold
// miss and returns the cold partition byte for byte; the ECO request's
// warm root metric takes at most half the cold request's root-metric
// injections. A broken contract exits 1.
//
// Usage: regression_suite --json out.json [--quick] [--seed N]
//                         [--threads N] [--metric-threads N]
#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "core/partition_io.hpp"
#include "incremental/netlist_delta.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "obs/json.hpp"
#include "partition/htp_fm.hpp"
#include "server/artifact_key.hpp"
#include "server/session.hpp"

namespace htp::bench {
namespace {

/// Repetitions behind every minimum-of-k wall time.
constexpr int kGateRepetitions = 5;
/// Shortest timed sample: a repetition reruns its row until this much run
/// time has accumulated and reports the mean run.
constexpr double kMinSampleSeconds = 0.1;
/// Warm-start floor: the ECO request's warm root metric may take at most
/// this fraction of the cold request's root-metric injections.
constexpr double kMaxWarmInjectionsFraction = 0.5;

/// The calibration kernel's graph: the node-net incidence of a generated
/// c1355, copied once into plain arrays so the timed path runs no library
/// code. A slowdown inside the library then moves the rows and not the
/// denominator.
struct KernelGraph {
  std::vector<std::uint32_t> net_begin, nets;  // node -> incident nets
  std::vector<std::uint32_t> pin_begin, pins;  // net -> its pins
  std::vector<double> length;                  // per net, in [1, 2)
};

KernelGraph MakeKernelGraph() {
  const Hypergraph hg = MakeIscas85Like("c1355", 7);
  KernelGraph g;
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    g.net_begin.push_back(static_cast<std::uint32_t>(g.nets.size()));
    for (const NetId e : hg.nets(v)) g.nets.push_back(e);
  }
  g.net_begin.push_back(static_cast<std::uint32_t>(g.nets.size()));
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    g.pin_begin.push_back(static_cast<std::uint32_t>(g.pins.size()));
    for (const NodeId v : hg.pins(e)) g.pins.push_back(v);
    g.length.push_back(1.0 + static_cast<double>(e * 2654435761u % 1024) /
                                 1024.0);
  }
  g.pin_begin.push_back(static_cast<std::uint32_t>(g.pins.size()));
  return g;
}

/// One timing of a fixed deterministic workload: full Dijkstra sweeps from
/// every 7th node of c1355 with a std::priority_queue frontier. It scales
/// with the host's single-core speed the way the metric phase does, which
/// makes wall ratios normalized by it comparable across machines.
double CalibrationSample() {
  static const KernelGraph g = MakeKernelGraph();
  const std::size_t n = g.net_begin.size() - 1;
  std::vector<double> dist(n);
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  double sink = 0.0;
  const double seconds = TimeSeconds([&] {
    for (int round = 0; round < 3; ++round)
      for (std::uint32_t source = 0; source < n; source += 7) {
        std::fill(dist.begin(), dist.end(),
                  std::numeric_limits<double>::infinity());
        dist[source] = 0.0;
        frontier.push({0.0, source});
        while (!frontier.empty()) {
          const auto [d, u] = frontier.top();
          frontier.pop();
          if (d > dist[u]) continue;
          for (std::uint32_t a = g.net_begin[u]; a != g.net_begin[u + 1]; ++a) {
            const std::uint32_t e = g.nets[a];
            const double cand = d + g.length[e];
            for (std::uint32_t p = g.pin_begin[e]; p != g.pin_begin[e + 1];
                 ++p) {
              const std::uint32_t x = g.pins[p];
              if (cand >= dist[x]) continue;
              dist[x] = cand;
              frontier.push({cand, x});
            }
          }
        }
        sink += dist[n - 1];
      }
  });
  if (sink < 0.0) std::printf("impossible\n");  // keep the work observable
  return seconds;
}

/// One gated row's fields. The exact fields must agree on every run of the
/// row; `info` holds informational columns of its fastest repetition.
struct GateRow {
  std::string section;
  std::string name;
  double cost = 0.0;
  std::uint64_t injections = 0;
  std::uint64_t dijkstra_pops = 0;
  std::optional<std::uint64_t> fm_moves;
  std::string partition_hash;  ///< "" when the row does not record one
  std::vector<std::pair<std::string, double>> info;
  double wall_seconds = std::numeric_limits<double>::infinity();
  double calibration_seconds = std::numeric_limits<double>::infinity();

  bool SameExactFields(const GateRow& other) const {
    return cost == other.cost && injections == other.injections &&
           dijkstra_pops == other.dijkstra_pops &&
           fm_moves == other.fm_moves &&
           partition_hash == other.partition_hash;
  }
};

/// What a row times: `run` executes its workload once (timed); `record`
/// then fills the row's fields from that run's result and telemetry
/// (untimed). `injections` and `dijkstra_pops` arrive preset to the run's
/// `flow.injections` and `dijkstra.pops` counters. Callables share their
/// state through shared_ptr captures, so a workload outlives the section
/// that built it.
struct Workload {
  std::string section;
  std::string name;
  std::function<void()> run;
  std::function<void(const obs::Snapshot&, GateRow&)> record;
};

double TimerMs(const obs::Snapshot& snap, std::string_view name) {
  for (const obs::TimerValue& t : snap.timers)
    if (t.name == name) return static_cast<double>(t.total_ns) / 1e6;
  return 0.0;
}

/// One repetition of a row: a calibration timing, then runs of the
/// workload until kMinSampleSeconds have accumulated. A fresh `row` takes
/// the first run's fields; after that, `row` keeps the minima, and a run
/// that disagrees with it on an exact field throws.
void TimeRepetition(const Workload& workload, GateRow& row) {
  const double calibration = CalibrationSample();
  double elapsed = 0.0;
  int runs = 0;
  GateRow sample;
  do {
    obs::ResetAll();
    elapsed += TimeSeconds(workload.run);
    ++runs;
    const obs::Snapshot snap = obs::TakeSnapshot();
    sample = GateRow{};
    sample.section = workload.section;
    sample.name = workload.name;
    sample.injections = CounterTotal(snap, "flow.injections");
    sample.dijkstra_pops = CounterTotal(snap, "dijkstra.pops");
    sample.info.emplace_back("metric_phase_ms",
                             TimerMs(snap, "flow.compute_metric"));
    workload.record(snap, sample);
    if (row.name.empty()) {
      row = sample;
    } else if (!sample.SameExactFields(row)) {
      throw std::runtime_error(workload.section + "/" + workload.name +
                               ": runs disagree on an exact field");
    }
  } while (elapsed < kMinSampleSeconds);
  row.calibration_seconds = std::min(row.calibration_seconds, calibration);
  if (elapsed / runs < row.wall_seconds) {
    row.wall_seconds = elapsed / runs;
    row.info = std::move(sample.info);
  }
}

/// Times every row kGateRepetitions times, round-robin: repetition r of
/// each row runs before repetition r + 1 of any, so a row's minima sample
/// the whole run rather than one busy spell of a shared host.
std::vector<GateRow> TimeRows(const std::vector<Workload>& workloads) {
  std::vector<GateRow> rows(workloads.size());
  for (int repetition = 0; repetition < kGateRepetitions; ++repetition)
    for (std::size_t i = 0; i < workloads.size(); ++i)
      TimeRepetition(workloads[i], rows[i]);
  return rows;
}

std::string PartitionHash(const TreePartition& tp) {
  return serve::HexKey(
      serve::HashBytes(serve::kFnvOffset, WritePartitionText(tp)));
}

Hypergraph RentGates(std::size_t gates, std::uint64_t seed) {
  RentCircuitParams params;
  params.num_gates = gates;
  params.num_primary_inputs = gates / 25;
  params.seed = seed;
  return RentCircuit(params);
}

void AddCircuits(const Options& options, std::vector<Workload>& out) {
  for (auto& [name, hg] : LoadSuite(options)) {
    auto netlist = std::make_shared<const Hypergraph>(std::move(hg));
    const HierarchySpec spec = FullBinaryHierarchy(netlist->total_size());
    HtpFlowParams params;
    params.iterations = options.quick ? 2 : 4;
    params.seed = options.seed;
    params.threads = options.threads;
    params.metric_threads = options.metric_threads;
    auto result = std::make_shared<std::optional<HtpFlowResult>>();
    out.push_back(
        {"circuits", name,
         [=] { result->emplace(RunHtpFlow(*netlist, spec, params)); },
         [=](const obs::Snapshot&, GateRow& row) {
           row.cost = (*result)->cost;
           // The global metrics' injections, as Table 2's runs report them.
           row.injections = 0;
           for (const HtpFlowIteration& it : (*result)->iterations)
             row.injections += it.injections;
         }});
  }
}

void AddMultilevel(const Options& options, std::vector<Workload>& out) {
  std::vector<std::size_t> sizes{10000, 50000};
  if (!options.quick) sizes.push_back(100000);
  for (const std::size_t gates : sizes) {
    auto hg =
        std::make_shared<const Hypergraph>(RentGates(gates, options.seed));
    const HierarchySpec spec = FullBinaryHierarchy(hg->total_size());
    MultilevelParams params;
    params.flow.iterations = options.quick ? 1 : 2;
    params.flow.seed = options.seed;
    params.flow.threads = options.threads;
    params.flow.metric_threads = options.metric_threads;
    auto result = std::make_shared<std::optional<MultilevelResult>>();
    out.push_back(
        {"multilevel", "rent" + std::to_string(gates / 1000) + "k",
         [=] { result->emplace(RunMultilevelFlow(*hg, spec, params)); },
         [=](const obs::Snapshot& snap, GateRow& row) {
           MultilevelResult& r = **result;
           RequireValidPartition(r.partition, spec);
           row.cost = r.cost;
           row.fm_moves = CounterTotal(snap, "fm.moves_applied");
           // The partition after the whole-graph FM a `--refine` session
           // runs next, so the partition itself is pinned, not only its
           // cost.
           (void)RefineHtpFm(r.partition, spec);
           row.partition_hash = PartitionHash(r.partition);
           row.info.emplace_back("levels",
                                 static_cast<double>(r.coarsen_levels));
           row.info.emplace_back("coarsest_nodes",
                                 static_cast<double>(r.coarsest_nodes));
         }});
  }
}

/// The request the serve and eco sections send: flat FLOW on the 10k-gate
/// Rent circuit, where the metric phase dominates.
serve::SessionRequest RentRequest(const Options& options) {
  serve::SessionRequest request;
  request.netlist =
      std::make_shared<const Hypergraph>(RentGates(10000, options.seed));
  request.height = 3;
  request.iterations = 1;
  request.threads = options.threads;
  request.metric_threads = options.metric_threads;
  request.seed = options.seed;
  return request;
}

/// The same request against a fresh artifact cache, then repeated against
/// the cache the cold run left warm.
void AddServe(const serve::SessionRequest& request,
              std::vector<Workload>& out) {
  auto cache = std::make_shared<std::unique_ptr<serve::ArtifactCache>>();
  auto cold = std::make_shared<std::optional<serve::SessionResult>>();
  auto warm = std::make_shared<std::optional<serve::SessionResult>>();
  out.push_back({"serve", "rent10k_cold",
                 [=] {
                   *cache = std::make_unique<serve::ArtifactCache>();
                   cold->emplace(RunSession(request, cache->get()));
                 },
                 [=](const obs::Snapshot&, GateRow& row) {
                   row.cost = (*cold)->cost;
                 }});
  out.push_back(
      {"serve", "rent10k_warm",
       [=] { warm->emplace(RunSession(request, cache->get())); },
       [=](const obs::Snapshot& snap, GateRow& row) {
         const serve::SessionResult& c = **cold;
         const serve::SessionResult& w = **warm;
         row.cost = w.cost;
         if (WritePartitionText(*w.partition) !=
             WritePartitionText(*c.partition))
           throw std::runtime_error(
               "serve: warm partition differs from the cold one (the cache "
               "broke bit-identity)");
         if (c.cache.metric_misses == 0 ||
             CounterTotal(snap, "flow.metrics") != 0 ||
             row.dijkstra_pops != 0 || w.cache.metric_misses != 0 ||
             w.cache.metric_hits != c.cache.metric_misses)
           throw std::runtime_error(
               "serve: warm run computed metrics instead of hitting the "
               "cache (metric misses " +
               std::to_string(w.cache.metric_misses) + ", metric hits " +
               std::to_string(w.cache.metric_hits) + " vs " +
               std::to_string(c.cache.metric_misses) + " cold misses)");
       }});
}

/// The ECO edit: remove the lowest-id net whose pins all lie in one root
/// subtree of the cold partition, the typical local edit (a net spanning
/// the root split forces a full rebuild instead).
std::string LocalNetRemoval(const TreePartition& tp) {
  const Hypergraph& hg = tp.hypergraph();
  const Level child_level = tp.root_level() - 1;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const auto pins = hg.pins(e);
    const BlockId block = tp.block_at(pins.front(), child_level);
    if (std::all_of(pins.begin(), pins.end(), [&](NodeId v) {
          return tp.block_at(v, child_level) == block;
        })) {
      NetlistDelta delta;
      delta.removed_nets.push_back(e);
      return WriteDeltaText(delta);
    }
  }
  throw std::runtime_error("eco: no net lies inside one root subtree");
}

/// A cold request that emits its warm state, then the ECO request that
/// resumes from it, as a client of htp_serve sends them.
void AddEco(const serve::SessionRequest& request, std::vector<Workload>& out) {
  serve::SessionRequest cold_request = request;
  cold_request.emit_warm_state = true;
  auto eco_request = std::make_shared<serve::SessionRequest>(request);
  auto cold = std::make_shared<std::optional<serve::SessionResult>>();
  auto eco = std::make_shared<std::optional<serve::SessionResult>>();
  out.push_back({"eco", "eco10k_cold",
                 [=] { cold->emplace(RunSession(cold_request, nullptr)); },
                 [=](const obs::Snapshot&, GateRow& row) {
                   const serve::SessionResult& c = **cold;
                   row.cost = c.cost;
                   // The first cold run fixes the ECO request; later cold
                   // runs are the same deterministic run.
                   if (eco_request->warm_text.empty()) {
                     eco_request->delta_text = LocalNetRemoval(*c.partition);
                     eco_request->warm_text = WriteWarmStartText(*c.warm_state);
                   }
                 }});
  out.push_back(
      {"eco", "eco10k_warm",
       [=] { eco->emplace(RunSession(*eco_request, nullptr)); },
       [=](const obs::Snapshot&, GateRow& row) {
         const serve::SessionResult& e = **eco;
         row.cost = e.cost;
         row.info.emplace_back("warm_injections",
                               static_cast<double>(e.eco_warm_injections));
         row.info.emplace_back("blocks_reused",
                               static_cast<double>(e.eco_blocks_reused));
         row.info.emplace_back("full_rebuild", e.eco_full_rebuild ? 1 : 0);
         // The warm-start floor, on the root metric the warm state seeds.
         const std::size_t cold_injections =
             (*cold)->iterations.at(0).injections;
         if (static_cast<double>(e.eco_warm_injections) >
             kMaxWarmInjectionsFraction * static_cast<double>(cold_injections))
           throw std::runtime_error(
               "eco: the warm root metric took " +
               std::to_string(e.eco_warm_injections) +
               " injections, more than half the cold request's " +
               std::to_string(cold_injections) + " (warm start not working)");
       }});
}

void WriteRow(obs::JsonWriter& w, const GateRow& row) {
  w.BeginObject();
  w.Key("name");
  w.String(row.name);
  w.Key("normalized_wall");
  w.Number(row.wall_seconds / row.calibration_seconds);
  w.Key("wall_seconds");
  w.Number(row.wall_seconds);
  w.Key("calibration_seconds");
  w.Number(row.calibration_seconds);
  w.Key("cost");
  w.Number(row.cost);
  w.Key("injections");
  w.Number(row.injections);
  w.Key("dijkstra_pops");
  w.Number(row.dijkstra_pops);
  if (row.fm_moves) {
    w.Key("fm_moves");
    w.Number(*row.fm_moves);
  }
  if (!row.partition_hash.empty()) {
    w.Key("partition_hash");
    w.String(row.partition_hash);
  }
  for (const auto& [key, value] : row.info) {
    w.Key(key);
    w.Number(value);
  }
  w.EndObject();
}

std::string RenderJson(const Options& options,
                       const std::vector<GateRow>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("htp-bench-regression-v2");
  w.Key("quick");
  w.Bool(options.quick);
  w.Key("seed");
  w.Number(options.seed);
  w.Key("threads");
  w.Number(static_cast<std::uint64_t>(options.threads));
  w.Key("metric_threads");
  w.Number(static_cast<std::uint64_t>(options.metric_threads));
  // Rows arrive grouped by section, in section order.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].section != rows[i - 1].section) {
      if (i != 0) w.EndArray();
      w.Key(rows[i].section);
      w.BeginArray();
    }
    WriteRow(w, rows[i]);
  }
  if (!rows.empty()) w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace
}  // namespace htp::bench

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
                     "minimum-of-k wall clock + exact work counters of every "
                     "gated row (see docs/benchmarks.md)",
                     options);

  std::vector<bench::GateRow> rows;
  try {
    std::vector<bench::Workload> workloads;
    bench::AddCircuits(options, workloads);
    bench::AddMultilevel(options, workloads);
    const serve::SessionRequest request = bench::RentRequest(options);
    bench::AddServe(request, workloads);
    bench::AddEco(request, workloads);
    rows = bench::TimeRows(workloads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }

  std::printf("%-11s %-13s %10s %10s %10s %10s %12s\n", "section", "row",
              "wall(s)", "calib(s)", "norm", "cost", "pops");
  for (const bench::GateRow& row : rows)
    std::printf("%-11s %-13s %10.4f %10.5f %10.3f %10.0f %12llu\n",
                row.section.c_str(), row.name.c_str(), row.wall_seconds,
                row.calibration_seconds,
                row.wall_seconds / row.calibration_seconds, row.cost,
                static_cast<unsigned long long>(row.dijkstra_pops));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << bench::RenderJson(options, rows) << '\n';
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
