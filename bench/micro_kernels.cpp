// Micro-benchmarks (google-benchmark) for the kernels whose complexity
// Section 3.3 analyzes:
//   * Dijkstra shortest-path trees: O((n + p) log n) per source,
//   * find_cut: O((n + p) log n) per carve,
//   * Algorithm 2 (spreading metric): O(b_c log b_d * m (n + p) log n),
//   * one generalized-FM refinement pass,
//   * Equation (1) cost evaluation.
// The _BigO fits below empirically confirm the near-linear scaling in the
// circuit size (n + p) at fixed hierarchy depth.
//
// The BM_Obs* group prices the telemetry probes themselves (obs/obs.hpp)
// with no sink attached — the configuration every production run pays for.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/find_cut.hpp"
#include "core/flow_injection.hpp"
#include "core/htp_flow.hpp"
#include "core/spreading_metric.hpp"
#include "graph/csr_view.hpp"
#include "graph/dijkstra.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "partition/htp_fm.hpp"
#include "partition/random_partition.hpp"

namespace {

using namespace htp;

Hypergraph Circuit(std::int64_t gates) {
  RentCircuitParams params;
  params.num_gates = static_cast<std::size_t>(gates);
  params.num_primary_inputs = std::max<std::size_t>(8, gates / 20);
  params.seed = 7;
  return RentCircuit(params);
}

// The production hot path: growths over a prebuilt CsrView with a reused
// workspace — exactly what ViolationScanner workers run. The view and
// workspace live outside the timed loop, like the scanner amortizes them
// across an entire metric computation.
void BM_Dijkstra(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  std::vector<double> len(hg.num_nets());
  Rng rng(3);
  for (double& d : len) d = rng.next_double();
  const CsrView view(hg);
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  NodeId source = 0;
  for (auto _ : state) {
    workspace.Grow(view, source, len,
                   [](const GrowState&) { return GrowAction::kContinue; },
                   tree);
    benchmark::DoNotOptimize(tree);
    source = (source + 17) % hg.num_nodes();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dijkstra)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oNLogN);

// One-time cost of lowering the star expansion (paid once per metric
// computation, amortized over ~n growths).
void BM_CsrBuild(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(CsrView(hg));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CsrBuild)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oN);

void BM_FindCut(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  std::vector<double> len(hg.num_nets());
  Rng lrng(3);
  for (double& d : len) d = lrng.next_double();
  Rng rng(5);
  const double total = hg.total_size();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        MetricFindCut(hg, len, total * 0.4, total * 0.55, rng));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindCut)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oNLogN);

void BM_SpreadingMetric(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3);
  FlowInjectionParams params;
  for (auto _ : state) {
    params.seed += 1;
    benchmark::DoNotOptimize(ComputeSpreadingMetric(hg, spec, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpreadingMetric)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oNSquared)->Unit(benchmark::kMillisecond);

// The same Algorithm-2 run on the parallel candidate scan. Comparing this
// against BM_SpreadingMetric at equal circuit sizes is the headline
// serial-vs-scan pair: the metric returned is bit-identical (the scanner's
// determinism contract), so any delta is pure scan-engine wall clock. On a
// single-core host expect ~1.0x; the scan path's win is the speculative
// Dijkstras overlapping on real cores.
void BM_SpreadingMetricScan(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3);
  FlowInjectionParams params;
  params.threads = 4;
  for (auto _ : state) {
    params.seed += 1;
    benchmark::DoNotOptimize(ComputeSpreadingMetric(hg, spec, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpreadingMetricScan)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oNSquared)->Unit(benchmark::kMillisecond);

// One batch scan over every node of a satisfied metric — the worst case for
// the scanner (no early hit, full window). Each iteration scans on a fresh
// scanner, as the first batch of a metric computation does: a scanner that
// has seen the metric once has certified every source and skips them all.
// The serial baseline for this shape is BM_Dijkstra times n sources.
void BM_ViolationScanFullWindow(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3);
  // A generously infeasible-free metric: long lengths spread everything.
  std::vector<double> metric(hg.num_nets(), 10.0);
  std::vector<NodeId> candidates(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) candidates[v] = v;
  const auto csr = std::make_shared<const CsrView>(hg);
  std::optional<ViolationScanner> scanner;
  for (auto _ : state) {
    state.PauseTiming();
    scanner.reset();
    scanner.emplace(hg, spec, 4, csr);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        scanner->FindFirstViolation(candidates, 0, metric, 1e-7));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ViolationScanFullWindow)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oNSquared)->Unit(benchmark::kMillisecond);

// The traffic Algorithm 2 serves: one batch scan, in a fixed random order,
// over every node of a circuit's converged global metric (Table 3's height-4
// binary hierarchy, seed 1). Each growth stops at the concave stop
// certificate or extends to its ball, and certified sources are skipped,
// exactly as in the scanner's final, passing round. BM_Dijkstra (full
// growths, uniform lengths) does not see this traffic's frontiers. The
// `pops` counter is the dijkstra.pops of one scan.
struct ConvergedScan {
  Hypergraph hg;
  HierarchySpec spec;
  SpreadingMetric metric;
  std::vector<NodeId> order;
  std::shared_ptr<const CsrView> csr;
};

const ConvergedScan& ConvergedScanOf(const std::string& circuit) {
  static std::map<std::string, std::unique_ptr<ConvergedScan>> cache;
  std::unique_ptr<ConvergedScan>& entry = cache[circuit];
  if (!entry) {
    Hypergraph hg = MakeIscas85Like(circuit, 1);
    HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 4);
    FlowInjectionParams params;
    SpreadingMetric metric = ComputeSpreadingMetric(hg, spec, params).metric;
    std::vector<NodeId> order(hg.num_nodes());
    for (NodeId v = 0; v < hg.num_nodes(); ++v) order[v] = v;
    Rng(1).shuffle(order);
    auto csr = std::make_shared<const CsrView>(hg);
    entry = std::make_unique<ConvergedScan>(ConvergedScan{
        std::move(hg), std::move(spec), std::move(metric), std::move(order),
        std::move(csr)});
  }
  return *entry;
}

std::uint64_t DijkstraPops() {
  for (const obs::CounterValue& counter : obs::TakeSnapshot().counters)
    if (counter.name == "dijkstra.pops") return counter.value;
  return 0;
}

void BM_ScanConvergedMetric(benchmark::State& state,
                            const std::string& circuit) {
  const ConvergedScan& scan = ConvergedScanOf(circuit);
  std::optional<ViolationScanner> scanner;
  const std::uint64_t pops_before = DijkstraPops();
  for (auto _ : state) {
    state.PauseTiming();
    scanner.reset();
    scanner.emplace(scan.hg, scan.spec, 1, scan.csr);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        scanner->FindFirstViolation(scan.order, 0, scan.metric, 1e-7));
  }
  state.counters["pops"] = static_cast<double>(DijkstraPops() - pops_before) /
                           static_cast<double>(state.iterations());
}
BENCHMARK_CAPTURE(BM_ScanConvergedMetric, c1355, std::string("c1355"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ScanConvergedMetric, c6288, std::string("c6288"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ScanConvergedMetric, c7552, std::string("c7552"))
    ->Unit(benchmark::kMicrosecond);

void BM_HtpFmPass(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3);
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    TreePartition tp = RandomPartition(hg, spec, rng);
    HtpFmParams params;
    params.max_passes = 1;
    state.ResumeTiming();
    benchmark::DoNotOptimize(RefineHtpFm(tp, spec, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HtpFmPass)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oNLogN)->Unit(benchmark::kMillisecond);

void BM_PartitionCost(benchmark::State& state) {
  Hypergraph hg = Circuit(state.range(0));
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3);
  Rng rng(11);
  TreePartition tp = RandomPartition(hg, spec, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(PartitionCost(tp, spec));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionCost)->RangeMultiplier(4)->Range(256, 4096)
    ->Complexity(benchmark::oN);

// Cost of one counter increment on the thread-local shard (the unit the
// hot loops pay per *batched* flush, not per element). Expect ~1ns.
void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::Counter counter("bench.obs_counter_add");
  for (auto _ : state) counter.Add();
}
BENCHMARK(BM_ObsCounterAdd);

// One steady_clock timed section recorded into the shard histogram cell.
void BM_ObsScopedTimer(benchmark::State& state) {
  static obs::Timer timer("bench.obs_scoped_timer");
  for (auto _ : state) {
    obs::ScopedTimer scoped(timer);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsScopedTimer);

// PhaseScope with tracing disabled (the default): identical timing work as
// ScopedTimer plus one relaxed atomic load deciding not to buffer an event.
void BM_ObsPhaseScopeUntraced(benchmark::State& state) {
  static obs::Timer timer("bench.obs_phase_scope");
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::PhaseScope scoped(timer, "i", i++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsPhaseScopeUntraced);

// One histogram record: a bit_width plus three shard-cell updates. Same
// ~ns budget as Counter::Add — it shares the no-lock shard design.
void BM_ObsHistogramRecord(benchmark::State& state) {
  static obs::Histogram histogram("bench.obs_histogram_record");
  std::uint64_t i = 0;
  for (auto _ : state) histogram.Record(i++ & 0xffff);
}
BENCHMARK(BM_ObsHistogramRecord);

// One journal record with a typical payload width (6 fields, like
// flow.round). Events fire at decision granularity (per round/iteration/
// level), so tens of ns here is far below noise for any real run; the
// bench exists to catch accidental allocation on the record path.
void BM_ObsEventRecord(benchmark::State& state) {
  static obs::Event event("bench.obs_event_record");
  double i = 0.0;
  for (auto _ : state) {
    event.Record({{"a", i},
                  {"b", i + 1},
                  {"c", i + 2},
                  {"d", i + 3},
                  {"e", i + 4},
                  {"f", i + 5}});
    i += 1.0;
    // Journals grow; cap memory by draining periodically outside timing.
    if (static_cast<std::uint64_t>(i) % (1u << 18) == 0) {
      state.PauseTiming();
      obs::DrainEvents();
      state.ResumeTiming();
    }
  }
  obs::DrainEvents();
}
BENCHMARK(BM_ObsEventRecord);

}  // namespace

BENCHMARK_MAIN();
