// Shared pieces of the repository benchmark program (perfbench/README.md):
// command-line options, statistics, process resources, the metric sheet
// every workload fills, the span recorder of traced runs, and the output
// checker every job and response goes through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/hierarchy.hpp"
#include "incremental/netlist_delta.hpp"
#include "netlist/hypergraph.hpp"
#include "netlist/rng.hpp"
#include "obs/obs.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// One small job per workload, for the benchmark's own tests.
  bool smoke = false;
  /// Directory (inside the checkout) for sockets, reports and span dumps.
  std::string work_dir = ".bench_build/perfbench/work";
  /// Path of the htp_serve binary the serve_eco workload launches.
  std::string serve_binary;
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);

// ---- process resources ----------------------------------------------------

double PeakRssMiB();         ///< this process's high-water resident set
double ProcessCpuSeconds();  ///< this process's user + system CPU time

// ---- metric sheet ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// False when the workload never calls the layer; the value is then 0
  /// and the summary line says "n/a".
  bool applies = true;
};

/// The metrics one run reports. Print() writes one human-readable line per
/// metric, then the final JSON line the harness parses. A traced run
/// reports every per-layer metric: those of layers the workload never
/// calls print as "n/a" and are 0 in the JSON line.
class MetricSheet {
 public:
  void Add(std::string name, double value, std::string unit,
           std::size_t samples);
  /// Informational line printed before the metrics (not in the JSON).
  void Note(std::string line);
  void Print(const std::string& workload, bool traced, std::size_t attempted,
             std::size_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// ---- spans ----------------------------------------------------------------

/// In-memory span store of a traced run. Spans are recorded from the
/// benchmark's own code around calls into the library's public functions;
/// several threads may record at once (the metric provider runs on FLOW's
/// pool workers). Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = no parent
    std::int64_t job = -1;     ///< job or request id
    double start = 0.0;        ///< seconds since the tracer's epoch
    double end = 0.0;
  };

  Tracer();
  std::uint64_t NextId() { return next_id_.fetch_add(1); }
  double Now() const { return SecondsBetween(epoch_, Clock::now()); }
  void Record(Span span);
  std::vector<Span> Snapshot() const;
  /// Writes every span as one JSON object per line.
  void WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: records [construction, destruction) into the tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
             std::int64_t job);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Tracer::Span span_;
};

/// Sum of the durations of spans named `name` (busy time; thread-seconds
/// when the spans ran in parallel) and their count.
double BusySeconds(const std::vector<Tracer::Span>& spans,
                   std::string_view name, std::size_t* count = nullptr);

/// Length of the union of the intervals of spans named in `names`.
double CoveredSeconds(const std::vector<Tracer::Span>& spans,
                      const std::vector<std::string_view>& names);

// ---- obs snapshot helpers -------------------------------------------------

std::uint64_t Counter(const htp::obs::Snapshot& snap, std::string_view name);
double TimerSeconds(const htp::obs::Snapshot& snap, std::string_view name);

// ---- output checks ----------------------------------------------------------

/// Reads `partition_text` back against `hg` with ReadPartitionText, runs
/// ValidatePartition under `spec`, and recomputes Equation (1) with
/// PartitionCost, which must equal `reported_cost` exactly. Returns an
/// empty string when every check passes, else the first failure.
std::string CheckPartition(const htp::Hypergraph& hg,
                           const htp::HierarchySpec& spec,
                           const std::string& partition_text,
                           double reported_cost, Tracer* tracer = nullptr,
                           std::int64_t job = -1);

/// Empty when both serve responses carry byte-identical "deterministic"
/// sections (the cache contract of docs/server.md), else the reason.
std::string CheckRepeat(std::string_view original, std::string_view repeat);

/// The hierarchy RunSession builds for a request of this shape.
htp::HierarchySpec SessionSpec(double total_size, htp::Level height);

/// A seeded edit script of two size-neutral edits against `base`: rewire
/// (remove-net + add-net), gate swap (remove-node + add-node of equal
/// size) or set-net-capacity.
htp::NetlistDelta MakeSizeNeutralDelta(const htp::Hypergraph& base,
                                       htp::Rng& rng);

// ---- workloads ----------------------------------------------------------------

int RunFlatIscas(const Options& options);
int RunMultilevelRent(const Options& options);
int RunServeEco(const Options& options);
int RunThreadSweep(const Options& options);
int RunSelfTest(const Options& options);

}  // namespace pb
