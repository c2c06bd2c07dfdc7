#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/cost.hpp"
#include "core/partition_io.hpp"
#include "core/tree_partition.hpp"
#include "obs/report.hpp"

namespace pb {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// ---- metric sheet -----------------------------------------------------------

void MetricSheet::Add(std::string name, double value, std::string unit,
                      std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples, true});
}

void MetricSheet::Note(std::string line) { notes_.push_back(std::move(line)); }

namespace {

/// Every per-layer metric (BENCHMARK.json's per_layer list), with its unit.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"netlist.load_s", "s"},
    {"graph.csr_build_s", "s"},
    {"graph.csr_builds", "count"},
    {"graph.dijkstra_pops", "count"},
    {"graph.dijkstra_calls", "count"},
    {"core.metric_s", "s"},
    {"core.metric_calls", "count"},
    {"core.injections", "count"},
    {"core.rounds", "count"},
    {"core.build_s", "s"},
    {"core.carve_in_window_ratio", "fraction"},
    {"core.check_s", "s"},
    {"core.io_s", "s"},
    {"partition.fm_s", "s"},
    {"partition.fm_moves", "count"},
    {"partition.fm_kept_ratio", "fraction"},
    {"multilevel.coarsen_s", "s"},
    {"multilevel.project_s", "s"},
    {"multilevel.levels", "count"},
    {"multilevel.coarsest_nodes", "count"},
    {"incremental.eco_s", "s"},
    {"incremental.stitch_s", "s"},
    {"incremental.metric_calls_per_eco", "count"},
    {"incremental.reuse_ratio", "fraction"},
    {"incremental.full_rebuild_share", "fraction"},
    {"server.queue_wait_p50_ms", "ms"},
    {"server.queue_wait_p90_ms", "ms"},
    {"server.run_p50_ms.cold", "ms"},
    {"server.run_p50_ms.repeat", "ms"},
    {"server.run_p50_ms.eco", "ms"},
    {"server.transport_p50_ms", "ms"},
    {"server.request_kb", "KiB"},
    {"server.response_kb", "KiB"},
    {"server.hit_ratio.netlist", "fraction"},
    {"server.hit_ratio.csr", "fraction"},
    {"server.hit_ratio.metric", "fraction"},
    {"server.evictions.netlist", "count"},
    {"server.evictions.csr", "count"},
    {"server.evictions.metric", "count"},
    {"runtime.cpu_util", "fraction"},
    {"trace.overhead_share", "fraction"},
};

}  // namespace

void MetricSheet::Print(const std::string& workload, bool traced,
                        std::size_t attempted, std::size_t failed) const {
  std::vector<Metric> metrics = metrics_;
  if (traced) {
    metrics.clear();
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = std::find_if(metrics_.begin(), metrics_.end(),
                             [&](const Metric& m) { return m.name == name; });
      metrics.push_back(it != metrics_.end()
                            ? *it
                            : Metric{name, 0.0, unit, 0, false});
    }
  }
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  std::printf("== %s (%s run): %zu attempted, %zu failed\n", workload.c_str(),
              traced ? "traced" : "untraced", attempted, failed);
  bool finite = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) finite = false;
    if (m.applies)
      std::printf("metric %-34s = %.6g %s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    else
      std::printf("metric %-34s = n/a %s (layer not called by this workload; "
                  "reported as 0)\n",
                  m.name.c_str(), m.unit.c_str());
  }
  if (!finite) {
    std::fprintf(stderr, "perfbench: a metric is not finite\n");
    ++failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- spans --------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : Snapshot()) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"job\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.job), s.start, s.end);
    out << line;
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
                       std::int64_t job)
    : tracer_(tracer) {
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = parent;
  span_.job = job;
  span_.start = tracer.Now();
}

ScopedSpan::~ScopedSpan() {
  span_.end = tracer_.Now();
  tracer_.Record(std::move(span_));
}

double BusySeconds(const std::vector<Tracer::Span>& spans,
                   std::string_view name, std::size_t* count) {
  double total = 0.0;
  std::size_t n = 0;
  for (const Tracer::Span& s : spans) {
    if (s.name != name) continue;
    total += s.end - s.start;
    ++n;
  }
  if (count) *count = n;
  return total;
}

double CoveredSeconds(const std::vector<Tracer::Span>& spans,
                      const std::vector<std::string_view>& names) {
  std::vector<std::pair<double, double>> intervals;
  for (const Tracer::Span& s : spans)
    if (std::find(names.begin(), names.end(), s.name) != names.end())
      intervals.emplace_back(s.start, s.end);
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_start = 0.0, cur_end = -1.0;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

// ---- obs snapshot helpers -----------------------------------------------------

std::uint64_t Counter(const htp::obs::Snapshot& snap, std::string_view name) {
  for (const htp::obs::CounterValue& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

double TimerSeconds(const htp::obs::Snapshot& snap, std::string_view name) {
  for (const htp::obs::TimerValue& t : snap.timers)
    if (t.name == name) return static_cast<double>(t.total_ns) / 1e9;
  return 0.0;
}

// ---- output checks ------------------------------------------------------------

std::string CheckPartition(const htp::Hypergraph& hg,
                           const htp::HierarchySpec& spec,
                           const std::string& partition_text,
                           double reported_cost, Tracer* tracer,
                           std::int64_t job) {
  try {
    std::optional<htp::TreePartition> tp;
    {
      std::optional<ScopedSpan> span;
      if (tracer) span.emplace(*tracer, "core.io", 0, job);
      tp.emplace(htp::ReadPartitionText(hg, partition_text));
    }
    std::optional<ScopedSpan> span;
    if (tracer) span.emplace(*tracer, "core.check", 0, job);
    const std::vector<std::string> violations =
        htp::ValidatePartition(*tp, spec);
    if (!violations.empty()) return "invalid partition: " + violations[0];
    const double cost = htp::PartitionCost(*tp, spec);
    if (cost != reported_cost) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "cost mismatch: reported %.17g, recomputed %.17g",
                    reported_cost, cost);
      return msg;
    }
  } catch (const std::exception& e) {
    return std::string("partition does not read back: ") + e.what();
  }
  return {};
}

std::string CheckRepeat(std::string_view original, std::string_view repeat) {
  const std::string_view a = htp::obs::DeterministicSection(original);
  const std::string_view b = htp::obs::DeterministicSection(repeat);
  if (a.empty() || b.empty()) return "response has no deterministic section";
  if (a != b) return "repeat response differs from the original";
  return {};
}

htp::HierarchySpec SessionSpec(double total_size, htp::Level height) {
  return htp::UniformHierarchy(total_size, height, 2, 0.10,
                               std::vector<double>(height, 1.0));
}

}  // namespace pb
