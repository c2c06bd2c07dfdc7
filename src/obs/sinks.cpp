#include "obs/sinks.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>

#include "obs/json.hpp"

namespace htp::obs {
namespace {

std::string FormatMs(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

const char* HistogramKindName(HistogramKind kind) {
  return kind == HistogramKind::kValue ? "value" : "time_ns";
}

}  // namespace

std::string RenderStatsReport(const Snapshot& snapshot) {
  std::string out;
  char line[256];
  out += "=== htp-obs stats ===\n";
  std::snprintf(line, sizeof line, "%-36s %6s %14s\n", "counter", "kind",
                "value");
  out += line;
  for (const CounterValue& c : snapshot.counters) {
    std::snprintf(line, sizeof line, "%-36s %6s %14llu\n", c.name.c_str(),
                  c.kind == CounterKind::kSum ? "sum" : "max",
                  static_cast<unsigned long long>(c.value));
    out += line;
  }
  std::snprintf(line, sizeof line, "%-36s %10s %12s %12s %12s %12s\n",
                "timer", "count", "total(ms)", "mean(ms)", "min(ms)",
                "max(ms)");
  out += line;
  for (const TimerValue& t : snapshot.timers) {
    const double mean_ns =
        t.count ? static_cast<double>(t.total_ns) / static_cast<double>(t.count)
                : 0.0;
    std::snprintf(line, sizeof line, "%-36s %10llu %12s %12s %12s %12s\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  FormatMs(t.total_ns).c_str(),
                  FormatMs(static_cast<std::uint64_t>(mean_ns)).c_str(),
                  FormatMs(t.min_ns).c_str(), FormatMs(t.max_ns).c_str());
    out += line;
  }
  if (!snapshot.histograms.empty()) {
    std::snprintf(line, sizeof line, "%-36s %8s %10s %14s %12s %12s\n",
                  "histogram", "kind", "count", "sum", "min", "max");
    out += line;
    for (const HistogramValue& h : snapshot.histograms) {
      std::snprintf(line, sizeof line, "%-36s %8s %10llu %14llu %12llu %12llu\n",
                    h.name.c_str(), HistogramKindName(h.kind),
                    static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.sum),
                    static_cast<unsigned long long>(h.min),
                    static_cast<unsigned long long>(h.max));
      out += line;
    }
  }
  return out;
}

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events,
                      const std::vector<std::string>& lane_names) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // One metadata event per lane so chrome://tracing / Perfetto label the
  // rows. Lanes claimed via NameThisThread carry their role name ("main",
  // "worker-<i>" — deterministic across runs); unnamed lanes fall back to
  // the first-touch tid.
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  for (std::uint32_t tid : tids) {
    std::string name;
    if (tid < lane_names.size() && !lane_names[tid].empty())
      name = lane_names[tid];
    else
      name = "htp-thread-" + std::to_string(tid);
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << EscapeJson(name) << "\"}}";
  }
  char num[32];
  for (const TraceEvent& e : events) {
    sep();
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(e.ts_ns) / 1e3);
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << num;
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(e.dur_ns) / 1e3);
    os << ",\"dur\":" << num << ",\"cat\":\"htp\",\"name\":\""
       << EscapeJson(e.name) << "\"";
    if (!e.arg_key.empty())
      os << ",\"args\":{\"" << EscapeJson(e.arg_key)
         << "\":" << e.arg_value << "}";
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace htp::obs
