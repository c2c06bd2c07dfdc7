// RunReport: the schema-versioned, machine-readable account of one
// pipeline run — the artifact `htp_cli --report` writes and an htp_serve
// request with `"report": true` returns.
//
// A report has two top-level sections with opposite contracts:
//
//   * `deterministic` — run facts (meta), outcome (result), counter totals,
//     value-histogram distributions, and the decision journal (drained
//     obs::Events, timestamps stripped). For unbudgeted (or deterministic-
//     cap-only) runs this whole section is **bit-identical for every
//     `threads` × `metric_threads` combination** — the same contract the
//     partition itself carries, enforced by tests/obs/report_test.cpp and
//     the report-determinism CI gate via `scripts/obs_report.py diff`.
//   * `wall` — everything timing- or schedule-dependent: thread counts,
//     wall clocks, timers, kTimeNs histograms, and the wall-derived
//     counters (driver.budget_remaining_ms). Two bit-identical runs may
//     differ arbitrarily here; the diff tool compares these within a
//     tolerance, or not at all.
//
// The builder collects the run facts; Render() folds in the telemetry
// (a Snapshot plus the drained journal) and emits the JSON document from
// plain data. RunSession renders it inside the run's obs::RunScope, so the
// telemetry is that run's alone.
//
// Schema versioning policy (docs/observability.md): `schema_version` bumps
// on any breaking change (renamed/removed fields, changed meaning);
// purely additive fields keep the version. Consumers must reject versions
// they do not know (`scripts/obs_report.py validate` does).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace htp::obs {

inline constexpr std::string_view kRunReportSchema = "htp-run-report";
inline constexpr int kRunReportSchemaVersion = 1;

/// Assembles one RunReport. `Meta*` and `Result*` feed the deterministic
/// section, `Wall*` the wall section; keys within a section must be unique
/// (the builder appends in call order and does not dedupe).
class RunReportBuilder {
 public:
  /// `tool` names the producer ("htp_cli", a bench name, "htp_serve").
  explicit RunReportBuilder(std::string tool);

  void MetaString(std::string_view key, std::string_view value);
  void MetaNumber(std::string_view key, double value);
  void MetaBool(std::string_view key, bool value);

  void ResultString(std::string_view key, std::string_view value);
  void ResultNumber(std::string_view key, double value);
  void ResultBool(std::string_view key, bool value);

  void WallString(std::string_view key, std::string_view value);
  void WallNumber(std::string_view key, double value);

  /// Renders the full report. Counters route to deterministic.counters
  /// except the wall-derived ones (driver.budget_remaining_ms); histograms
  /// route by their HistogramKind; timers are always wall; journal records
  /// land in deterministic.journal with their timestamps stripped.
  std::string Render(const Snapshot& snapshot,
                     const std::vector<EventRecord>& journal) const;

 private:
  struct Entry {
    enum class Kind { kString, kNumber, kBool } kind;
    std::string key;
    std::string string_value;
    double number_value = 0.0;
    bool bool_value = false;
  };

  std::string tool_;
  std::vector<Entry> meta_;
  std::vector<Entry> result_;
  std::vector<Entry> wall_;
};

/// The exact byte range of the report's `"deterministic":{...}` value —
/// the slice two runs must agree on bit for bit. Returns an empty view if
/// the section cannot be located (not a report). String-aware brace
/// matching, no JSON parser needed; used by the C++ cross-thread-count
/// determinism tests (Python consumers parse the JSON instead).
std::string_view DeterministicSection(std::string_view report_json);

}  // namespace htp::obs
