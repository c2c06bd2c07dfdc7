// Minimal JSON emission shared by every obs sink (sinks.cpp, report.cpp).
//
// Two pieces:
//   * `EscapeJson` — escapes a string for interpolation between JSON
//     quotes. Every sink that writes a caller-provided name (bench names,
//     scope labels, timer arg keys, report meta values) must route it
//     through here: a stray quote or backslash in a name must never be
//     able to produce an invalid artifact.
//   * `JsonWriter` — a tiny streaming writer (objects, arrays, scalars)
//     with automatic comma placement. It is an *emitter*, not a DOM: the
//     run-report builder walks its inputs once and appends. Numbers are
//     rendered so that `json.loads` round-trips them: integral doubles
//     within the exact-integer range print as integers, everything else
//     as shortest-round-trip decimal; non-finite values (which would be
//     invalid JSON) degrade to null.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace htp::obs {

/// Returns `s` with JSON string metacharacters escaped ("\\", quotes,
/// control characters as \uXXXX). The result is safe to splice between
/// double quotes in a JSON document.
std::string EscapeJson(std::string_view s);

/// Streaming JSON writer. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name"); w.String("c1355");
///   w.Key("list"); w.BeginArray(); w.Number(1); w.EndArray();
///   w.EndObject();
///   std::string doc = std::move(w).Take();
/// The writer inserts commas between siblings automatically; mismatched
/// Begin/End pairs are the caller's bug (asserted in debug builds only —
/// this is an internal tool, not a parser).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Key of the next value inside the enclosing object (escaped here).
  void Key(std::string_view key);

  void String(std::string_view value);
  void Number(double value);
  void Number(std::uint64_t value);
  void Number(std::int64_t value);
  void Number(int value) { Number(static_cast<std::int64_t>(value)); }
  void Number(unsigned value) { Number(static_cast<std::uint64_t>(value)); }
  void Bool(bool value);
  void Null();

  /// A raw pre-rendered JSON fragment (must itself be valid JSON).
  void Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  void Separate();

  std::string out_;
  /// One frame per open container: true while the next emission at this
  /// depth needs a leading comma.
  std::vector<bool> need_comma_{false};
  bool pending_key_ = false;
};

}  // namespace htp::obs
