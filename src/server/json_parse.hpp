// Minimal JSON parsing for htp_serve requests.
//
// The obs layer only ever *emits* JSON (obs/json.hpp is a writer); the
// daemon is the first consumer, so this header adds the matching reader: a
// small recursive-descent parser producing a DOM of JsonValue nodes.
// Deliberately minimal — requests are single-line NDJSON objects written
// by scripts — but a complete parser of the JSON grammar: all escape
// sequences (\uXXXX included, encoded back as UTF-8), nested containers,
// scientific-notation numbers. Every number is held as a double, exactly
// like the emitter renders them. Throws htp::Error with a byte offset on
// malformed input; no partial results.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/common.hpp"

namespace htp::serve {

/// One parsed JSON node. A tagged union in struct clothing: `kind` says
/// which member is meaningful. Object keys keep insertion order out of the
/// map's sorting — requests never depend on key order, so std::map's
/// lexicographic order is fine and keeps lookups simple.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_value;
  std::map<std::string, JsonValue> object_value;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;
};

/// Parses exactly one JSON document from `text` (surrounding whitespace
/// allowed, trailing garbage rejected). Throws htp::Error on anything
/// else, including containers nested more than 64 levels deep.
JsonValue ParseJson(std::string_view text);

}  // namespace htp::serve
