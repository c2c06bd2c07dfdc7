// Strict numeric flag parsing shared by htp_cli and htp_serve.
//
// Numeric flags must consume their whole argument: std::stoull and
// std::stod alone stop at the first bad character ("3x" reads as 3) and
// stoull wraps a leading '-'. Failures throw std::invalid_argument or
// std::out_of_range, which both tools' main map to exit 2.
#pragma once

#include <cctype>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace htp::tools {

inline std::uint64_t ParseUnsigned(
    const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
    throw std::invalid_argument(text);
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument(text);
  if (value > max) throw std::out_of_range(text);
  return value;
}

inline double ParseDouble(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    throw std::invalid_argument(text);
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument(text);
  return value;
}

}  // namespace htp::tools
