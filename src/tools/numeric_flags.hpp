// Strict numeric flag parsing shared by htp_cli, htp_serve and the benches.
//
// Numeric flags must consume their whole argument: std::stoull and
// std::stod alone stop at the first bad character ("3x" reads as 3) and
// stoull wraps a leading '-'. Failures throw std::invalid_argument or
// std::out_of_range, which every driver maps to exit 2.
#pragma once

#include <cctype>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace htp::tools {

// Upper bound on every thread-count flag (--threads, --metric-threads).
// Pools start exactly the requested number of OS threads, so an unchecked
// value could ask for millions of them.
inline constexpr std::uint64_t kMaxThreads = 256;

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
