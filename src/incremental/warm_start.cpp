#include "incremental/warm_start.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/partition_io.hpp"

namespace htp {
namespace {

[[noreturn]] void Fail(std::size_t line, const std::string& msg) {
  throw WarmStartError("warm-start line " + std::to_string(line) + ": " + msg);
}

// Strict full-token parses; the format is machine-written, so anything
// unparsable means truncation or corruption, never style.
std::uint64_t ParseU64(const std::string& tok, std::size_t line,
                       const char* what) {
  if (tok.empty() || tok[0] == '-')
    Fail(line, std::string("unparsable ") + what + " '" + tok + "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size())
    Fail(line, std::string("unparsable ") + what + " '" + tok + "'");
  if (errno == ERANGE)
    Fail(line, std::string(what) + " '" + tok + "' is out of range");
  return v;
}

// Sanity-caps a declared line count before it drives any allocation or
// loop: every declared line costs at least one input character (its
// newline), so a count beyond the input length is a malformed — possibly
// hostile — header, not a big state.
void CheckCountFits(std::uint64_t count, const std::string& text,
                    std::size_t line, const char* what) {
  if (count > text.size())
    Fail(line, std::string(what) + " " + std::to_string(count) +
                   " exceeds the input size");
}

double ParseMetricValue(const std::string& tok, std::size_t line) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size())
    Fail(line, "unparsable metric value '" + tok + "'");
  if (!std::isfinite(v) || v < 0.0)
    Fail(line, "metric values must be finite and >= 0, got '" + tok + "'");
  return v;
}

}  // namespace

WarmStartState MakeWarmStartState(const Hypergraph& hg,
                                  const SpreadingMetric& metric,
                                  const TreePartition& tp,
                                  std::uint64_t seed) {
  HTP_CHECK_MSG(metric.size() == hg.num_nets(),
                "warm-start metric must carry one value per net");
  HTP_CHECK(&tp.hypergraph() == &hg);
  WarmStartState state;
  state.nodes = hg.num_nodes();
  state.nets = hg.num_nets();
  state.pins = hg.num_pins();
  state.seed = seed;
  state.metric = metric;
  state.partition_text = WritePartitionText(tp);
  return state;
}

std::string WriteWarmStartText(const WarmStartState& state) {
  std::ostringstream out;
  out << "htp-warm-start v1\n";
  out << "netlist " << state.nodes << " " << state.nets << " " << state.pins
      << "\n";
  out << "seed " << state.seed << "\n";
  out << "metric " << state.metric.size() << "\n";
  out << std::hexfloat;
  for (const double d : state.metric) out << d << "\n";
  out << std::defaultfloat;
  std::size_t partition_lines = 0;
  for (const char c : state.partition_text)
    if (c == '\n') ++partition_lines;
  if (!state.partition_text.empty() && state.partition_text.back() != '\n')
    ++partition_lines;
  out << "partition " << partition_lines << "\n";
  out << state.partition_text;
  if (!state.partition_text.empty() && state.partition_text.back() != '\n')
    out << "\n";
  return std::move(out).str();
}

WarmStartState ParseWarmStartText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  const auto next_line = [&](const char* what) {
    if (!std::getline(in, line))
      Fail(lineno, std::string("unexpected end of file, expected ") + what);
    ++lineno;
  };

  next_line("header");
  if (line != "htp-warm-start v1")
    Fail(lineno, "expected header 'htp-warm-start v1'");

  WarmStartState state;
  {
    next_line("'netlist <nodes> <nets> <pins>'");
    std::istringstream fields(line);
    std::string kw, a, b, c, extra;
    fields >> kw >> a >> b >> c;
    if (kw != "netlist" || c.empty() || (fields >> extra))
      Fail(lineno, "expected 'netlist <nodes> <nets> <pins>'");
    state.nodes = ParseU64(a, lineno, "node count");
    state.nets = ParseU64(b, lineno, "net count");
    state.pins = ParseU64(c, lineno, "pin count");
  }
  {
    next_line("'seed <seed>'");
    std::istringstream fields(line);
    std::string kw, a, extra;
    fields >> kw >> a;
    if (kw != "seed" || a.empty() || (fields >> extra))
      Fail(lineno, "expected 'seed <seed>'");
    state.seed = ParseU64(a, lineno, "seed");
  }
  {
    next_line("'metric <count>'");
    std::istringstream fields(line);
    std::string kw, a, extra;
    fields >> kw >> a;
    if (kw != "metric" || a.empty() || (fields >> extra))
      Fail(lineno, "expected 'metric <count>'");
    const std::uint64_t count = ParseU64(a, lineno, "metric count");
    CheckCountFits(count, text, lineno, "metric count");
    if (count != state.nets)
      Fail(lineno, "metric count " + std::to_string(count) +
                       " != net count " + std::to_string(state.nets));
    state.metric.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      next_line("a metric value");
      std::string tok;
      std::string extra_tok;
      std::istringstream value(line);
      value >> tok;
      if (tok.empty() || (value >> extra_tok))
        Fail(lineno, "expected exactly one metric value");
      state.metric.push_back(ParseMetricValue(tok, lineno));
    }
  }
  {
    next_line("'partition <line-count>'");
    std::istringstream fields(line);
    std::string kw, a, extra;
    fields >> kw >> a;
    if (kw != "partition" || a.empty() || (fields >> extra))
      Fail(lineno, "expected 'partition <line-count>'");
    const std::uint64_t count = ParseU64(a, lineno, "partition line count");
    CheckCountFits(count, text, lineno, "partition line count");
    std::ostringstream partition;
    for (std::uint64_t i = 0; i < count; ++i) {
      next_line("a partition line");
      partition << line << "\n";
    }
    state.partition_text = std::move(partition).str();
    if (state.partition_text.empty())
      Fail(lineno, "warm-start state must embed a partition");
  }
  std::string trailing;
  while (std::getline(in, trailing)) {
    ++lineno;
    if (!trailing.empty()) Fail(lineno, "trailing content after partition");
  }
  return state;
}

void WriteWarmStartFile(const WarmStartState& state, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw WarmStartError("cannot open warm-start file: " + path);
  out << WriteWarmStartText(state);
  if (!out) throw WarmStartError("failed writing warm-start file: " + path);
}

WarmStartState ReadWarmStartFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw WarmStartError("cannot open warm-start file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseWarmStartText(std::move(text).str());
}

void CheckWarmStartMatches(const WarmStartState& state, const Hypergraph& hg) {
  if (state.nodes != hg.num_nodes() || state.nets != hg.num_nets() ||
      state.pins != hg.num_pins())
    throw WarmStartError(
        "warm-start state was captured for a different netlist (fingerprint " +
        std::to_string(state.nodes) + "/" + std::to_string(state.nets) + "/" +
        std::to_string(state.pins) + " vs " +
        std::to_string(hg.num_nodes()) + "/" + std::to_string(hg.num_nets()) +
        "/" + std::to_string(hg.num_pins()) + ")");
}

SpreadingMetric RemapWarmMetric(const WarmStartState& state,
                                const DeltaApplication& app) {
  if (state.metric.size() != app.net_to_new.size())
    throw WarmStartError(
        "warm-start metric does not span the pre-delta netlist's nets");
  SpreadingMetric warm(app.net_touched.size(), 0.0);
  for (NetId e = 0; e < app.net_to_new.size(); ++e) {
    const NetId mapped = app.net_to_new[e];
    if (mapped == kInvalidNet) continue;  // removed or dropped
    if (!app.net_touched[mapped]) warm[mapped] = state.metric[e];
  }
  return warm;
}

}  // namespace htp
