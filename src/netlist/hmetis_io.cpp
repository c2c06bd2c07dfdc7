#include "netlist/hmetis_io.hpp"

#include <cmath>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "netlist/text_scan.hpp"

namespace htp {
namespace {

[[noreturn]] void Fail(std::size_t line_no, const std::string& msg) {
  throw Error("hgr parse error at line " + std::to_string(line_no) + ": " +
              msg);
}

// Reads the next line that is neither blank (spaces, tabs and '\r' only)
// nor a '%' comment; returns false at the end of the text.
bool NextLine(text::LineReader& lines, std::string_view& line) {
  while (lines.Next(line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;
    if (line[first] == '%') continue;
    return true;
  }
  return false;
}

// Integral weights print as integers (the common convention), others as an
// ostream prints a double: printf's %g with 6 significant digits.
void AppendWeight(std::string& out, double w) {
  if (w == std::floor(w) && std::abs(w) < 1e15) {
    text::AppendInt(out, static_cast<long long>(w));
    return;
  }
  char buf[32];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, w, std::chars_format::general, 6);
  out.append(buf, ptr);
}

}  // namespace

Hypergraph ParseHmetis(std::string_view text) {
  text::LineReader lines(text);
  std::string_view line;

  if (!NextLine(lines, line)) Fail(lines.line_no(), "empty input");
  text::Fields header(line);
  long long num_nets = 0, num_nodes = 0, fmt = 0;
  if (!header.Int(num_nets) || !header.Int(num_nodes))
    Fail(lines.line_no(), "bad header");
  if (!header.AtEnd() && (!header.Int(fmt) || !header.AtEnd()))
    Fail(lines.line_no(), "trailing junk on header line");
  if (num_nets < 0 || num_nodes < 0) Fail(lines.line_no(), "negative counts");
  // Sanity-cap the header before it drives any allocation: every declared
  // net costs at least one input character (its line), and every node at
  // least one character somewhere (a pin reference or a weight line), so a
  // count beyond the input length is a malformed — possibly hostile —
  // header, not a big circuit.
  if (static_cast<unsigned long long>(num_nets) > text.size() ||
      static_cast<unsigned long long>(num_nodes) > text.size())
    Fail(lines.line_no(), "header counts exceed input size");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11)
    Fail(lines.line_no(), "unsupported fmt " + std::to_string(fmt));
  const bool net_weights = fmt == 1 || fmt == 11;
  const bool node_weights = fmt == 10 || fmt == 11;

  // Nets are staged flat, every pin in one array with each net's end
  // offset, until the node sizes that follow them are read.
  std::vector<NodeId> pins;
  std::vector<std::size_t> net_end;
  std::vector<double> capacities;
  net_end.reserve(static_cast<std::size_t>(num_nets));
  capacities.reserve(static_cast<std::size_t>(num_nets));
  for (long long e = 0; e < num_nets; ++e) {
    if (!NextLine(lines, line)) Fail(lines.line_no(), "missing net line");
    text::Fields fields(line);
    double capacity = 1.0;
    if (net_weights && !fields.Real(capacity))
      Fail(lines.line_no(), "missing net weight");
    const std::size_t first_pin = pins.size();
    long long pin = 0;
    while (fields.Int(pin)) {
      if (pin < 1 || pin > num_nodes)
        Fail(lines.line_no(), "pin " + std::to_string(pin) + " out of range");
      pins.push_back(static_cast<NodeId>(pin - 1));
    }
    if (!fields.AtEnd()) Fail(lines.line_no(), "trailing junk on net line");
    if (capacity <= 0.0)
      Fail(lines.line_no(), "net weight must be positive");
    if (pins.size() == first_pin) Fail(lines.line_no(), "net with no pins");
    net_end.push_back(pins.size());
    capacities.push_back(capacity);
  }

  std::vector<double> sizes(static_cast<std::size_t>(num_nodes), 1.0);
  if (node_weights) {
    for (double& size : sizes) {
      if (!NextLine(lines, line)) Fail(lines.line_no(), "missing node weight");
      text::Fields fields(line);
      if (!fields.Real(size)) Fail(lines.line_no(), "bad node weight");
      if (!fields.AtEnd())
        Fail(lines.line_no(), "trailing junk on node weight line");
      if (size <= 0.0) Fail(lines.line_no(), "node weight must be positive");
    }
  }
  if (NextLine(lines, line)) Fail(lines.line_no(), "trailing content");

  HypergraphBuilder builder;
  for (double s : sizes) builder.add_node(s);
  const std::span<const NodeId> all_pins(pins);
  for (std::size_t e = 0, begin = 0; e < net_end.size(); begin = net_end[e++])
    builder.add_net(all_pins.subspan(begin, net_end[e] - begin),
                    capacities[e]);
  return builder.build();
}

Hypergraph ParseHmetisFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open hgr file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseHmetis(ss.str());
}

std::string WriteHmetis(const Hypergraph& hg) {
  bool net_weights = false;
  for (NetId e = 0; e < hg.num_nets(); ++e)
    net_weights |= hg.net_capacity(e) != 1.0;
  const bool node_weights = !hg.unit_sizes();

  // A pin takes at most as many digits as the node count, plus a space or
  // newline; a weight at most 24 characters with its separator.
  std::string out = "% written by htp\n";
  out.reserve(64 + hg.num_pins() * (text::DecimalDigits(hg.num_nodes()) + 1) +
              (net_weights ? 24 * std::size_t{hg.num_nets()} : 0) +
              (node_weights ? 24 * std::size_t{hg.num_nodes()} : 0));
  text::AppendInt(out, hg.num_nets());
  out += ' ';
  text::AppendInt(out, hg.num_nodes());
  if (net_weights && node_weights)
    out += " 11";
  else if (node_weights)
    out += " 10";
  else if (net_weights)
    out += " 1";
  out += '\n';
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    if (net_weights) {
      AppendWeight(out, hg.net_capacity(e));
      out += ' ';
    }
    bool first = true;
    for (NodeId v : hg.pins(e)) {
      if (!first) out += ' ';
      text::AppendInt(out, v + 1);
      first = false;
    }
    out += '\n';
  }
  if (node_weights) {
    for (NodeId v = 0; v < hg.num_nodes(); ++v) {
      AppendWeight(out, hg.node_size(v));
      out += '\n';
    }
  }
  return out;
}

void WriteHmetisFile(const Hypergraph& hg, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  out << WriteHmetis(hg);
  if (!out) throw Error("failed writing: " + path);
}

}  // namespace htp
