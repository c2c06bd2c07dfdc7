// The former iostream readers and writers, kept verbatim apart from their
// names and namespace (see reference_text_io.hpp).
#include "reference_text_io.hpp"

#include <cmath>
#include <sstream>
#include <vector>

namespace htp::reference {
namespace {

[[noreturn]] void Fail(std::size_t line_no, const std::string& msg) {
  throw Error("hgr parse error at line " + std::to_string(line_no) + ": " +
              msg);
}

[[noreturn]] void FailPartition(std::size_t line_no, const std::string& msg) {
  throw Error("partition parse error at line " + std::to_string(line_no) +
              ": " + msg);
}

// Reads the next non-comment, non-empty line; returns false at EOF.
bool NextLine(std::istream& in, std::string& line, std::size_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '%') continue;
    return true;
  }
  return false;
}

void EmitWeight(std::ostringstream& os, double w) {
  if (w == std::floor(w) && std::abs(w) < 1e15)
    os << static_cast<long long>(w);
  else
    os << w;
}

}  // namespace

Hypergraph ParseHmetis(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;

  if (!NextLine(in, line, line_no)) Fail(line_no, "empty input");
  std::istringstream header(line);
  long long num_nets = 0, num_nodes = 0;
  int fmt = 0;
  if (!(header >> num_nets >> num_nodes)) Fail(line_no, "bad header");
  header >> fmt;  // optional
  if (num_nets < 0 || num_nodes < 0) Fail(line_no, "negative counts");
  // Sanity-cap the header before it drives any allocation: every declared
  // net costs at least one input character (its line), and every node at
  // least one character somewhere (a pin reference or a weight line), so a
  // count beyond the input length is a malformed — possibly hostile —
  // header, not a big circuit.
  if (static_cast<unsigned long long>(num_nets) > text.size() ||
      static_cast<unsigned long long>(num_nodes) > text.size())
    Fail(line_no, "header counts exceed input size");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11)
    Fail(line_no, "unsupported fmt " + std::to_string(fmt));
  const bool net_weights = fmt == 1 || fmt == 11;
  const bool node_weights = fmt == 10 || fmt == 11;

  struct NetLine {
    double capacity;
    std::vector<NodeId> pins;
  };
  std::vector<NetLine> nets;
  nets.reserve(static_cast<std::size_t>(num_nets));
  for (long long e = 0; e < num_nets; ++e) {
    if (!NextLine(in, line, line_no)) Fail(line_no, "missing net line");
    std::istringstream ls(line);
    NetLine net;
    net.capacity = 1.0;
    if (net_weights && !(ls >> net.capacity))
      Fail(line_no, "missing net weight");
    long long pin = 0;
    while (ls >> pin) {
      if (pin < 1 || pin > num_nodes)
        Fail(line_no, "pin " + std::to_string(pin) + " out of range");
      net.pins.push_back(static_cast<NodeId>(pin - 1));
    }
    if (!ls.eof()) Fail(line_no, "trailing junk on net line");
    if (net.capacity <= 0.0) Fail(line_no, "net weight must be positive");
    if (net.pins.empty()) Fail(line_no, "net with no pins");
    nets.push_back(std::move(net));
  }

  std::vector<double> sizes(static_cast<std::size_t>(num_nodes), 1.0);
  if (node_weights) {
    for (long long v = 0; v < num_nodes; ++v) {
      if (!NextLine(in, line, line_no)) Fail(line_no, "missing node weight");
      std::istringstream ls(line);
      if (!(ls >> sizes[static_cast<std::size_t>(v)]))
        Fail(line_no, "bad node weight");
      if (sizes[static_cast<std::size_t>(v)] <= 0.0)
        Fail(line_no, "node weight must be positive");
    }
  }
  if (NextLine(in, line, line_no)) Fail(line_no, "trailing content");

  HypergraphBuilder builder;
  for (double s : sizes) builder.add_node(s);
  for (const NetLine& net : nets) builder.add_net(net.pins, net.capacity);
  return builder.build();
}

TreePartition ReadPartitionText(const Hypergraph& hg,
                                const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty()) return true;
    }
    return false;
  };

  if (!next_line() || line != "htp-partition v1")
    FailPartition(line_no, "missing 'htp-partition v1' header");

  // Netlist fingerprint: a partition is meaningless against a different
  // hypergraph, and a matching node count alone does not catch that.
  // Optional for backward compatibility with fingerprint-less files.
  {
    const std::istream::pos_type mark = in.tellg();
    const std::size_t mark_line = line_no;
    if (next_line()) {
      std::istringstream ls(line);
      std::string key;
      long long nodes = 0, nets = 0, pins = 0;
      if (ls >> key && key == "netlist") {
        if (!(ls >> nodes >> nets >> pins))
          FailPartition(line_no, "expected 'netlist <nodes> <nets> <pins>'");
        if (nodes != static_cast<long long>(hg.num_nodes()) ||
            nets != static_cast<long long>(hg.num_nets()) ||
            pins != static_cast<long long>(hg.num_pins()))
          FailPartition(line_no,
               "partition was written for a different netlist (" +
                   std::to_string(nodes) + "/" + std::to_string(nets) + "/" +
                   std::to_string(pins) + " vs " +
                   std::to_string(hg.num_nodes()) + "/" +
                   std::to_string(hg.num_nets()) + "/" +
                   std::to_string(hg.num_pins()) + " nodes/nets/pins)");
      } else {
        in.seekg(mark);  // no fingerprint line: rewind
        line_no = mark_line;
      }
    }
  }

  auto expect_kv = [&](const std::string& key) -> long long {
    if (!next_line()) FailPartition(line_no, "unexpected end of input");
    std::istringstream ls(line);
    std::string k;
    long long value = 0;
    if (!(ls >> k >> value) || k != key)
      FailPartition(line_no, "expected '" + key + " <n>'");
    return value;
  };

  const long long root_level = expect_kv("root_level");
  if (root_level < 0 || root_level > 64)
    FailPartition(line_no, "bad root level");
  const long long num_blocks = expect_kv("blocks");
  if (num_blocks < 1) FailPartition(line_no, "bad block count");

  TreePartition tp(hg, static_cast<Level>(root_level));
  for (long long q = 0; q < num_blocks; ++q) {
    if (!next_line()) FailPartition(line_no, "missing block line");
    std::istringstream ls(line);
    std::string k;
    long long id = 0, level = 0, parent = 0;
    if (!(ls >> k >> id >> level >> parent) || k != "block")
      FailPartition(line_no, "expected 'block <id> <level> <parent>'");
    if (id != q) FailPartition(line_no, "blocks must appear in id order");
    if (q == 0) {
      if (parent != -1 || level != root_level)
        FailPartition(line_no, "block 0 must be the root");
      continue;
    }
    if (parent < 0 || parent >= q)
      FailPartition(line_no, "parent must precede the child");
    const BlockId created = tp.AddChild(static_cast<BlockId>(parent));
    if (created != static_cast<BlockId>(q) ||
        tp.level(created) != static_cast<Level>(level))
      FailPartition(line_no, "inconsistent block level");
  }

  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    if (!next_line()) FailPartition(line_no, "missing assign line");
    std::istringstream ls(line);
    std::string k;
    long long node = 0, leaf = 0;
    if (!(ls >> k >> node >> leaf) || k != "assign")
      FailPartition(line_no, "expected 'assign <node> <leaf>'");
    if (node < 0 || static_cast<NodeId>(node) >= hg.num_nodes())
      FailPartition(line_no, "node id out of range");
    if (leaf < 0 || static_cast<BlockId>(leaf) >= tp.num_blocks())
      FailPartition(line_no, "leaf id out of range");
    tp.AssignNode(static_cast<NodeId>(node), static_cast<BlockId>(leaf));
  }
  if (next_line()) FailPartition(line_no, "trailing content after assignments");
  HTP_CHECK(tp.fully_assigned());
  return tp;
}

std::string WriteHmetis(const Hypergraph& hg) {
  bool net_weights = false;
  for (NetId e = 0; e < hg.num_nets(); ++e)
    net_weights |= hg.net_capacity(e) != 1.0;
  const bool node_weights = !hg.unit_sizes();

  std::ostringstream os;
  os << "% written by htp\n";
  os << hg.num_nets() << " " << hg.num_nodes();
  if (net_weights && node_weights)
    os << " 11";
  else if (node_weights)
    os << " 10";
  else if (net_weights)
    os << " 1";
  os << "\n";
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    if (net_weights) {
      EmitWeight(os, hg.net_capacity(e));
      os << " ";
    }
    bool first = true;
    for (NodeId v : hg.pins(e)) {
      if (!first) os << " ";
      os << (v + 1);
      first = false;
    }
    os << "\n";
  }
  if (node_weights) {
    for (NodeId v = 0; v < hg.num_nodes(); ++v) {
      EmitWeight(os, hg.node_size(v));
      os << "\n";
    }
  }
  return os.str();
}

std::string WritePartitionText(const TreePartition& tp) {
  HTP_CHECK_MSG(tp.fully_assigned(), "cannot serialize a partial partition");
  std::ostringstream os;
  os << "htp-partition v1\n";
  const Hypergraph& fp = tp.hypergraph();
  os << "netlist " << fp.num_nodes() << " " << fp.num_nets() << " "
     << fp.num_pins() << "\n";
  os << "root_level " << tp.root_level() << "\n";
  os << "blocks " << tp.num_blocks() << "\n";
  for (BlockId q = 0; q < tp.num_blocks(); ++q) {
    os << "block " << q << " " << tp.level(q) << " ";
    if (tp.parent(q) == kInvalidBlock)
      os << "-1\n";
    else
      os << tp.parent(q) << "\n";
  }
  const Hypergraph& hg = tp.hypergraph();
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    os << "assign " << v << " " << tp.leaf_of(v) << "\n";
  return os.str();
}

}  // namespace htp::reference
