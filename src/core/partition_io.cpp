#include "core/partition_io.hpp"

#include <fstream>
#include <sstream>

#include "netlist/text_scan.hpp"

namespace htp {
namespace {

[[noreturn]] void Fail(std::size_t line_no, const std::string& msg) {
  throw Error("partition parse error at line " + std::to_string(line_no) +
              ": " + msg);
}

// Appends `key` and `values`, each after a space, and a newline.
template <typename... Ints>
void AppendLine(std::string& out, std::string_view key, Ints... values) {
  out += key;
  ((out += ' ', text::AppendInt(out, values)), ...);
  out += '\n';
}

}  // namespace

std::string WritePartitionText(const TreePartition& tp) {
  HTP_CHECK_MSG(tp.fully_assigned(), "cannot serialize a partial partition");
  const Hypergraph& hg = tp.hypergraph();
  // At most: "assign", the node and the leaf id, two spaces and a newline
  // per node; 64 characters per block line and for the header.
  std::string out = "htp-partition v1\n";
  out.reserve(64 * (tp.num_blocks() + 4) +
              std::size_t{hg.num_nodes()} *
                  (9 + text::DecimalDigits(hg.num_nodes()) +
                   text::DecimalDigits(tp.num_blocks())));
  AppendLine(out, "netlist", hg.num_nodes(), hg.num_nets(), hg.num_pins());
  AppendLine(out, "root_level", tp.root_level());
  AppendLine(out, "blocks", tp.num_blocks());
  for (BlockId q = 0; q < tp.num_blocks(); ++q) {
    const BlockId parent = tp.parent(q);
    AppendLine(out, "block", q, tp.level(q),
               parent == kInvalidBlock ? -1LL : static_cast<long long>(parent));
  }
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    AppendLine(out, "assign", v, tp.leaf_of(v));
  return out;
}

TreePartition ReadPartitionText(const Hypergraph& hg,
                                const std::string& text) {
  text::LineReader lines(text);
  std::string_view line;
  // Skips empty lines; a line of blanks is not empty.
  auto next_line = [&]() -> bool {
    while (lines.Next(line))
      if (!line.empty()) return true;
    return false;
  };

  if (!next_line() || line != "htp-partition v1")
    Fail(lines.line_no(), "missing 'htp-partition v1' header");

  // Netlist fingerprint: a partition is meaningless against a different
  // hypergraph, and a matching node count alone does not catch that.
  // Optional for backward compatibility with fingerprint-less files.
  {
    const text::LineReader mark = lines;
    if (next_line()) {
      text::Fields fields(line);
      std::string_view key;
      long long nodes = 0, nets = 0, pins = 0;
      if (fields.Word(key) && key == "netlist") {
        if (!(fields.Int(nodes) && fields.Int(nets) && fields.Int(pins)))
          Fail(lines.line_no(), "expected 'netlist <nodes> <nets> <pins>'");
        if (nodes != static_cast<long long>(hg.num_nodes()) ||
            nets != static_cast<long long>(hg.num_nets()) ||
            pins != static_cast<long long>(hg.num_pins()))
          Fail(lines.line_no(),
               "partition was written for a different netlist (" +
                   std::to_string(nodes) + "/" + std::to_string(nets) + "/" +
                   std::to_string(pins) + " vs " +
                   std::to_string(hg.num_nodes()) + "/" +
                   std::to_string(hg.num_nets()) + "/" +
                   std::to_string(hg.num_pins()) + " nodes/nets/pins)");
      } else {
        lines = mark;  // no fingerprint line: rewind
      }
    }
  }

  auto expect_kv = [&](std::string_view key) -> long long {
    if (!next_line()) Fail(lines.line_no(), "unexpected end of input");
    text::Fields fields(line);
    std::string_view k;
    long long value = 0;
    if (!(fields.Word(k) && fields.Int(value)) || k != key)
      Fail(lines.line_no(), "expected '" + std::string(key) + " <n>'");
    return value;
  };

  const long long root_level = expect_kv("root_level");
  if (root_level < 0 || root_level > 64)
    Fail(lines.line_no(), "bad root level");
  const long long num_blocks = expect_kv("blocks");
  if (num_blocks < 1) Fail(lines.line_no(), "bad block count");

  TreePartition tp(hg, static_cast<Level>(root_level));
  for (long long q = 0; q < num_blocks; ++q) {
    if (!next_line()) Fail(lines.line_no(), "missing block line");
    text::Fields fields(line);
    std::string_view k;
    long long id = 0, level = 0, parent = 0;
    if (!(fields.Word(k) && fields.Int(id) && fields.Int(level) &&
          fields.Int(parent)) ||
        k != "block")
      Fail(lines.line_no(), "expected 'block <id> <level> <parent>'");
    if (id != q) Fail(lines.line_no(), "blocks must appear in id order");
    if (q == 0) {
      if (parent != -1 || level != root_level)
        Fail(lines.line_no(), "block 0 must be the root");
      continue;
    }
    if (parent < 0 || parent >= q)
      Fail(lines.line_no(), "parent must precede the child");
    const BlockId created = tp.AddChild(static_cast<BlockId>(parent));
    if (created != static_cast<BlockId>(q) ||
        tp.level(created) != static_cast<Level>(level))
      Fail(lines.line_no(), "inconsistent block level");
  }

  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    if (!next_line()) Fail(lines.line_no(), "missing assign line");
    text::Fields fields(line);
    std::string_view k;
    long long node = 0, leaf = 0;
    if (!(fields.Word(k) && fields.Int(node) && fields.Int(leaf)) ||
        k != "assign")
      Fail(lines.line_no(), "expected 'assign <node> <leaf>'");
    if (node < 0 || static_cast<NodeId>(node) >= hg.num_nodes())
      Fail(lines.line_no(), "node id out of range");
    if (leaf < 0 || static_cast<BlockId>(leaf) >= tp.num_blocks())
      Fail(lines.line_no(), "leaf id out of range");
    tp.AssignNode(static_cast<NodeId>(node), static_cast<BlockId>(leaf));
  }
  if (next_line()) Fail(lines.line_no(), "trailing content after assignments");
  HTP_CHECK(tp.fully_assigned());
  return tp;
}

void WritePartitionFile(const TreePartition& tp, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  out << WritePartitionText(tp);
  if (!out) throw Error("failed writing: " + path);
}

TreePartition ReadPartitionFile(const Hypergraph& hg,
                                const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open partition file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ReadPartitionText(hg, ss.str());
}

}  // namespace htp
