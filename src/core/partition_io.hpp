// Text serialization of hierarchical tree partitions.
//
// A stable, diff-friendly format so partitions survive across runs and
// feed downstream tools (placement, board assignment):
//
//   htp-partition v1
//   netlist <nodes> <nets> <pins>        # fingerprint of the hypergraph
//   root_level <L>
//   blocks <count>
//   block <id> <level> <parent-id|-1>      # in id order; parents precede
//   assign <node-id> <leaf-id>             # one line per node
//
// Block ids are the TreePartition's own ids (0 = root); writing then
// reading reproduces them exactly because children are recreated in id
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/tree_partition.hpp"

namespace htp {

/// What the text format holds, without the hypergraph: the netlist
/// fingerprint, the block table and one leaf id per node. A compact,
/// self-contained copy of a partition (the daemon's response tier stores
/// these) that renders through the same writer as a TreePartition.
struct PartitionTable {
  NodeId nodes = 0;
  NetId nets = 0;
  std::size_t pins = 0;
  Level root_level = 0;
  std::vector<Level> block_level;     ///< by block id
  std::vector<BlockId> block_parent;  ///< by block id; kInvalidBlock: root
  /// One leaf id per node, each in `leaf_width` little-endian bytes: the
  /// narrowest of 1, 2 and 4 that holds every block id (1 up to 256
  /// blocks, so a node costs a byte where its text line costs ~15).
  std::vector<std::uint8_t> leaf_ids;
  std::size_t leaf_width = 1;

  BlockId leaf_of(NodeId v) const {
    BlockId leaf = 0;
    for (std::size_t b = leaf_width; b-- > 0;)
      leaf = leaf << 8 | leaf_ids[std::size_t{v} * leaf_width + b];
    return leaf;
  }
};

/// Copies `tp` (which must be fully assigned) into a table.
PartitionTable TabulatePartition(const TreePartition& tp);

/// Serializes `tp` (which must be fully assigned) to the text format:
/// WritePartitionText(TabulatePartition(tp)).
std::string WritePartitionText(const TreePartition& tp);
std::string WritePartitionText(const PartitionTable& table);

/// Parses the text format against `hg`. Throws htp::Error (with a line
/// number) on malformed input, a netlist-fingerprint mismatch (the file
/// was written for a different hypergraph), inconsistent structure, or
/// assignments that do not cover every node exactly once. Files without a
/// fingerprint line (older format) are accepted.
TreePartition ReadPartitionText(const Hypergraph& hg, const std::string& text);

/// File helpers.
void WritePartitionFile(const TreePartition& tp, const std::string& path);
TreePartition ReadPartitionFile(const Hypergraph& hg, const std::string& path);

}  // namespace htp
