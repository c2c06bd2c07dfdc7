// hMETIS `.hgr` hypergraph format reader/writer.
//
// The de-facto exchange format of the partitioning literature (hMETIS,
// KaHyPar, MtKaHyPar all consume it), so netlists can move between this
// library and standard tools:
//
//   % comment
//   <num_nets> <num_nodes> [fmt]
//   [<capacity>] <pin> <pin> ...        one line per net, pins are 1-based
//   [<node size>]                       one line per node when fmt has 10
//
// fmt: 0/omitted = unweighted, 1 = net weights, 10 = node weights,
// 11 = both. Weights are written as integers when integral (the common
// convention), otherwise as decimals.
#pragma once

#include <string>
#include <string_view>

#include "netlist/hypergraph.hpp"

namespace htp {

/// Parses .hgr text. Throws htp::Error with a line number on bad input
/// (pin out of range, wrong line counts, nets with < 2 distinct pins are
/// dropped like everywhere else in the library). docs/file-formats.md has
/// the exact rules.
Hypergraph ParseHmetis(std::string_view text);

/// Reads a .hgr file from disk.
Hypergraph ParseHmetisFile(const std::string& path);

/// Serializes `hg` to .hgr text, emitting the smallest fmt that preserves
/// its weights.
std::string WriteHmetis(const Hypergraph& hg);

/// Writes a .hgr file to disk.
void WriteHmetisFile(const Hypergraph& hg, const std::string& path);

}  // namespace htp
