// Test-only references: the iostream-based hMETIS and partition readers and
// writers the library used before its from_chars text layer. The
// differential test (text_io_diff_test.cpp) holds the library to these:
// the same bytes from the writers, and from the readers the same hypergraph
// or partition, or an htp::Error on the same line, except for the
// tightenings docs/file-formats.md lists.
#pragma once

#include <string>
#include <string_view>

#include "core/tree_partition.hpp"
#include "netlist/hypergraph.hpp"

namespace htp::reference {

/// The former ParseHmetis: istringstream per line, nets staged as vectors.
Hypergraph ParseHmetis(std::string_view text);

/// The former ReadPartitionText: a getline loop with istringstream fields.
TreePartition ReadPartitionText(const Hypergraph& hg, const std::string& text);

/// The former WriteHmetis and WritePartitionText, on ostringstream.
std::string WriteHmetis(const Hypergraph& hg);
std::string WritePartitionText(const TreePartition& tp);

}  // namespace htp::reference
