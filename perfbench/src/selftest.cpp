// Negative cases for the output checker: a corrupted partition, a wrong
// cost and a mismatched repeat must each be counted as a failure, and the
// untouched outputs must pass. Run by perfbench/test_perfbench.py.
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "core/partition_io.hpp"
#include "netlist/generators.hpp"
#include "server/json_parse.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"

namespace pb {

int RunSelfTest(const Options& options) {
  htp::serve::SessionRequest request;
  request.circuit = "c1355";
  request.height = 3;
  request.iterations = 1;
  request.refine = true;
  request.seed = options.seed;
  const htp::serve::SessionResult result =
      htp::serve::RunSession(request, nullptr);
  const htp::Hypergraph& hg = *result.netlist;
  const htp::HierarchySpec spec = SessionSpec(hg.total_size(), 3);
  const std::string text = htp::WritePartitionText(*result.partition);
  const double cost = result.fm.final_cost;

  int failures = 0;
  auto expect = [&](const char* what, const std::string& problem,
                    bool should_fail) {
    const bool failed = !problem.empty();
    const bool ok = failed == should_fail;
    std::printf("%-44s %s%s%s\n", what, ok ? "ok" : "WRONG",
                failed ? " -- checker: " : "", problem.c_str());
    if (!ok) ++failures;
  };

  expect("valid partition passes", CheckPartition(hg, spec, text, cost),
         false);
  expect("wrong cost is a failure", CheckPartition(hg, spec, text, cost + 1),
         true);

  // Every node moved into the leaf of node 0: over capacity.
  std::string crowded;
  std::string leaf;
  for (std::size_t pos = 0, end; pos < text.size(); pos = end + 1) {
    end = text.find('\n', pos);
    std::string line = text.substr(pos, end - pos);
    if (line.rfind("assign ", 0) == 0) {
      const std::string target = line.substr(line.rfind(' ') + 1);
      if (leaf.empty()) leaf = target;
      line = line.substr(0, line.rfind(' ') + 1) + leaf;
    }
    crowded += line + "\n";
  }
  expect("over-capacity partition is a failure",
         CheckPartition(hg, spec, crowded, cost), true);
  expect("truncated partition is a failure",
         CheckPartition(hg, spec, text.substr(0, text.size() / 2), cost),
         true);
  expect("partition of another netlist is a failure",
         CheckPartition(htp::MakeIscas85Like("c2670", options.seed), spec,
                        text, cost),
         true);

  // Repeat responses: the deterministic section must match byte for byte.
  const htp::serve::ServeRequest serve_request = htp::serve::ParseServeRequest(
      htp::serve::ParseJson("{\"circuit\":\"c1355\",\"height\":3,"
                            "\"iterations\":1,\"refine\":true}"));
  const std::string original =
      htp::serve::RenderServeResponse(serve_request, result, 1.0);
  const std::string same =
      htp::serve::RenderServeResponse(serve_request, result, 7.0);
  htp::serve::SessionResult altered = result;
  altered.fm.final_cost += 1;
  const std::string different =
      htp::serve::RenderServeResponse(serve_request, altered, 1.0);
  expect("repeat with equal deterministic section", CheckRepeat(original, same),
         false);
  expect("mismatched repeat is a failure", CheckRepeat(original, different),
         true);
  expect("error response as repeat is a failure",
         CheckRepeat(original, htp::serve::RenderServeError("1", "boom")),
         true);

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace pb
