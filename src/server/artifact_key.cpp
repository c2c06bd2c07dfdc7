#include "server/artifact_key.hpp"

#include <cstring>

namespace htp::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t FoldU64(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t FoldDouble(std::uint64_t h, double value) {
  // IEEE-754 bit pattern: exact, total, and platform-stable for the
  // finite values these structures carry.
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return FoldU64(h, bits);
}

}  // namespace

std::uint64_t HashBytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t CombineHashes(std::span<const std::uint64_t> hashes) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t value : hashes) h = FoldU64(h, value);
  return h;
}

std::uint64_t HashNetlist(const Hypergraph& hg) {
  std::uint64_t h = HashBytes(kFnvOffset, "htp-netlist-hash-v1");
  h = FoldU64(h, hg.num_nodes());
  h = FoldU64(h, hg.num_nets());
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    h = FoldDouble(h, hg.node_size(v));
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const auto pins = hg.pins(e);
    h = FoldDouble(h, hg.net_capacity(e));
    h = FoldU64(h, pins.size());
    // Pin order as stored is part of the fingerprint: the builder
    // produces it deterministically from the input, and algorithms
    // iterate pins in this order, so order-differing lists are
    // legitimately distinct artifacts.
    for (const NodeId pin : pins) h = FoldU64(h, pin);
  }
  return h;
}

std::uint64_t HashSpec(const HierarchySpec& spec) {
  std::uint64_t h = HashBytes(kFnvOffset, "htp-spec-hash-v1");
  h = FoldU64(h, spec.num_levels());
  for (const LevelSpec& level : spec.levels()) {
    h = FoldDouble(h, level.capacity);
    h = FoldU64(h, level.max_branches);
    h = FoldDouble(h, level.weight);
  }
  return h;
}

std::uint64_t HashInjectionParams(const FlowInjectionParams& params) {
  std::uint64_t h = HashBytes(kFnvOffset, "htp-injection-hash-v3");
  h = FoldDouble(h, params.epsilon);
  h = FoldDouble(h, params.alpha);
  h = FoldDouble(h, params.delta);
  h = FoldDouble(h, params.tolerance);
  h = FoldU64(h, params.max_rounds);
  h = FoldU64(h, params.seed);
  // The full warm-start seed (ECO, docs/incremental.md): every value
  // shifts the computation it seeds, so a warm-seeded metric must never
  // alias the cold artifact for the same (netlist, spec, seed) — folding
  // the element count first also separates "no seed" from "all-zero seed".
  h = FoldU64(h, params.warm_metric ? params.warm_metric->size() : 0);
  if (params.warm_metric)
    for (const double d : *params.warm_metric) h = FoldDouble(h, d);
  return h;
}

std::string HexKey(std::uint64_t key) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[key & 0xf];
    key >>= 4;
  }
  return out;
}

}  // namespace htp::serve
