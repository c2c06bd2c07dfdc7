#include "server/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "core/partition_io.hpp"
#include "obs/json.hpp"
#include "server/artifact_key.hpp"

namespace htp::serve {

namespace {

// Every member a v1 request may carry. Strict decoding: anything else is
// rejected, so a typo ("iteration") cannot silently run with defaults.
const std::set<std::string, std::less<>>& KnownRequestKeys() {
  static const std::set<std::string, std::less<>> keys = {
      "schema",          "schema_version",    "op",
      "id",              "circuit",           "bench_text",
      "algo",            "height",            "branching",
      "slack",           "weights",           "iterations",
      "refine",          "multilevel",        "coarsen_threshold",
      "seed",            "deadline_ms",       "max_rounds",
      "report",          "delta_text",        "warm_text",
      "emit_warm_state",
  };
  return keys;
}

[[noreturn]] void FailField(std::string_view key, std::string_view what) {
  throw Error("request: member '" + std::string(key) + "' " +
              std::string(what));
}

double GetNumber(const JsonValue& doc, std::string_view key, double fallback) {
  const JsonValue* v = doc.Find(key);
  if (!v) return fallback;
  if (v->kind != JsonValue::Kind::kNumber) FailField(key, "must be a number");
  return v->number_value;
}

// JSON numbers are doubles, exact for integers up to 2^53: larger counts
// are rejected rather than rounded (or, past 2^64, cast with undefined
// behaviour). `max` narrows the range for members with a smaller type.
constexpr std::uint64_t kMaxExactCount = std::uint64_t{1} << 53;

std::size_t GetCount(const JsonValue& doc, std::string_view key,
                     std::size_t fallback,
                     std::uint64_t max = kMaxExactCount) {
  const JsonValue* v = doc.Find(key);
  if (!v) return fallback;
  if (v->kind != JsonValue::Kind::kNumber || v->number_value < 0 ||
      v->number_value != std::floor(v->number_value))
    FailField(key, "must be a nonnegative integer");
  if (v->number_value > static_cast<double>(max))
    FailField(key, "must be at most " + std::to_string(max));
  return static_cast<std::size_t>(v->number_value);
}

std::string GetString(const JsonValue& doc, std::string_view key,
                      std::string fallback) {
  const JsonValue* v = doc.Find(key);
  if (!v) return fallback;
  if (v->kind != JsonValue::Kind::kString) FailField(key, "must be a string");
  return v->string_value;
}

bool GetBool(const JsonValue& doc, std::string_view key, bool fallback) {
  const JsonValue* v = doc.Find(key);
  if (!v) return fallback;
  if (v->kind != JsonValue::Kind::kBool) FailField(key, "must be a boolean");
  return v->bool_value;
}

std::string RenderIdFragment(const JsonValue* id) {
  if (!id) return "null";
  obs::JsonWriter w;
  switch (id->kind) {
    case JsonValue::Kind::kString:
      w.String(id->string_value);
      break;
    case JsonValue::Kind::kNumber:
      w.Number(id->number_value);
      break;
    default:
      FailField("id", "must be a string or a number");
  }
  return std::move(w).Take();
}

void BeginResponse(obs::JsonWriter& w, const std::string& id_json) {
  w.BeginObject();
  w.Key("schema");
  w.String(kServeResponseSchema);
  w.Key("schema_version");
  w.Number(kServeSchemaVersion);
  w.Key("id");
  w.Raw(id_json);
}

}  // namespace

ServeRequest ParseServeRequest(const JsonValue& doc) {
  if (!doc.is_object()) throw Error("request: must be a JSON object");
  for (const auto& [key, value] : doc.object_value) {
    (void)value;
    if (!KnownRequestKeys().contains(key))
      throw Error("request: unknown member '" + key + "'");
  }
  const std::string schema =
      GetString(doc, "schema", std::string(kServeRequestSchema));
  if (schema != kServeRequestSchema)
    throw Error("request: schema must be '" +
                std::string(kServeRequestSchema) + "'");
  const std::size_t version =
      GetCount(doc, "schema_version", kServeSchemaVersion);
  if (version != kServeSchemaVersion)
    throw Error("request: unknown schema_version " + std::to_string(version));

  ServeRequest request;
  request.id_json = RenderIdFragment(doc.Find("id"));
  request.op = GetString(doc, "op", "partition");
  if (request.op != "partition" && request.op != "ping" &&
      request.op != "stats" && request.op != "shutdown")
    throw Error("request: unknown op '" + request.op + "'");

  SessionRequest& s = request.session;
  s.circuit = GetString(doc, "circuit", "");
  s.bench_text = GetString(doc, "bench_text", "");
  if (request.op == "partition" && s.circuit.empty() && s.bench_text.empty())
    throw Error("request: need a netlist source (circuit or bench_text)");
  if (!s.circuit.empty() && !s.bench_text.empty())
    throw Error("request: circuit and bench_text are mutually exclusive");
  s.algo = GetString(doc, "algo", "flow");
  s.height = static_cast<Level>(
      GetCount(doc, "height", 4, std::numeric_limits<Level>::max()));
  s.branching = GetCount(doc, "branching", 2);
  s.slack = GetNumber(doc, "slack", 0.10);
  if (const JsonValue* weights = doc.Find("weights")) {
    if (weights->kind != JsonValue::Kind::kArray)
      FailField("weights", "must be an array of numbers");
    for (const JsonValue& w : weights->array_value) {
      if (w.kind != JsonValue::Kind::kNumber)
        FailField("weights", "must be an array of numbers");
      s.weights.push_back(w.number_value);
    }
  }
  s.iterations = GetCount(doc, "iterations", 4);
  s.refine = GetBool(doc, "refine", false);
  s.multilevel = GetBool(doc, "multilevel", false);
  s.coarsen_threshold = GetCount(doc, "coarsen_threshold", 800);
  // ECO members (docs/incremental.md): inline documents only — the daemon
  // never opens request-named paths, mirroring bench_text vs bench_file.
  s.delta_text = GetString(doc, "delta_text", "");
  s.warm_text = GetString(doc, "warm_text", "");
  s.emit_warm_state = GetBool(doc, "emit_warm_state", false);
  // Seeds ride a JSON number: exact up to 2^53, documented in
  // docs/file-formats.md.
  s.seed = static_cast<std::uint64_t>(GetCount(doc, "seed", 1));
  s.budget.max_rounds = GetCount(doc, "max_rounds", 0);
  request.deadline_ms = GetNumber(doc, "deadline_ms", 0.0);
  if (request.deadline_ms < 0) FailField("deadline_ms", "must be >= 0");
  if (request.deadline_ms > 0)
    s.budget.time_budget_seconds = request.deadline_ms / 1000.0;
  request.want_report = GetBool(doc, "report", false);
  s.collect_report = request.want_report;
  s.report_tool = "htp_serve";
  return request;
}

ResponseSection MakeResponseSection(const ServeRequest& request,
                                    const SessionResult& result) {
  const Hypergraph& hg = *result.netlist;
  ResponseSection section;
  section.cost = result.refined ? result.fm.final_cost : result.cost;

  obs::JsonWriter meta;
  meta.BeginObject();
  meta.Key("algorithm");
  meta.String(request.session.algo);
  meta.Key("source");
  meta.String(request.session.circuit.empty() ? "bench"
                                              : request.session.circuit);
  meta.Key("netlist_hash");
  meta.String(HexKey(result.netlist_hash));
  meta.Key("nodes");
  meta.Number(static_cast<std::uint64_t>(hg.num_nodes()));
  meta.Key("nets");
  meta.Number(static_cast<std::uint64_t>(hg.num_nets()));
  meta.Key("pins");
  meta.Number(static_cast<std::uint64_t>(hg.num_pins()));
  meta.Key("hierarchy");
  meta.String(result.spec.ToString());
  meta.Key("seed");
  meta.Number(static_cast<std::uint64_t>(request.session.seed));
  meta.Key("iterations_requested");
  meta.Number(static_cast<std::uint64_t>(request.session.iterations));
  meta.Key("multilevel");
  meta.Bool(result.used_multilevel);
  meta.EndObject();
  section.meta = std::move(meta).Take();

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("cost");
  w.Number(section.cost);
  w.Key("algo_cost");
  w.Number(result.cost);
  w.Key("completed");
  w.Bool(result.completed);
  w.Key("stop_reason");
  w.String(StopReasonName(result.stop_reason));
  w.Key("refined");
  w.Bool(result.refined);
  if (result.refined) {
    w.Key("fm_moves_kept");
    w.Number(static_cast<std::uint64_t>(result.fm.moves_kept));
    w.Key("fm_passes");
    w.Number(static_cast<std::uint64_t>(result.fm.passes));
  }
  if (result.used_multilevel) {
    w.Key("coarsen_levels");
    w.Number(static_cast<std::uint64_t>(result.coarsen_levels));
    w.Key("coarsest_nodes");
    w.Number(static_cast<std::uint64_t>(result.coarsest_nodes));
    w.Key("coarse_cost");
    w.Number(result.coarse_cost);
    w.Key("feasibility_fallbacks");
    w.Number(static_cast<std::uint64_t>(result.feasibility_fallbacks));
  }
  if (result.eco) {
    // ECO summary. Deterministic by construction: every field is a pure
    // function of the request, so this object is safe inside the
    // deterministic section.
    w.Key("eco");
    w.BeginObject();
    w.Key("pre_delta_hash");
    w.String(HexKey(result.pre_delta_hash));
    w.Key("warm_source");
    w.String(result.warm_source);
    w.Key("blocks_reused");
    w.Number(static_cast<std::uint64_t>(result.eco_blocks_reused));
    w.Key("blocks_recarved");
    w.Number(static_cast<std::uint64_t>(result.eco_blocks_recarved));
    w.Key("full_rebuild");
    w.Bool(result.eco_full_rebuild);
    w.Key("warm_rounds");
    w.Number(static_cast<std::uint64_t>(result.eco_warm_rounds));
    w.Key("warm_injections");
    w.Number(static_cast<std::uint64_t>(result.eco_warm_injections));
    w.Key("converged");
    w.Bool(result.eco_converged);
    w.EndObject();
  }
  w.Key("iterations");
  w.BeginArray();
  for (const HtpFlowIteration& it : result.iterations) {
    // wall_seconds deliberately omitted: it is the one iteration field
    // outside the determinism contract.
    w.BeginObject();
    w.Key("metric_cost");
    w.Number(it.metric_cost);
    w.Key("best_partition_cost");
    w.Number(it.best_partition_cost);
    w.Key("injections");
    w.Number(static_cast<std::uint64_t>(it.injections));
    w.Key("converged");
    w.Bool(it.metric_converged);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  section.result = std::move(w).Take();

  section.partition = TabulatePartition(*result.partition);
  if (result.warm_state) {
    const WarmStartState& state = *result.warm_state;
    section.warm_state =
        WarmStartState{state.nodes, state.nets, state.pins, state.seed,
                       state.metric, /*partition_text=*/{}};
  }
  return section;
}

std::string RenderServeResponse(const std::string& id_json,
                                const ResponseSection& section,
                                const ResponseEnvelope& envelope) {
  obs::JsonWriter w;
  BeginResponse(w, id_json);
  w.Key("status");
  w.String("ok");

  // The deterministic section leads, holds no wall-clock or cache-state
  // fields, and is the exact slice obs::DeterministicSection() extracts.
  w.Key("deterministic");
  w.BeginObject();
  w.Key("meta");
  w.Raw(section.meta);
  w.Key("result");
  w.Raw(section.result);
  const std::string partition_text = WritePartitionText(section.partition);
  w.Key("partition");
  w.String(partition_text);
  if (section.warm_state) {
    // Present iff emit_warm_state: the next run's warm-start input.
    // Deterministic (hexfloat metric + the partition text above).
    WarmStartState state = *section.warm_state;
    state.partition_text = partition_text;
    w.Key("warm_state");
    w.String(WriteWarmStartText(state));
  }
  w.EndObject();  // deterministic

  w.Key("cache");
  w.BeginObject();
  w.Key("response");
  w.String(envelope.response_cache);
  w.Key("netlist");
  w.String(envelope.netlist_cache);
  w.EndObject();  // cache

  w.Key("wall");
  w.BeginObject();
  w.Key("run_seconds");
  w.Number(envelope.run_seconds);
  w.Key("queue_wait_ms");
  w.Number(envelope.queue_wait_ms);
  w.EndObject();  // wall

  if (!envelope.report.empty()) {
    w.Key("report");
    w.Raw(envelope.report);
  }
  w.EndObject();
  return std::move(w).Take();
}

std::string RenderServeResponse(const ServeRequest& request,
                                const SessionResult& result,
                                double queue_wait_ms) {
  ResponseEnvelope envelope;
  envelope.netlist_cache = result.cache.netlist;
  envelope.run_seconds = result.run_seconds;
  envelope.queue_wait_ms = queue_wait_ms;
  if (request.want_report) envelope.report = result.report;
  return RenderServeResponse(request.id_json,
                             MakeResponseSection(request, result), envelope);
}

std::string RenderServeAck(const std::string& id_json, std::string_view op) {
  obs::JsonWriter w;
  BeginResponse(w, id_json);
  w.Key("status");
  w.String("ok");
  w.Key("op");
  w.String(op);
  w.EndObject();
  return std::move(w).Take();
}

std::string RenderServeStats(const std::string& id_json,
                             const CacheStats& cache, std::size_t queued,
                             std::size_t in_flight) {
  obs::JsonWriter w;
  BeginResponse(w, id_json);
  w.Key("status");
  w.String("ok");
  w.Key("op");
  w.String("stats");
  w.Key("cache");
  w.BeginObject();
  for (const auto& [name, tier] : {std::pair{"netlist", &cache.netlist},
                                   std::pair{"response", &cache.response}}) {
    w.Key(name);
    w.BeginObject();
    w.Key("entries");
    w.Number(static_cast<std::uint64_t>(tier->entries));
    w.Key("capacity");
    w.Number(static_cast<std::uint64_t>(tier->capacity));
    w.Key("hits");
    w.Number(tier->hits);
    w.Key("misses");
    w.Number(tier->misses);
    w.Key("evictions");
    w.Number(tier->evictions);
    w.EndObject();
  }
  w.EndObject();  // cache
  w.Key("pool");
  w.BeginObject();
  w.Key("queued");
  w.Number(static_cast<std::uint64_t>(queued));
  w.Key("in_flight");
  w.Number(static_cast<std::uint64_t>(in_flight));
  w.EndObject();  // pool
  w.EndObject();
  return std::move(w).Take();
}

std::string RenderServeError(const std::string& id_json,
                             std::string_view message) {
  obs::JsonWriter w;
  BeginResponse(w, id_json);
  w.Key("status");
  w.String("error");
  w.Key("error");
  w.String(message);
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace htp::serve
