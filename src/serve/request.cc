#include "serve/request.h"

#include <limits>
#include <optional>

#include "common/parse.h"

namespace cfcm::serve {
namespace {

// Pulls an integer field with bounds [lo, hi]; `fallback` when absent.
// Requires an exact JSON integer: a double-stored number would reach
// as_int() through a float->int cast that is UB outside int64 range
// (1e300) and silently truncating inside it (3.7 -> 3).
StatusOr<int64_t> GetInt(const JsonValue& request, const std::string& key,
                         int64_t fallback, int64_t lo, int64_t hi) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_int()) {
    return Status::InvalidArgument("'" + key + "' must be an integer");
  }
  const int64_t value = field->as_int();
  if (value < lo || value > hi) {
    return Status::InvalidArgument("'" + key + "' out of range");
  }
  return value;
}

// A wire node id must fit NodeId exactly — a silent int64 -> int32 (or
// 0.9 -> 0) truncation would address a DIFFERENT, valid node or edge.
// Requiring the codec's exact-int64 storage also keeps huge doubles
// (1e300) away from any UB float->int cast.
StatusOr<NodeId> GetNodeId(const JsonValue& value, const std::string& field) {
  if (!value.is_int() || value.as_int() < 0 ||
      value.as_int() > std::numeric_limits<NodeId>::max()) {
    return Status::InvalidArgument(
        "'" + field + "' node ids must be integers in [0, " +
        std::to_string(std::numeric_limits<NodeId>::max()) + "]");
  }
  return static_cast<NodeId>(value.as_int());
}

// Optional "solver_backend" field (DESIGN.md §14); absent = auto.
StatusOr<SolverBackend> GetSolverBackend(const JsonValue& request) {
  const JsonValue* field = request.Find("solver_backend");
  if (field == nullptr) return SolverBackend::kAuto;
  if (field->is_string()) {
    if (const std::optional<SolverBackend> parsed =
            ParseSolverBackend(field->as_string())) {
      return *parsed;
    }
  }
  return Status::InvalidArgument(
      "'solver_backend' must be one of \"auto\", \"dense\" (alias "
      "\"full\"), \"sparse_ldlt\", \"cg\"");
}

StatusOr<std::vector<NodeId>> GetGroup(const JsonValue& request) {
  const JsonValue* field = request.Find("group");
  if (field == nullptr || !field->is_array()) {
    return Status::InvalidArgument("'group' must be an array of node ids");
  }
  std::vector<NodeId> group;
  group.reserve(field->array().size());
  for (const JsonValue& member : field->array()) {
    StatusOr<NodeId> id = GetNodeId(member, "group");
    if (!id.ok()) return id.status();
    group.push_back(*id);
  }
  return group;
}

// Edge-tuple lists for the mutate op: each element is [u, v] or
// [u, v, w]. `arity` fixes the accepted lengths — removals take no
// weight, reweights require one, additions accept either (default 1).
enum class EdgeArity { kPair, kPairOrWeighted, kWeighted };

StatusOr<std::vector<GraphDelta::Edge>> GetEdgeList(const JsonValue& request,
                                                    const std::string& key,
                                                    EdgeArity arity) {
  std::vector<GraphDelta::Edge> edges;
  const JsonValue* field = request.Find(key);
  if (field == nullptr) return edges;
  if (!field->is_array()) {
    return Status::InvalidArgument("'" + key +
                                   "' must be an array of [u,v] / [u,v,w]");
  }
  for (const JsonValue& member : field->array()) {
    if (!member.is_array()) {
      return Status::InvalidArgument("'" + key +
                                     "' entries must be arrays");
    }
    const JsonValue::Array& tuple = member.array();
    const bool pair_ok = arity != EdgeArity::kWeighted && tuple.size() == 2;
    const bool weighted_ok =
        arity != EdgeArity::kPair && tuple.size() == 3;
    if (!pair_ok && !weighted_ok) {
      return Status::InvalidArgument(
          "'" + key + "' entries must have " +
          (arity == EdgeArity::kPair
               ? std::string("2")
               : arity == EdgeArity::kWeighted ? std::string("3")
                                               : std::string("2 or 3")) +
          " elements");
    }
    GraphDelta::Edge edge;
    StatusOr<NodeId> u = GetNodeId(tuple[0], key);
    if (!u.ok()) return u.status();
    StatusOr<NodeId> v = GetNodeId(tuple[1], key);
    if (!v.ok()) return v.status();
    edge.u = *u;
    edge.v = *v;
    if (tuple.size() == 3) {
      if (!tuple[2].is_number()) {
        return Status::InvalidArgument("'" + key +
                                       "' weights must be numbers");
      }
      edge.weight = tuple[2].as_double();
    }
    edges.push_back(edge);
  }
  return edges;
}

// How RequestFromFlags turns a flag's string into its wire value.
enum class FlagKind {
  kString,
  kNumber,        // an int64 when the text is an integer, else a double
  kNumbers,       // "a,b,...": an array of kNumber values
  kAppendNumbers,  // the same array, appended to a list of them
  kBool,          // "true" or "false"
  kBoolOrString,  // "true"/"false" as a boolean, anything else verbatim
};

struct FlagSpec {
  const char* flag;  // spelling without "--"
  const char* key;   // wire member; "a.b" is member b of object a
  FlagKind kind;
};

// Every wire field a front end can set from the command line.
constexpr FlagSpec kFlags[] = {
    {"graph", "graph", FlagKind::kString},
    {"source", "source", FlagKind::kString},
    {"algo", "algorithm", FlagKind::kString},
    {"algorithm", "algorithm", FlagKind::kString},
    {"k", "k", FlagKind::kNumber},
    {"eps", "eps", FlagKind::kNumber},
    {"seed", "seed", FlagKind::kNumber},
    {"selection", "selection", FlagKind::kString},
    {"solver-backend", "solver_backend", FlagKind::kString},
    {"warm", "warm", FlagKind::kBoolOrString},
    {"max-stale-epochs", "staleness.max_epochs", FlagKind::kNumber},
    {"probes", "probes", FlagKind::kNumber},
    {"group", "group", FlagKind::kNumbers},
    {"candidates", "candidates", FlagKind::kString},
    {"apply", "apply", FlagKind::kBool},
    {"add-nodes", "add_nodes", FlagKind::kNumber},
    {"add", "add", FlagKind::kAppendNumbers},
    {"remove", "remove", FlagKind::kAppendNumbers},
    {"reweight", "reweight", FlagKind::kAppendNumbers},
    {"n", "n", FlagKind::kNumber},
    {"format", "format", FlagKind::kString},
    {"trace", "trace", FlagKind::kBool},
    {"trace-id", "trace_id", FlagKind::kString},
};

// Integers stay exact int64, so the decoders can tell a node id or a
// count from a weight and reject 3.5 where they need an integer.
StatusOr<JsonValue> ParseNumber(const std::string& flag,
                                const std::string& text) {
  long long integer = 0;
  double real = 0;
  if (ParseInt64(text, &integer)) {
    return JsonValue(static_cast<int64_t>(integer));
  }
  if (ParseFloat64(text, &real)) return JsonValue(real);
  return Status::InvalidArgument("bad number for --" + flag + ": '" + text +
                                 "'");
}

StatusOr<JsonValue> FlagValue(const FlagSpec& spec, const std::string& value) {
  switch (spec.kind) {
    case FlagKind::kString:
      break;
    case FlagKind::kNumber:
      return ParseNumber(spec.flag, value);
    case FlagKind::kNumbers:
    case FlagKind::kAppendNumbers: {
      JsonValue::Array numbers;
      for (const std::string& part : SplitString(value, ',')) {
        StatusOr<JsonValue> number = ParseNumber(spec.flag, part);
        if (!number.ok()) return number.status();
        numbers.push_back(std::move(*number));
      }
      return JsonValue(std::move(numbers));
    }
    case FlagKind::kBool:
      if (value != "true" && value != "false") {
        return Status::InvalidArgument(std::string("--") + spec.flag +
                                       " expects true or false, got '" +
                                       value + "'");
      }
      return JsonValue(value == "true");
    case FlagKind::kBoolOrString:
      if (value == "true" || value == "false") {
        return JsonValue(value == "true");
      }
      break;
  }
  return JsonValue(value);
}

}  // namespace

StatusOr<std::string> DecodeRequiredString(const JsonValue& request,
                                           const std::string& key) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr || !field->is_string() || field->as_string().empty()) {
    return Status::InvalidArgument("request needs a non-empty string '" + key +
                                   "'");
  }
  return field->as_string();
}

StatusOr<engine::SolveJob> DecodeSolveJob(const JsonValue& request) {
  engine::SolveJob job;
  StatusOr<int64_t> k = GetInt(request, "k", 1, 1, 1'000'000'000);
  if (!k.ok()) return k.status();
  job.k = static_cast<int>(*k);
  StatusOr<int64_t> seed = GetInt(request, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return seed.status();
  job.seed = static_cast<uint64_t>(*seed);

  if (const JsonValue* field = request.Find("algorithm")) {
    if (!field->is_string()) {
      return Status::InvalidArgument("'algorithm' must be a string");
    }
    job.algorithm = field->as_string();
  }
  if (const JsonValue* field = request.Find("eps")) {
    if (!field->is_number()) {
      return Status::InvalidArgument("'eps' must be a number");
    }
    job.eps = field->as_double();
    if (!(job.eps > 0.0) || job.eps > 1.0) {
      return Status::InvalidArgument("'eps' must be in (0, 1]");
    }
  }
  if (const JsonValue* field = request.Find("selection")) {
    const std::optional<SelectionMode> parsed =
        field->is_string() ? ParseSelectionMode(field->as_string())
                           : std::nullopt;
    if (!parsed.has_value()) {
      return Status::InvalidArgument(
          "'selection' must be \"lazy\" or \"exhaustive\"");
    }
    job.selection = *parsed;
  }
  StatusOr<SolverBackend> backend = GetSolverBackend(request);
  if (!backend.ok()) return backend.status();
  job.solver_backend = *backend;

  // Warm-start policy (DESIGN.md §16): "warm" is a bool (true = on,
  // false = off) or one of "auto"/"on"/"off". Default off — warm
  // results depend on the session's mutation history.
  if (const JsonValue* field = request.Find("warm")) {
    std::optional<cfcm::WarmMode> parsed;
    if (field->is_bool()) {
      parsed = field->as_bool() ? cfcm::WarmMode::kOn : cfcm::WarmMode::kOff;
    } else if (field->is_string()) {
      parsed = cfcm::ParseWarmMode(field->as_string());
    }
    if (!parsed.has_value()) {
      return Status::InvalidArgument(
          "'warm' must be a boolean or \"auto\"/\"on\"/\"off\"");
    }
    job.warm = *parsed;
  }
  return job;
}

StatusOr<int64_t> DecodeMaxStaleEpochs(const JsonValue& request) {
  const JsonValue* field = request.Find("staleness");
  if (field == nullptr) return 0;
  if (!field->is_object()) {
    return Status::InvalidArgument(
        "'staleness' must be an object {\"max_epochs\":E}");
  }
  return GetInt(*field, "max_epochs", 0, 0, 64);
}

StatusOr<engine::EvaluateJob> DecodeEvaluateJob(const JsonValue& request) {
  engine::EvaluateJob job;
  StatusOr<int64_t> probes = GetInt(request, "probes", 0, 0, 1'000'000);
  if (!probes.ok()) return probes.status();
  job.probes = static_cast<int>(*probes);
  StatusOr<int64_t> seed = GetInt(request, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return seed.status();
  job.seed = static_cast<uint64_t>(*seed);
  StatusOr<std::vector<NodeId>> group = GetGroup(request);
  if (!group.ok()) return group.status();
  job.group = std::move(*group);
  StatusOr<SolverBackend> backend = GetSolverBackend(request);
  if (!backend.ok()) return backend.status();
  job.solver_backend = *backend;
  return job;
}

StatusOr<engine::AugmentJob> DecodeAugmentJob(const JsonValue& request,
                                              bool* apply) {
  engine::AugmentJob job;
  StatusOr<std::vector<NodeId>> group = GetGroup(request);
  if (!group.ok()) return group.status();
  job.group = std::move(*group);
  StatusOr<int64_t> k = GetInt(request, "k", 1, 1, 1'000'000);
  if (!k.ok()) return k.status();
  job.k = static_cast<int>(*k);

  if (const JsonValue* field = request.Find("candidates")) {
    if (!field->is_string() ||
        (field->as_string() != "group" && field->as_string() != "any")) {
      return Status::InvalidArgument(
          "'candidates' must be \"group\" or \"any\"");
    }
    if (field->as_string() == "any") job.candidates = EdgeCandidates::kAny;
  }
  if (const JsonValue* field = request.Find("apply")) {
    if (!field->is_bool()) {
      return Status::InvalidArgument("'apply' must be a boolean");
    }
    if (apply != nullptr) *apply = field->as_bool();
  }
  StatusOr<SolverBackend> backend = GetSolverBackend(request);
  if (!backend.ok()) return backend.status();
  job.solver_backend = *backend;
  return job;
}

StatusOr<GraphDelta> DecodeGraphDelta(const JsonValue& request) {
  // Bounded per request: node additions allocate CSR arrays up front,
  // before the catalog's post-mutation byte re-charge can evict.
  StatusOr<int64_t> add_nodes =
      GetInt(request, "add_nodes", 0, 0, 1'000'000);
  if (!add_nodes.ok()) return add_nodes.status();
  StatusOr<std::vector<GraphDelta::Edge>> removes =
      GetEdgeList(request, "remove", EdgeArity::kPair);
  if (!removes.ok()) return removes.status();
  StatusOr<std::vector<GraphDelta::Edge>> reweights =
      GetEdgeList(request, "reweight", EdgeArity::kWeighted);
  if (!reweights.ok()) return reweights.status();
  StatusOr<std::vector<GraphDelta::Edge>> adds =
      GetEdgeList(request, "add", EdgeArity::kPairOrWeighted);
  if (!adds.ok()) return adds.status();

  GraphDelta delta;
  delta.AddNodes(static_cast<NodeId>(*add_nodes));
  for (const GraphDelta::Edge& e : *removes) delta.RemoveEdge(e.u, e.v);
  for (const GraphDelta::Edge& e : *reweights) {
    delta.ReweightEdge(e.u, e.v, e.weight);
  }
  for (const GraphDelta::Edge& e : *adds) delta.AddEdge(e.u, e.v, e.weight);
  if (delta.empty()) {
    return Status::InvalidArgument(
        "mutate needs at least one of add_nodes/add/remove/reweight");
  }
  return delta;
}

StatusOr<std::size_t> DecodeFlightCount(const JsonValue& request) {
  StatusOr<int64_t> n = GetInt(request, "n", 64, 1, 4096);
  if (!n.ok()) return n.status();
  return static_cast<std::size_t>(*n);
}

StatusOr<std::string> DecodeMetricsFormat(const JsonValue& request) {
  const JsonValue* field = request.Find("format");
  if (field == nullptr) return std::string("json");
  if (!field->is_string() || (field->as_string() != "json" &&
                              field->as_string() != "prometheus")) {
    return Status::InvalidArgument(
        "'format' must be \"json\" or \"prometheus\"");
  }
  return field->as_string();
}

StatusOr<JsonValue> RequestFromFlags(
    const std::string& op,
    const std::vector<std::pair<std::string, std::string>>& flags) {
  JsonValue::Object request{{"op", op}};
  for (const auto& [flag, value] : flags) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : kFlags) {
      if (flag == candidate.flag) spec = &candidate;
    }
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown request flag --" + flag);
    }
    StatusOr<JsonValue> parsed = FlagValue(*spec, value);
    if (!parsed.ok()) return parsed.status();

    std::string key = spec->key;
    JsonValue::Object* target = &request;
    if (const std::size_t dot = key.find('.'); dot != std::string::npos) {
      JsonValue& outer = request[key.substr(0, dot)];
      if (!outer.is_object()) outer = JsonValue(JsonValue::Object{});
      target = &outer.object();
      key = key.substr(dot + 1);
    }
    JsonValue& slot = (*target)[key];
    if (spec->kind == FlagKind::kAppendNumbers) {
      if (!slot.is_array()) slot = JsonValue(JsonValue::Array{});
      slot.array().push_back(std::move(*parsed));
    } else {
      slot = std::move(*parsed);
    }
  }
  return JsonValue(std::move(request));
}

}  // namespace cfcm::serve
