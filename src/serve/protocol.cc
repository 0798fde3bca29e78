#include "serve/protocol.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>

#include "common/build_info.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serve/request.h"

namespace cfcm::serve {
namespace {

// Graph identity block shared by load / mutate / augment responses,
// built from ONE (snapshot, epoch) pair so the fields are mutually
// consistent even while mutations land concurrently.
void AppendSessionSummary(const engine::GraphSession::VersionedSnapshot& pinned,
                          JsonValue::Object* response) {
  const engine::GraphSnapshot& snapshot = *pinned.snapshot;
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(snapshot.fingerprint()));
  (*response)["nodes"] = static_cast<int64_t>(snapshot.num_nodes());
  (*response)["edges"] = static_cast<int64_t>(snapshot.num_edges());
  (*response)["weighted"] = !snapshot.graph().is_unit_weighted();
  (*response)["connected"] = snapshot.is_connected();
  (*response)["bytes"] = static_cast<int64_t>(snapshot.memory_bytes());
  (*response)["fingerprint"] = std::string(fingerprint);
  (*response)["epoch"] = static_cast<int64_t>(pinned.epoch);
}

void EchoId(const JsonValue& request, JsonValue::Object* response) {
  if (const JsonValue* id = request.Find("id")) (*response)["id"] = *id;
  // A request-supplied trace id is echoed like "id" (a traced request
  // already wrote its own — possibly generated — trace_id; don't clobber
  // it).
  if (response->find("trace_id") == response->end()) {
    const JsonValue* trace_id = request.Find("trace_id");
    if (trace_id != nullptr && trace_id->is_string()) {
      (*response)["trace_id"] = *trace_id;
    }
  }
}

JsonValue OkResponse(JsonValue::Object fields) {
  fields["status"] = "ok";
  return JsonValue(std::move(fields));
}

JsonValue ErrorResponseFor(const JsonValue& request, const Status& status) {
  JsonValue response = MakeErrorResponse(status, nullptr);
  EchoId(request, &response.object());
  return response;
}

// Always-on per-op instrumentation: request and error counters plus a
// latency histogram.
struct OpMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::LatencyHistogram* latency_us;
};

OpMetrics ResolveOpMetrics(const char* op) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string prefix = std::string("serve.") + op;
  return OpMetrics{&registry.counter(prefix + ".requests"),
                   &registry.counter(prefix + ".errors"),
                   &registry.histogram(prefix + ".latency_us")};
}

// {"count","mean_us","p50_us","p95_us","p99_us","max_us"} for the stats
// latency block; pure function of one histogram snapshot.
JsonValue PercentilesJson(const obs::LatencyHistogram::Snapshot& h) {
  return JsonValue(JsonValue::Object{
      {"count", static_cast<int64_t>(h.count)},
      {"mean_us", h.Mean()},
      {"p50_us", h.Percentile(0.50)},
      {"p95_us", h.Percentile(0.95)},
      {"p99_us", h.Percentile(0.99)},
      {"max_us", h.max},
  });
}

// Full histogram rendering for the metrics op: percentiles plus the
// occupied [upper_edge, count] buckets.
JsonValue HistogramJson(const obs::LatencyHistogram::Snapshot& h) {
  JsonValue::Array buckets;
  for (int b = 0; b < obs::LatencyHistogram::kBuckets; ++b) {
    const uint64_t in_bucket = h.buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    const int64_t edge =
        b == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << b) - 1);
    buckets.push_back(JsonValue(JsonValue::Array{
        JsonValue(edge), JsonValue(static_cast<int64_t>(in_bucket))}));
  }
  return JsonValue(JsonValue::Object{
      {"count", static_cast<int64_t>(h.count)},
      {"sum", h.sum},
      {"max", h.max},
      {"mean", h.Mean()},
      {"p50", h.Percentile(0.50)},
      {"p95", h.Percentile(0.95)},
      {"p99", h.Percentile(0.99)},
      {"buckets", JsonValue(std::move(buckets))},
  });
}

// Renders the collected spans into the response. `pre_ns` is the time
// spent before the context existed (socket read + queue wait + parse),
// already present as AddSpan entries — it extends total_us, which spans
// are compared against, so "span sum ≈ total" holds across the whole
// request.
void AttachTrace(const obs::TraceContext& trace, int64_t pre_ns,
                 JsonValue::Object* response) {
  (*response)["trace_id"] = trace.trace_id();
  JsonValue::Array spans;
  for (const obs::TraceSpan& span : trace.spans()) {
    JsonValue::Object entry{
        {"name", span.name},
        {"start_us", span.start_ns / 1000},
        {"duration_us",
         (span.duration_ns < 0 ? int64_t{0} : span.duration_ns) / 1000},
    };
    for (const auto& [key, value] : span.annotations) entry[key] = value;
    spans.push_back(JsonValue(std::move(entry)));
  }
  (*response)["trace"] = JsonValue(JsonValue::Object{
      {"total_us", (pre_ns + trace.ElapsedNs()) / 1000},
      {"span_total_us", trace.SpanTotalNs() / 1000},
      {"spans", JsonValue(std::move(spans))},
  });
}

}  // namespace

std::string StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kNumericalError: return "numerical_error";
  }
  return "unknown";
}

JsonValue StatusToJsonError(const Status& status) {
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  return JsonValue(std::move(error));
}

JsonValue MakeErrorResponse(const Status& status, const JsonValue* id) {
  JsonValue::Object response;
  response["status"] = "error";
  response["error"] = StatusToJsonError(status);
  if (id != nullptr) response["id"] = *id;
  return JsonValue(std::move(response));
}

JsonValue MakeOverCapacityResponse() {
  return JsonValue(JsonValue::Object{
      {"status", "error"},
      {"error",
       JsonValue(JsonValue::Object{
           {"code", "over_capacity"},
           {"message", "admission queue full; retry later (429)"},
       })},
  });
}

ServeHandler::ServeHandler(HandlerOptions options)
    : options_(std::move(options)),
      catalog_(options_.catalog),
      cache_(options_.cache_capacity, options_.cache_shards) {
  if (options_.flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(obs::FlightRecorder::
        Options{options_.flight_capacity, options_.flight_pinned_capacity,
                options_.flight_slow_us});
  }
  if (!options_.slo.empty()) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo);
  }
  // Anchor process uptime at handler construction so the stats op and
  // /statusz report sensible uptime even before the first watchdog tick.
  obs::ProcessStartMonoNs();
}

JsonValue ServeHandler::HandleLine(std::string_view line) {
  return HandleLine(line, RequestInfo{}, nullptr);
}

JsonValue ServeHandler::HandleLine(std::string_view line,
                                   const RequestInfo& info,
                                   RequestOutcome* outcome) {
  Timer parse_timer;
  StatusOr<JsonValue> request = JsonValue::Parse(line);
  RequestInfo timed = info;
  timed.parse_ns += parse_timer.Nanos();
  if (!request.ok()) {
    if (outcome != nullptr) {
      outcome->ok = false;
      outcome->error_code = StatusCodeName(request.status().code());
    }
    return MakeErrorResponse(request.status(), nullptr);
  }
  return Handle(*request, timed, outcome);
}

JsonValue ServeHandler::Handle(const JsonValue& request) {
  return Handle(request, RequestInfo{}, nullptr);
}

JsonValue ServeHandler::Handle(const JsonValue& request,
                               const RequestInfo& info,
                               RequestOutcome* outcome) {
  // A non-object request has no id to echo.
  StatusOr<std::string> op =
      request.is_object() ? DecodeRequiredString(request, "op")
                          : StatusOr<std::string>(Status::InvalidArgument(
                                "request must be a JSON object"));
  if (!op.ok()) {
    if (outcome != nullptr) {
      outcome->ok = false;
      outcome->error_code = StatusCodeName(op.status().code());
    }
    return ErrorResponseFor(request, op.status());
  }

  // Opt-in tracing: spans only materialize in the RESPONSE when the
  // request asks. The flight recorder keeps an internal trace for every
  // request (it wants span timings) without ever attaching it — the
  // response bytes are identical whether the recorder is on or off,
  // which preserves the §11 byte-identical cache-hit contract. The
  // always-on path below (histogram + counters + flight commit) is the
  // one priced by the ≤2% overhead budget; the metrics kill switch
  // disables the flight trace too.
  const int64_t pre_ns = info.read_ns + info.queue_wait_ns + info.parse_ns;
  const JsonValue* trace_field = request.Find("trace");
  const bool want_trace = trace_field != nullptr && trace_field->is_bool() &&
                          trace_field->as_bool();
  const bool flight_on = flight_ != nullptr && obs::MetricsEnabled();
  std::optional<obs::TraceContext> trace;
  if (want_trace || flight_on) {
    trace.emplace();
    if (const JsonValue* id = request.Find("trace_id");
        id != nullptr && id->is_string()) {
      trace->set_trace_id(id->as_string());
    }
    // Transport phases finished before this context existed; place them
    // before its epoch so span offsets reflect the real timeline.
    if (info.read_ns > 0) trace->AddSpan("read", -pre_ns, info.read_ns);
    if (info.queue_wait_ns > 0) {
      trace->AddSpan("queue_wait", -(info.queue_wait_ns + info.parse_ns),
                     info.queue_wait_ns);
    }
    if (info.parse_ns > 0) trace->AddSpan("parse", -info.parse_ns,
                                          info.parse_ns);
  }
  obs::TraceContext* trace_ptr = trace.has_value() ? &*trace : nullptr;
  obs::FlightRecord record{};
  obs::FlightRecord* record_ptr = flight_on ? &record : nullptr;

  // One table drives dispatch, the per-op metrics and the unknown-op
  // message. An unknown op is counted in the extra last slot, "other".
  using OpHandler = JsonValue (ServeHandler::*)(
      const JsonValue&, obs::TraceContext*, obs::FlightRecord*);
  static constexpr std::pair<const char*, OpHandler> kOps[] = {
      {"load", &ServeHandler::HandleLoad},
      {"unload", &ServeHandler::HandleUnload},
      {"solve", &ServeHandler::HandleSolve},
      {"evaluate", &ServeHandler::HandleEvaluate},
      {"mutate", &ServeHandler::HandleMutate},
      {"augment", &ServeHandler::HandleAugment},
      {"stats", &ServeHandler::HandleStats},
      {"metrics", &ServeHandler::HandleMetrics},
      {"flightz", &ServeHandler::HandleFlightz},
      {"shutdown", &ServeHandler::HandleShutdown},
  };
  constexpr std::size_t kNumOps = std::size(kOps);
  const auto* entry = std::find_if(
      std::begin(kOps), std::end(kOps),
      [&op](const auto& candidate) { return *op == candidate.first; });
  const std::size_t op_index = entry - std::begin(kOps);

  Timer timer;
  JsonValue response;
  if (entry != std::end(kOps)) {
    response = (this->*entry->second)(request, trace_ptr, record_ptr);
  } else {
    std::string expected;
    for (const auto& [name, handle] : kOps) {
      expected += (expected.empty() ? "" : "/") + std::string(name);
    }
    response = ErrorResponseFor(
        request, Status::InvalidArgument("unknown op '" + *op +
                                         "' (expected " + expected + ")"));
  }

  // Whole-request latency: transport phases plus the handler itself.
  const int64_t total_us = pre_ns / 1000 + timer.Micros();
  // Each op's metrics are registered on its first request, so the
  // registry lists only ops that were seen, and then read without the
  // registry mutex.
  static std::once_flag resolved[kNumOps + 1];
  static OpMetrics op_metrics[kNumOps + 1];
  std::call_once(resolved[op_index], [op_index] {
    op_metrics[op_index] =
        ResolveOpMetrics(op_index < kNumOps ? kOps[op_index].first : "other");
  });
  const OpMetrics& metrics = op_metrics[op_index];
  metrics.requests->Add(1);
  metrics.latency_us->Record(total_us);

  const JsonValue* status = response.Find("status");
  const bool ok = status != nullptr && status->is_string() &&
                  status->as_string() == "ok";
  if (!ok) metrics.errors->Add(1);
  std::string error_code;
  if (const JsonValue* error = response.Find("error"); !ok && error) {
    const JsonValue* code = error->Find("code");
    if (code != nullptr && code->is_string()) error_code = code->as_string();
  }
  if (slo_ != nullptr) slo_->Record(*op, total_us, ok);

  if (record_ptr != nullptr) {
    record.set_op(*op);
    if (const JsonValue* graph = request.Find("graph");
        graph != nullptr && graph->is_string()) {
      record.set_graph(graph->as_string());
    }
    record.ok = ok ? 1 : 0;
    if (!ok) record.set_error_code(error_code);
    record.latency_us = total_us;
    record.queue_wait_us = info.queue_wait_ns / 1000;
    if (trace_ptr != nullptr) {
      record.set_trace_id(trace_ptr->trace_id());
      for (const obs::TraceSpan& span : trace_ptr->spans()) {
        if (span.nested) continue;
        record.AddSpan(span.name,
                       (span.duration_ns < 0 ? 0 : span.duration_ns) / 1000);
      }
    }
    flight_->Commit(record);
  }

  // Only a request that asked for tracing gets the trace (and its id)
  // echoed — the flight recorder's internal trace must not change a
  // single response byte.
  if (want_trace && trace_ptr != nullptr && response.is_object()) {
    AttachTrace(*trace_ptr, pre_ns, &response.object());
  }
  if (response.is_object()) EchoId(request, &response.object());

  if (outcome != nullptr) {
    outcome->op = *op;
    outcome->ok = ok;
    if (!ok) outcome->error_code = error_code;
    if (trace_ptr != nullptr) outcome->trace_id = trace_ptr->trace_id();
  }
  return response;
}

JsonValue ServeHandler::HandleLoad(const JsonValue& request,
                                   obs::TraceContext* trace,
                                   obs::FlightRecord* record) {
  StatusOr<std::string> name = DecodeRequiredString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<std::string> source = DecodeRequiredString(request, "source");
  if (!source.ok()) return ErrorResponseFor(request, source.status());

  Status defined = catalog_.Define(*name, *source);
  if (!defined.ok()) return ErrorResponseFor(request, defined);
  // Acquire eagerly so load errors surface on the load response, not on
  // the first solve.
  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("load_graph");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) {
    // A bad source would poison every future Acquire; drop it again.
    (void)catalog_.Forget(*name);
    return ErrorResponseFor(request, session.status());
  }
  JsonValue::Object response{{"op", "load"}, {"graph", *name}};
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  if (record != nullptr) record->epoch = pinned.epoch;
  AppendSessionSummary(pinned, &response);
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleUnload(const JsonValue& request,
                                     obs::TraceContext*, obs::FlightRecord*) {
  StatusOr<std::string> name = DecodeRequiredString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  Status forgotten = catalog_.Forget(*name);
  if (!forgotten.ok()) return ErrorResponseFor(request, forgotten);
  return OkResponse({{"op", "unload"}, {"graph", *name}});
}

JsonValue ServeHandler::HandleSolve(const JsonValue& request,
                                    obs::TraceContext* trace,
                                    obs::FlightRecord* record) {
  StatusOr<std::string> name = DecodeRequiredString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<engine::SolveJob> job = DecodeSolveJob(request);
  if (!job.ok()) return ErrorResponseFor(request, job.status());
  // Staleness-tolerant cache mode: {"staleness":{"max_epochs":E}} lets
  // a miss answer from a ≤E-epoch-old cached entry, with the composed
  // Loewner bound of the intervening (reweight-only) deltas attached.
  StatusOr<int64_t> max_stale_epochs = DecodeMaxStaleEpochs(request);
  if (!max_stale_epochs.ok()) {
    return ErrorResponseFor(request, max_stale_epochs.status());
  }

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("acquire");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) return ErrorResponseFor(request, session.status());

  // Pin ONE snapshot for the whole request: the cache key's fingerprint
  // and the solve computation are guaranteed to describe the same graph
  // version even if a mutate lands mid-request — the cache-soundness
  // invariant under mutation (DESIGN.md §11). The "cache_lookup" span
  // covers the pin, the (lazily computed) fingerprint, and the probe.
  if (trace != nullptr) span = trace->BeginSpan("cache_lookup");
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  const std::shared_ptr<const engine::GraphSnapshot>& snapshot =
      pinned.snapshot;
  if (record != nullptr) record->epoch = pinned.epoch;
  const ResultCacheKey key = CacheKeyFor(snapshot->fingerprint(), *job);
  std::string cache_state = "hit";
  std::optional<engine::SolveJobResult> solve = cache_.Lookup(key);
  if (trace != nullptr) {
    trace->Annotate("hit", solve.has_value() ? 1 : 0);
    trace->EndSpan(span);
  }

  // Stale-tolerant answer: on a miss, walk the session's epoch history
  // for a ≤max_epochs-old cached entry reachable through boundable
  // (reweight-only) transitions, composing the Loewner factors
  // C' ∈ [a·C, b·C] along the way (DESIGN.md §16).
  int64_t stale_depth = 0;
  double stale_lo = 1.0;
  double stale_hi = 1.0;
  if (!solve.has_value() && *max_stale_epochs > 0) {
    const std::vector<engine::GraphSession::EpochRecord> history =
        (*session)->EpochHistory();
    double lo = 1.0;
    double hi = 1.0;
    uint64_t epoch_cursor = pinned.epoch;
    for (int64_t depth = 1; depth <= *max_stale_epochs && epoch_cursor > 0;
         ++depth, --epoch_cursor) {
      const auto rec = std::find_if(
          history.begin(), history.end(),
          [epoch_cursor](const auto& r) { return r.epoch == epoch_cursor; });
      if (rec == history.end() || !rec->boundable) break;
      lo *= rec->cfcc_lo;
      hi *= rec->cfcc_hi;
      std::optional<engine::SolveJobResult> stale =
          cache_.Lookup(CacheKeyFor(rec->parent_fingerprint, *job));
      if (stale.has_value()) {
        solve = std::move(stale);
        cache_state = "stale";
        stale_depth = depth;
        stale_lo = lo;
        stale_hi = hi;
        break;
      }
    }
  }

  if (!solve.has_value()) {
    cache_state = "miss";
    engine::Engine engine{*session, options_.engine};
    StatusOr<engine::JobResult> result = engine.Run(*job, snapshot, trace);
    if (!result.ok()) return ErrorResponseFor(request, result.status());
    solve = std::get<engine::SolveJobResult>(std::move(*result));
    // A warm result depends on the session's mutation history, not just
    // the cache key — caching it would let it answer cold requests for
    // the same (fingerprint, params). Only cold results are cacheable.
    if (!solve->output.warm_started) {
      if (trace != nullptr) span = trace->BeginSpan("commit");
      cache_.Insert(key, *solve);
      if (trace != nullptr) trace->EndSpan(span);
    }
  }

  JsonValue::Object response{
      {"op", "solve"},
      {"graph", *name},
      {"algorithm", job->algorithm},
      {"k", job->k},
      {"eps", job->eps},
      {"seed", job->seed},
      {"cache", cache_state},
      // "selection" (the chosen group) predates the mode field; the
      // strategy rides alongside as "selection_mode".
      {"selection", JsonValue(JsonValue::Array(solve->output.selected.begin(),
                                               solve->output.selected.end()))},
      {"selection_mode", SelectionModeName(job->selection)},
      // Resolved exact kernel; empty when the algorithm never ran exact
      // algebra (pure samplers / heuristics).
      {"solver_backend", solve->output.solver_backend},
      {"cfcc", solve->cfcc},
      // Incremental warm-start diagnostics (DESIGN.md §16).
      {"warm", cfcm::WarmModeName(job->warm)},
      {"warm_started", solve->output.warm_started},
      {"cold_fallback", solve->output.cold_fallback},
      // Solver cost of the result; on a hit this is the original solve's
      // time, not this request's latency.
      {"seconds", solve->output.seconds},
  };
  cfcm::ForEachWorkCounter(solve->output,
                           [&response](const char* name, int64_t value) {
                             response[name] = JsonValue(value);
                           });
  if (cache_state == "stale") {
    // The answer describes an ancestor graph; the composed factors
    // bound the current C(S) of ITS group: C' ∈ [lo·C, hi·C].
    response["staleness"] = JsonValue(JsonValue::Object{
        {"epochs", stale_depth},
        {"cfcc_lo_factor", stale_lo},
        {"cfcc_hi_factor", stale_hi},
        {"cfcc_lo", stale_lo * solve->cfcc},
        {"cfcc_hi", stale_hi * solve->cfcc},
    });
  }
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleEvaluate(const JsonValue& request,
                                       obs::TraceContext* trace,
                                       obs::FlightRecord* record) {
  StatusOr<std::string> name = DecodeRequiredString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<engine::EvaluateJob> job = DecodeEvaluateJob(request);
  if (!job.ok()) return ErrorResponseFor(request, job.status());

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("acquire");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) return ErrorResponseFor(request, session.status());

  engine::Engine engine{*session, options_.engine};
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  if (record != nullptr) record->epoch = pinned.epoch;
  StatusOr<engine::JobResult> result =
      engine.Run(std::move(*job), pinned.snapshot, trace);
  if (!result.ok()) return ErrorResponseFor(request, result.status());
  const auto& eval = std::get<engine::EvaluateJobResult>(*result);

  return OkResponse({
      {"op", "evaluate"},
      {"graph", *name},
      {"cfcc", eval.cfcc},
      {"trace", eval.trace},
      {"trace_std_error", eval.trace_std_error},
      {"solver_backend", eval.solver_backend},
  });
}

JsonValue ServeHandler::HandleMutate(const JsonValue& request,
                                     obs::TraceContext* trace,
                                     obs::FlightRecord* record) {
  StatusOr<std::string> name = DecodeRequiredString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<GraphDelta> delta = DecodeGraphDelta(request);
  if (!delta.ok()) return ErrorResponseFor(request, delta.status());

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("commit");
  auto mutated = catalog_.Mutate(*name, *delta);
  if (trace != nullptr) trace->EndSpan(span);
  if (!mutated.ok()) return ErrorResponseFor(request, mutated.status());
  if (record != nullptr) record->epoch = mutated->installed.epoch;

  JsonValue::Object response{
      {"op", "mutate"},
      {"graph", *name},
      {"applied",
       JsonValue(JsonValue::Object{
           {"add_nodes", delta->add_nodes()},
           {"add", static_cast<int64_t>(delta->add_edges().size())},
           {"remove", static_cast<int64_t>(delta->remove_edges().size())},
           {"reweight",
            static_cast<int64_t>(delta->reweight_edges().size())},
       })},
  };
  // Summarize the exact snapshot THIS delta installed — not the
  // session's current one, which a concurrent mutation may have
  // already replaced.
  AppendSessionSummary(mutated->installed, &response);
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleAugment(const JsonValue& request,
                                      obs::TraceContext* trace,
                                      obs::FlightRecord* record) {
  StatusOr<std::string> name = DecodeRequiredString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  bool apply = false;
  StatusOr<engine::AugmentJob> job = DecodeAugmentJob(request, &apply);
  if (!job.ok()) return ErrorResponseFor(request, job.status());

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("acquire");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) return ErrorResponseFor(request, session.status());

  engine::Engine engine{*session, options_.engine};
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  const std::shared_ptr<const engine::GraphSnapshot>& snapshot =
      pinned.snapshot;
  if (record != nullptr) record->epoch = pinned.epoch;
  // Re-derive the admission budget the engine will apply, so a refusal
  // can carry machine-readable details alongside the human message.
  const engine::AugmentBudget budget = engine::CheckAugmentBudget(
      options_.engine, snapshot->num_nodes(), job->group.size(), job->k,
      job->solver_backend, job->candidates);
  StatusOr<engine::JobResult> result = engine.Run(*job, snapshot, trace);
  if (!result.ok()) {
    JsonValue response = ErrorResponseFor(request, result.status());
    if (!budget.admitted) {
      response.object()["error"].object()["details"] =
          JsonValue(JsonValue::Object{
              {"reason", "augment_work_budget"},
              {"backend", SolverBackendName(budget.backend)},
              {"n", static_cast<int64_t>(snapshot->num_nodes())},
              {"remaining", static_cast<int64_t>(budget.remaining)},
              {"limit", static_cast<int64_t>(budget.limit)},
              {"k", job->k},
              {"k_limit", static_cast<int64_t>(budget.k_limit)},
          });
    }
    return response;
  }
  const auto& augment = std::get<engine::AugmentJobResult>(*result);

  JsonValue::Array added;
  added.reserve(augment.added.size());
  for (const auto& [u, v] : augment.added) {
    added.push_back(JsonValue(JsonValue::Array{
        JsonValue(static_cast<int64_t>(u)),
        JsonValue(static_cast<int64_t>(v)),
    }));
  }
  JsonValue::Array trace_after;
  trace_after.reserve(augment.trace_after.size());
  for (double trace : augment.trace_after) trace_after.emplace_back(trace);

  JsonValue::Object response{
      {"op", "augment"},
      {"graph", *name},
      {"k", job->k},
      {"candidates",
       job->candidates == EdgeCandidates::kAny ? "any" : "group"},
      {"added", JsonValue(std::move(added))},
      {"initial_trace", augment.initial_trace},
      {"trace_after", JsonValue(std::move(trace_after))},
      {"cfcc_before", augment.cfcc_before},
      {"cfcc_after", augment.cfcc_after},
      {"seconds", augment.seconds},
      {"solver_backend", augment.solver_backend},
      // Mirrors the guard below: "applied" is true only when a
      // mutation actually lands (and the summary fields appear).
      {"applied", apply && !augment.added.empty()},
  };
  if (apply && !augment.added.empty()) {
    // Feed the chosen edges back through the mutation pipeline. A delta
    // racing in between merges by the parallel-conductor rule; the
    // summary below reflects the snapshot this apply installed.
    GraphDelta delta;
    for (const auto& [u, v] : augment.added) delta.AddEdge(u, v);
    if (trace != nullptr) span = trace->BeginSpan("commit");
    auto mutated = catalog_.Mutate(*name, delta);
    if (trace != nullptr) trace->EndSpan(span);
    if (!mutated.ok()) return ErrorResponseFor(request, mutated.status());
    if (record != nullptr) record->epoch = mutated->installed.epoch;
    AppendSessionSummary(mutated->installed, &response);
  }
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleStats(const JsonValue&, obs::TraceContext*,
                                   obs::FlightRecord*) {
  const ResultCacheStats cache = cache_.stats();
  JsonValue::Object cache_json{
      {"hits", cache.hits},
      {"misses", cache.misses},
      {"evictions", cache.evictions},
      {"entries", cache.entries},
      {"capacity", cache.capacity},
      {"shards", static_cast<int64_t>(cache.shards)},
  };

  const CatalogStats catalog = catalog_.stats();
  JsonValue::Array sessions;
  for (const CatalogSessionInfo& info : catalog.sessions) {
    sessions.push_back(JsonValue(JsonValue::Object{
        {"name", info.name},
        {"source", info.source},
        {"resident", info.resident},
        {"mutated", info.mutated},
        {"bytes", static_cast<int64_t>(info.bytes)},
        {"loads", info.loads},
        {"epoch", static_cast<int64_t>(info.epoch)},
    }));
  }
  JsonValue::Object catalog_json{
      {"loads", catalog.loads},
      {"evictions", catalog.evictions},
      {"mutations", catalog.mutations},
      {"resident_bytes", static_cast<int64_t>(catalog.resident_bytes)},
      {"sessions", JsonValue(std::move(sessions))},
  };

  // The coherence fix (ISSUE 6 bugfix): everything below comes from ONE
  // metrics-registry snapshot, and every total is derived from the parts
  // of that snapshot ("lookups" := hits + misses, never a third counter)
  // — so this block can't report hits+misses inconsistent with request
  // totals the way the independently locked per-instance reads above
  // can. Registry counters are process-wide; in the daemon (one handler
  // per process) the two views describe the same traffic.
  const obs::MetricsSnapshot observed = obs::MetricsRegistry::Global()
                                            .snapshot();
  const auto counter = [&observed](const std::string& name) -> int64_t {
    for (const auto& [n, v] : observed.counters) {
      if (n == name) return static_cast<int64_t>(v);
    }
    return 0;
  };
  // {name: counter <prefix><name>} for each name.
  const auto counters = [&counter](const std::string& prefix,
                                   std::initializer_list<const char*> names) {
    JsonValue::Object block;
    for (const char* name : names) block[name] = counter(prefix + name);
    return block;
  };
  JsonValue::Object cache_counters =
      counters("serve.cache.", {"hits", "misses", "evictions"});
  cache_counters["lookups"] =
      cache_counters["hits"].as_int() + cache_counters["misses"].as_int();
  JsonValue::Object requests_json;
  JsonValue::Object latency_json;
  for (const char* op : {"solve", "evaluate", "mutate", "augment"}) {
    const std::string prefix = std::string("serve.") + op;
    requests_json[op] = JsonValue(JsonValue::Object{
        {"total", counter(prefix + ".requests")},
        {"errors", counter(prefix + ".errors")},
    });
    for (const auto& [name, histogram] : observed.histograms) {
      if (name == prefix + ".latency_us") {
        latency_json[op] = PercentilesJson(histogram);
      }
    }
  }
  JsonValue::Object observed_json{
      {"cache", JsonValue(std::move(cache_counters))},
      {"catalog", JsonValue(counters("serve.catalog.",
                                     {"loads", "evictions", "mutations"}))},
      {"requests", JsonValue(std::move(requests_json))},
      {"latency", JsonValue(std::move(latency_json))},
      // The PR 8 sparse-solver counters and the incremental warm-start
      // counters (DESIGN.md §16), from the same coherent snapshot as
      // everything else in this block.
      {"engine",
       JsonValue(JsonValue::Object{
           {"linalg",
            JsonValue(counters("engine.linalg.", {"factorizations", "solves",
                                                  "cg_iterations"}))},
           {"incremental",
            JsonValue(counters("engine.incremental.",
                               {"forests_reused", "forests_resampled",
                                "warm_starts", "cold_fallbacks",
                                "swap_moves"}))},
       })},
  };

  const BuildInfo& build = GetBuildInfo();
  JsonValue::Object response{
      {"op", "stats"},
      {"uptime_s", obs::ProcessUptimeSeconds()},
      {"build",
       JsonValue(JsonValue::Object{
           {"version", build.version},
           {"compiler", build.compiler},
           {"build_type", build.build_type},
           {"cxx_standard", build.cxx_standard},
       })},
      {"cache", JsonValue(std::move(cache_json))},
      {"catalog", JsonValue(std::move(catalog_json))},
      {"observed", JsonValue(std::move(observed_json))},
  };
  if (admission_ != nullptr) {
    response["server"] = JsonValue(JsonValue::Object{
        {"connections", admission_->connections.load()},
        {"accepted", admission_->accepted.load()},
        {"rejected", admission_->rejected.load()},
        {"served", admission_->served.load()},
    });
  }
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleMetrics(const JsonValue& request,
                                     obs::TraceContext*, obs::FlightRecord*) {
  StatusOr<std::string> format = DecodeMetricsFormat(request);
  if (!format.ok()) return ErrorResponseFor(request, format.status());

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().snapshot();
  if (*format == "prometheus") {
    return OkResponse({
        {"op", "metrics"},
        {"format", "prometheus"},
        {"text", RenderPrometheus(snapshot)},
    });
  }

  JsonValue::Object counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters[name] = static_cast<int64_t>(value);
  }
  JsonValue::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) gauges[name] = value;
  JsonValue::Object histograms;
  for (const auto& [name, histogram] : snapshot.histograms) {
    histograms[name] = HistogramJson(histogram);
  }
  return OkResponse({
      {"op", "metrics"},
      {"format", "json"},
      {"counters", JsonValue(std::move(counters))},
      {"gauges", JsonValue(std::move(gauges))},
      {"histograms", JsonValue(std::move(histograms))},
  });
}

JsonValue ServeHandler::HandleFlightz(const JsonValue& request,
                                     obs::TraceContext*, obs::FlightRecord*) {
  if (flight_ == nullptr) {
    return ErrorResponseFor(
        request, Status::FailedPrecondition(
                     "flight recorder disabled (flight capacity 0)"));
  }
  StatusOr<std::size_t> n = DecodeFlightCount(request);
  if (!n.ok()) return ErrorResponseFor(request, n.status());
  JsonValue::Object response = FlightDumpJson(*flight_, *n);
  response["op"] = "flightz";
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleShutdown(const JsonValue&, obs::TraceContext*,
                                       obs::FlightRecord*) {
  shutdown_.store(true, std::memory_order_release);
  return OkResponse({{"op", "shutdown"}});
}

JsonValue FlightRecordJson(const obs::FlightRecord& record) {
  JsonValue::Array spans;
  for (int i = 0; i < record.num_spans; ++i) {
    spans.push_back(JsonValue(JsonValue::Object{
        {"name", std::string(record.spans[i].name)},
        {"us", record.spans[i].duration_us},
    }));
  }
  JsonValue::Object json{
      {"id", record.id},
      {"ts_ms", record.wall_ms},
      {"mono_ns", record.mono_ns},
      {"op", std::string(record.op)},
      {"graph", std::string(record.graph)},
      {"epoch", static_cast<int64_t>(record.epoch)},
      {"ok", record.ok != 0},
      {"trace_id", std::string(record.trace_id)},
      {"latency_us", record.latency_us},
      {"queue_wait_us", record.queue_wait_us},
      {"spans", JsonValue(std::move(spans))},
  };
  if (record.ok == 0) {
    json["error_code"] = std::string(record.error_code);
  }
  return JsonValue(std::move(json));
}

JsonValue::Object FlightDumpJson(const obs::FlightRecorder& flight,
                                 std::size_t n) {
  JsonValue::Array records;
  for (const obs::FlightRecord& record : flight.Recent(n)) {
    records.push_back(FlightRecordJson(record));
  }
  JsonValue::Array pinned;
  for (const obs::FlightRecord& record : flight.Pinned(n)) {
    pinned.push_back(FlightRecordJson(record));
  }
  return JsonValue::Object{
      {"committed", flight.committed()},
      {"capacity", static_cast<int64_t>(flight.options().capacity)},
      {"pinned_capacity",
       static_cast<int64_t>(flight.options().pinned_capacity)},
      {"records", JsonValue(std::move(records))},
      {"pinned", JsonValue(std::move(pinned))},
  };
}

}  // namespace cfcm::serve
