// Request-field decoding shared by every front end (DESIGN.md §10).
//
// The wire protocol's handlers, cfcm_cli's job flags and the
// `cfcm_serve client` request builder all go through the decoders
// below, so one set of types, bounds and error messages governs each
// field wherever it enters. Command-line flags reach the decoders by
// way of RequestFromFlags, which only types flag strings into the wire
// request object; every range and enum check stays in the decoders.
#ifndef CFCM_SERVE_REQUEST_H_
#define CFCM_SERVE_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "graph/delta.h"
#include "serve/json.h"

namespace cfcm::serve {

/// A required non-empty string member ("op", "graph", "source").
StatusOr<std::string> DecodeRequiredString(const JsonValue& request,
                                           const std::string& key);

/// solve: "k" [1, 1e9] (default 1), "seed" [0, 2^63) (default 1),
/// "algorithm" (default "forest"), "eps" (0, 1] (default 0.2),
/// "selection", "solver_backend" and "warm", checked in that order.
StatusOr<engine::SolveJob> DecodeSolveJob(const JsonValue& request);

/// solve: "staleness":{"max_epochs":E} with E in [0, 64]; 0 when absent.
StatusOr<int64_t> DecodeMaxStaleEpochs(const JsonValue& request);

/// evaluate: "probes" [0, 1e6] (default 0 = exact), "seed", the
/// required "group" and "solver_backend", checked in that order.
StatusOr<engine::EvaluateJob> DecodeEvaluateJob(const JsonValue& request);

/// augment: the required "group", "k" [1, 1e6] (default 1),
/// "candidates" ("group" or "any"), "apply" (a boolean, stored in
/// `*apply` when non-null) and "solver_backend", checked in that order.
StatusOr<engine::AugmentJob> DecodeAugmentJob(const JsonValue& request,
                                              bool* apply = nullptr);

/// mutate: "add_nodes" [0, 1e6], then the edge lists "remove" ([u,v]),
/// "reweight" ([u,v,w]) and "add" ([u,v] or [u,v,w]). An empty delta is
/// an error.
StatusOr<GraphDelta> DecodeGraphDelta(const JsonValue& request);

/// flightz: "n" [1, 4096], default 64.
StatusOr<std::size_t> DecodeFlightCount(const JsonValue& request);

/// metrics: "format", "json" (default) or "prometheus".
StatusOr<std::string> DecodeMetricsFormat(const JsonValue& request);

/// Builds the request object {"op":op,...} from command-line flags, each
/// a (spelling without "--", value) pair in command-line order. A later
/// flag overwrites an earlier one, except the edge flags --add, --remove
/// and --reweight, which append. Only the value's JSON type is decided
/// here; the Decode* functions above judge the result.
StatusOr<JsonValue> RequestFromFlags(
    const std::string& op,
    const std::vector<std::pair<std::string, std::string>>& flags);

}  // namespace cfcm::serve

#endif  // CFCM_SERVE_REQUEST_H_
