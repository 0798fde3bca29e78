// Incremental re-solve for dynamic graphs (DESIGN.md §16).
//
// A solve on epoch e leaves behind a WarmState: the selected group, the
// final greedy round's per-candidate gains/keys, and that round's
// forest arena. GraphSession::Mutate folds each applied delta into the
// state (AdvanceWarmState). For reweights and removals every retained
// forest F is kept with probability prod_{e in F} rho_e /
// prod_e max(1, rho_e), rho_e = w'_e / w_e (0 for a removal): Wilson
// forests have P(F) proportional to prod_{e in F} w_e, so this is
// rejection sampling and every kept forest is an exact sample on the
// post-delta graph. Rejected slots are resampled from an independent
// stream on the new graph. No retained forest can contain an added
// edge, so a delta that adds an edge or a node replays nothing: the
// successor carries no arena. A warm solve (ForestSolveWithWarm) then
// re-scores only the incumbent group plus a small contender pool on
// that forest stream, sampling a fresh arena when it has none, and
// repairs the selection by swap-based local search instead of
// rebuilding greedy rounds 1..k. Cold fallback triggers (delta too
// large, disconnection, parameter drift, k change) keep correctness
// independent of locality.
#ifndef CFCM_CFCM_INCREMENTAL_H_
#define CFCM_CFCM_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cfcm/lazy_greedy.h"
#include "cfcm/options.h"
#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "runtime/forest_arena.h"

namespace cfcm {

/// Warm-start policy of one solve job. kAuto uses a warm state when one
/// is available and usable; kOn additionally counts a cold fallback
/// when it is not; kOff never warm-starts (but still deposits a state
/// for successors).
enum class WarmMode { kOff, kAuto, kOn };

/// "off" / "auto" / "on".
const char* WarmModeName(WarmMode mode);

/// Inverse of WarmModeName; nullopt for unknown strings.
std::optional<WarmMode> ParseWarmMode(std::string_view name);

/// \brief One-shot exclusive lease on a retained forest arena.
///
/// The arena's slabs are mutated in place by whichever consumer wins
/// the claim (a warm solve overwriting rejected slots, or Mutate moving
/// the arena into the successor state or freeing it), while WarmState
/// objects are immutable and shared across epochs/threads. Every
/// transfer creates a fresh lease; a lease that was claimed but never
/// transferred simply retires with its owner.
struct ArenaLease {
  ForestArena arena;
  std::atomic<bool> claimed{false};

  /// True exactly once; the caller then owns `arena` exclusively.
  bool TryClaim() {
    return !claimed.exchange(true, std::memory_order_acq_rel);
  }
};

/// \brief Everything a successor epoch needs to warm-start: the
/// previous selection and final-round candidate scores, the retained
/// forest arena with its per-forest keep decisions, and a
/// running summary of the deltas applied since the state was built.
/// Immutable once published (the arena hides behind ArenaLease).
struct WarmState {
  // Solve parameters the state was produced under. A warm start is only
  // attempted for an identically-parameterized job (DecideWarm).
  double eps = 0.2;
  uint64_t seed = 1;

  std::vector<NodeId> selection;  ///< greedy order, size k
  std::vector<double> gains;      ///< final-round gain per node (size
                                  ///< source_n; 0 at selected nodes)
  std::vector<double> keys;       ///< width-inflated heap keys, ditto
  double last_gain = 0.0;         ///< the final pick's winning gain
  uint64_t final_seed = 0;        ///< stream seed of greedy round k
  CfcmResult base_result;         ///< the producing solve's result
                                  ///< (identity-delta fast path)

  /// Final-round arena (roots = selection[0..k-2]); null when the
  /// producing round kept none or a later epoch dropped it.
  std::shared_ptr<ArenaLease> lease;
  /// Per-forest flags aligned with the arena's committed prefix:
  /// nonzero = clean (kept by every keep draw since it was sampled, so
  /// an exact sample on the current graph; replayable verbatim).
  std::vector<char> clean;

  /// One accumulated delta edge: endpoints in the source graph's id
  /// space and the absolute conductance change (removal: the removed
  /// weight; addition: the added weight).
  struct TouchedEdge {
    NodeId u = -1;
    NodeId v = -1;
    double abs_dw = 0.0;
  };
  std::vector<TouchedEdge> touched;  ///< changed edges since the solve
  bool structural = false;   ///< any removal/addition since the solve
  bool overflow = false;     ///< touched-list cap hit; summary unusable
  NodeId source_n = 0;       ///< node count of the solved graph
  uint64_t epoch_salt = 0;   ///< advances since capture; salts the
                             ///< resample RNG stream
};

/// Touched edges retained before AdvanceWarmState declares overflow
/// (beyond this the delta is far past every warm threshold anyway).
inline constexpr std::size_t kWarmMaxTouchedEdges = 4096;

/// New nodes a warm repair will absorb before falling back cold (each
/// one joins the contender pool unconditionally).
inline constexpr NodeId kWarmMaxNewNodes = 64;

/// Cold-fallback trigger: warm repair is refused when the accumulated
/// delta touched more than this fraction of the current edge set.
inline constexpr double kWarmMaxDeltaFraction = 0.25;

/// \brief Packages a finished cold solve into a WarmState.
///
/// `graph` is the solved graph, `result` the solve's output and
/// `capture` the lazy loop's warm material (moved from). The captured
/// arena always holds the final round's forests; it is adopted after a
/// defensive MatchesRound check against selection[0..k-2] and the
/// final round's seed.
std::shared_ptr<const WarmState> BuildWarmState(const Graph& graph,
                                                const CfcmOptions& options,
                                                const CfcmResult& result,
                                                WarmCapture&& capture);

/// \brief Folds one applied delta into `state`, yielding the successor
/// epoch's state.
///
/// `pre_graph` is the graph the delta applies to (BEFORE application,
/// for old conductance lookups). No-op reweights are skipped entirely,
/// so an identity delta advances to an identical state and the warm
/// fast path returns the stored result verbatim. The keep rule runs
/// only if the arena lease can be claimed here; otherwise (an in-flight
/// warm solve holds it) the successor simply carries no arena. A delta
/// that adds an edge or a node claims the lease and frees the arena:
/// the successor carries none. Thread-safe against concurrent readers
/// of `state`.
std::shared_ptr<const WarmState> AdvanceWarmState(const WarmState& state,
                                                  const Graph& pre_graph,
                                                  const GraphDelta& delta);

/// Why a warm start was or was not attempted.
struct WarmDecision {
  bool use_warm = false;
  const char* reason = "";  ///< static string, e.g. "delta_too_large"
};

/// The fallback policy of DESIGN.md §16, exported for tests. `state`
/// may be null. Checks parameter/k drift, disconnection, the touched
/// fraction against kWarmMaxDeltaFraction, node growth and summary
/// overflow.
WarmDecision DecideWarm(const Graph& graph, const WarmState* state, int k,
                        const CfcmOptions& options);

/// \brief The warm-start channel of one solve call: the policy and the
/// caller's state in, the successor state out. A null channel means a
/// plain cold solve that deposits nothing.
struct WarmIo {
  WarmMode mode = WarmMode::kOff;
  /// The caller's state for the graph being solved; may be null.
  std::shared_ptr<const WarmState> state;
  /// Filled by a solver with a warm path (every lazy forest solve, warm
  /// or cold) with the successor state to retain; untouched otherwise.
  std::shared_ptr<const WarmState> deposit;
};

/// \brief Forest solve with the warm-start pipeline.
///
/// A null `io` or mode kOff (or exhaustive selection) runs the plain
/// cold solve; kAuto/kOn run the warm repair when DecideWarm accepts
/// and fall back cold otherwise (result.cold_fallback reports it). With
/// a non-null `io`, every lazy solve fills io->deposit. Warm results
/// depend on the session's mutation history and must never enter the
/// result cache; result.warm_started marks them.
StatusOr<CfcmResult> ForestSolveWithWarm(const Graph& graph, int k,
                                         const CfcmOptions& options,
                                         WarmIo* io);

}  // namespace cfcm

#endif  // CFCM_CFCM_INCREMENTAL_H_
