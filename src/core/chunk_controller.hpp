// Chunk-length control for the tau-leaping batched simulator.
//
// BatchedUsdSimulator advances the asynchronous USD chain in chunks of m
// interactions with the transition rates frozen at the chunk's starting
// configuration. The approximation error of a chunk is governed by how far
// the per-interaction rates drift across it, and that drift is predictable
// from the current counts: the expected per-interaction change of every
// count (and its variance) is read off the chain's event weights
// (core::class_event_weights, the rates RoundEngine::try_async_class_chunk
// draws from). ChunkController turns that prediction into a step-size
// policy:
//
//  * ChunkPolicy::kFixed — the PR-2 behaviour, bit-for-bit: a constant
//    chunk of chunk_fraction * n interactions. Kept as the default so
//    seeded runs stay reproducible across revisions.
//  * ChunkPolicy::kAdaptive — an error-controlled chunk in the style of
//    Cao–Gillespie tau-selection: the largest m such that, for every
//    count c with per-interaction drift mu_c and variance sigma2_c,
//        m * |mu_c|        <= tol * max(c, 1)     (predicted drift)
//        m * sigma2_c      <= (tol * max(c, 1))^2 (predicted fluctuation)
//    clamped to [min_fraction, max_fraction] of n and moved geometrically
//    (at most grow_factor per step) so one noisy estimate cannot slam the
//    chunk around. An EWMA of the bound's step-to-step change
//    (trend_alpha) additionally pre-shrinks the chunk when the bound is
//    falling, so the schedule tightens *before* a phase transition rather
//    than one step into it. Flat mid-run regimes take chunks far larger
//    than the fixed default; near-absorbing and early phase-transition
//    states drop automatically toward the exact single-interaction chain.
//
// The controller is pure bookkeeping: it never draws randomness, so for a
// fixed sequence of observed configurations its proposals are
// deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pp/configuration.hpp"

namespace kusd::core {

enum class ChunkPolicy {
  kFixed,     ///< constant chunk_fraction * n interactions per draw
  kAdaptive,  ///< error-controlled (rate-drift bound), grows/shrinks
};

[[nodiscard]] const char* to_string(ChunkPolicy policy);
/// Parse the CLI spelling ("fixed", "adaptive").
[[nodiscard]] std::optional<ChunkPolicy> parse_chunk_policy(
    const std::string& name);

/// Knobs of ChunkPolicy::kAdaptive (ignored under kFixed).
struct AdaptiveChunkOptions {
  /// Bound on the predicted relative drift (and relative standard
  /// deviation) of every count across one chunk. Smaller is more accurate;
  /// the default keeps the adaptive engine within KS detectability of the
  /// exact chain in every property test.
  double drift_tolerance = 0.05;
  /// Exactness floor: chunks never shrink below max(1, min_fraction * n)
  /// interactions. 0 allows the exact single-interaction chain.
  double min_fraction = 0.0;
  /// Ceiling: chunks never exceed max_fraction * n interactions.
  double max_fraction = 0.5;
  /// Geometric growth limit per committed step (> 1). Shrinking is
  /// immediate (the error bound is a hard cap); growth is rate-limited so
  /// one flat-looking configuration cannot jump straight to the ceiling.
  double grow_factor = 2.0;
  /// EWMA weight of the drift-trend lookahead, in [0, 1); 0 disables it.
  /// The controller smooths the step-to-step change of the raw tau bound
  /// and, when the bound is falling, pre-shrinks the next chunk by the
  /// predicted one-step drop (PI-style): chunks tighten *before* a phase
  /// transition instead of one step into it. The anticipation only ever
  /// shrinks below the hard error bound (never extends it), so accuracy
  /// is unaffected, and it is floored at a quarter of the raw bound so a
  /// noisy spike cannot collapse the schedule.
  double trend_alpha = 0.25;
};

/// Options of the batched engines' chunk schedule. The first member is the
/// fixed fraction, so `{0.02}` means "fixed 2% chunks".
struct ChunkOptions {
  /// Chunk length under kFixed, as a fraction of n.
  double chunk_fraction = 0.02;
  ChunkPolicy policy = ChunkPolicy::kFixed;
  AdaptiveChunkOptions adaptive = {};
};

class ChunkController {
 public:
  /// Validates the options against the population size `n` (throws
  /// util::CheckError on out-of-range knobs).
  ChunkController(const ChunkOptions& options, pp::Count n);

  [[nodiscard]] const ChunkOptions& options() const { return options_; }

  /// Propose the next chunk length (always >= 1) for the current
  /// configuration of the annealed class chain
  /// (RoundEngine::try_async_class_chunk): `opinions` is class-major
  /// (class c, opinion j at c * k + j), `undecided` per class, `weights[c]`
  /// the per-member sampling weight of class c. Under kFixed the proposal
  /// is the constant chunk_fraction * n; under kAdaptive it is the error
  /// bound described in the file comment over every per-class count,
  /// geometrically rate-limited against the previous proposal.
  /// O(classes * k).
  [[nodiscard]] std::uint64_t propose_classes(
      std::span<const pp::Count> opinions, std::span<const pp::Count> undecided,
      std::span<const double> weights);

  /// propose_classes for the one-class (complete-graph) chain.
  [[nodiscard]] std::uint64_t propose(std::span<const pp::Count> opinions,
                                      pp::Count undecided);

  /// Feedback from the simulator: the last chunk overshot a count and was
  /// rejected by the frozen-rate draw. Shrinks the adaptive baseline so
  /// the next proposal starts from the halved length. No-op under kFixed.
  void on_reject();

  /// The smallest chunk the controller will propose.
  [[nodiscard]] std::uint64_t min_chunk() const { return min_chunk_; }
  /// The largest chunk the controller will propose.
  [[nodiscard]] std::uint64_t max_chunk() const { return max_chunk_; }

 private:
  /// Tail of the adaptive policy: trend lookahead, clamping to
  /// [min_chunk, max_chunk] and the geometric growth limit applied to a
  /// raw tau bound.
  [[nodiscard]] std::uint64_t finalize_bound(double bound);
  /// Tighten `bound` so drift and fluctuation of a count with the given
  /// per-interaction gain/loss rates stay inside the tolerance band.
  static void apply_band(double count, double gain, double loss, double tol,
                         double& bound);

  ChunkOptions options_;
  pp::Count n_;
  std::uint64_t min_chunk_ = 1;
  std::uint64_t max_chunk_ = 1;
  std::uint64_t fixed_chunk_ = 1;
  /// Last adaptive proposal (growth baseline).
  std::uint64_t last_ = 0;
  // Trend lookahead state (see AdaptiveChunkOptions::trend_alpha): the
  // EWMA of the raw bound's step-to-step change, and the previous raw
  // bound it is updated against.
  double trend_ = 0.0;
  double previous_tau_bound_ = 0.0;
  bool has_previous_tau_bound_ = false;
  /// Scratch of propose_classes: the chain's event weights and
  /// class_event_weights' own scratch.
  std::vector<double> events_;
  std::vector<double> rate_scratch_;
};

}  // namespace kusd::core
