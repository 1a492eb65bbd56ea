// The k-opinion Undecided State Dynamics — the paper's subject.
//
// Two faces are exposed:
//
//  * UsdProtocol — the transition function as a pp::PairProtocol, usable
//    with the generic schedulers (and the form in which the protocol is
//    stated in Section 2 of the paper).
//  * UsdSimulator — the tuned count-based core::Engine behind the "every"
//    and "skip" registry engines. It samples the exact same Markov chain
//    (one uniformly random ordered (responder, initiator) pair per
//    interaction, self-pairs allowed) but exploits USD structure: only
//    the responder ever changes, consensus is detectable in O(1), and
//    unproductive interactions can optionally be skipped in bulk with an
//    exact geometric jump (StepMode::kSkipUnproductive). advance()
//    resolves the urn backend and the step mode once per call and runs
//    one loop instantiated for that pair, with no per-event dispatch;
//    step() is advance(1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "pp/protocol.hpp"
#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd::core {

/// delta of the USD with k opinions; state k is the undecided state.
class UsdProtocol final : public pp::PairProtocol {
 public:
  explicit UsdProtocol(int k);

  [[nodiscard]] int num_states() const override { return k_ + 1; }
  [[nodiscard]] int undecided_state() const { return k_; }
  [[nodiscard]] pp::PairTransition apply(int responder,
                                         int initiator) const override;

 private:
  int k_;
};

/// Interaction-stepping policy of UsdSimulator.
enum class StepMode {
  /// Simulate every interaction individually.
  kEveryInteraction,
  /// Jump over maximal runs of unproductive interactions with an exact
  /// Geometric sample, then realize one productive interaction from the
  /// correct conditional distribution. Distributionally identical to
  /// kEveryInteraction (validated by property tests) but much faster in
  /// regimes where most interactions change nothing.
  kSkipUnproductive,
};

/// The "every" and "skip" engines: native time is interactions.
class UsdSimulator final : public Engine {
 public:
  UsdSimulator(const pp::Configuration& initial, rng::Rng rng,
               StepMode mode = StepMode::kEveryInteraction);

  /// Execute one interaction (kEveryInteraction) or one productive
  /// interaction plus the unproductive run before it (kSkipUnproductive):
  /// advance(1), since each event moves the clock by at least one.
  void step();

  /// Steps until `budget` more interactions have elapsed or consensus; a
  /// skip may overshoot the target by part of one geometric jump.
  void advance(std::uint64_t budget) override;

  // ---- Inspection ----
  [[nodiscard]] std::uint64_t interactions() const { return interactions_; }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_.counts();
  }
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return opinions();
  }
  [[nodiscard]] pp::Count opinion(int i) const {
    return opinions_.count(static_cast<std::size_t>(i));
  }
  [[nodiscard]] pp::Count undecided() const override { return undecided_; }
  [[nodiscard]] std::uint64_t elapsed() const override {
    return interactions_;
  }
  [[nodiscard]] double parallel_time() const override {
    return static_cast<double>(interactions_) / static_cast<double>(n_);
  }
  [[nodiscard]] bool is_consensus() const override {
    return winner_.has_value();
  }
  /// The consensus opinion; only valid when is_consensus().
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }
  [[nodiscard]] std::uint64_t default_budget() const override;
  [[nodiscard]] std::uint64_t default_observe_interval() const override;
  [[nodiscard]] pp::Configuration configuration() const;

 private:
  /// The event loop of advance(), for one step mode and urn backend.
  template <StepMode Mode, typename Backend>
  void run_events(Backend& opinions, std::uint64_t target);

  urn::Urn opinions_;        // k categories: decided agents by opinion
  pp::Count undecided_;
  pp::Count n_;
  // Sum of squared opinion supports, maintained incrementally (r^2 of the
  // paper's Appendix B); used by the skip engine's productive probability.
  std::uint64_t sum_squares_;
  rng::Rng rng_;
  StepMode mode_;
  std::uint64_t interactions_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::core
