// Synchronized USD variant (extension feature).
//
// Several works cited in Section 1.2 ([5, 7, 15, 30]) study a synchronized
// variant of the USD in which the system alternates between two phases:
// first every agent performs one USD step, then every undecided agent
// re-adopts an opinion (by sampling agents until a decided one is found).
// Phase clocks make this implementable in the population model at the cost
// of extra states; the payoff is polylogarithmic convergence *regardless of
// the initial configuration*. We implement the idealized synchronized
// process on top of the multinomial round engine so bench_baselines can
// show the contrast the paper draws: polylog rounds, but a "less natural"
// protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/budget.hpp"
#include "core/engine.hpp"
#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

/// The "sync" engine: native time is super-rounds; parallel_time counts
/// every synchronous round including re-adoption sub-rounds (the
/// comparable metric the paper's polylog bounds are stated in).
class SyncUsd final : public Engine {
 public:
  SyncUsd(const pp::Configuration& initial, rng::Rng rng);

  /// One synchronized super-round: a USD round followed by repeated
  /// re-adoption rounds until no agent is undecided. Returns the number of
  /// re-adoption sub-rounds used.
  std::uint64_t super_round();

  void advance(std::uint64_t budget) override;

  [[nodiscard]] std::uint64_t super_rounds() const { return super_rounds_; }
  /// Total synchronous rounds including re-adoption sub-rounds.
  [[nodiscard]] std::uint64_t total_rounds() const { return total_rounds_; }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_;
  }
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return opinions_;
  }
  /// Fully decided between super-rounds.
  [[nodiscard]] pp::Count undecided() const override { return 0; }
  [[nodiscard]] std::uint64_t elapsed() const override {
    return super_rounds_;
  }
  [[nodiscard]] double parallel_time() const override {
    return static_cast<double>(total_rounds_);
  }
  [[nodiscard]] bool is_consensus() const override {
    return winner_.has_value();
  }
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }
  [[nodiscard]] std::uint64_t default_budget() const override {
    return sync_round_cap(n_);
  }
  [[nodiscard]] std::uint64_t default_observe_interval() const override {
    return 1;
  }

 private:
  std::vector<pp::Count> opinions_;
  pp::Count n_;
  RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t super_rounds_ = 0;
  std::uint64_t total_rounds_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::core
