// USD in the synchronous (parallel) gossip model — the comparator of
// Becchetti et al. [9] used by the Appendix D rate comparison (E8).
//
// In each round every agent independently samples one agent uniformly at
// random (with replacement, self included) and applies the USD rule to the
// sampled opinion, all updates computed from the pre-round configuration.
// The simulation is count-based: the partners of the m agents in a state
// are jointly multinomial over the pre-round state distribution, so one
// round costs O(k^2) binomial draws instead of O(n) samples.
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

namespace kusd::gossip {

/// The "gossip" engine: native time and parallel time are rounds.
class GossipUsd final : public core::Engine {
 public:
  GossipUsd(const pp::Configuration& initial, rng::Rng rng);

  /// Execute one synchronous round.
  void round();

  void advance(std::uint64_t budget) override;

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_;
  }
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return opinions_;
  }
  [[nodiscard]] pp::Count undecided() const override { return undecided_; }
  [[nodiscard]] std::uint64_t elapsed() const override { return rounds_; }
  [[nodiscard]] double parallel_time() const override {
    return static_cast<double>(rounds_);
  }
  [[nodiscard]] bool is_consensus() const override {
    return winner_.has_value();
  }
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }
  [[nodiscard]] std::uint64_t default_budget() const override {
    return core::gossip_round_cap(n_, k());
  }
  [[nodiscard]] std::uint64_t default_observe_interval() const override {
    return 1;
  }
  [[nodiscard]] pp::Configuration configuration() const {
    return pp::Configuration(opinions_, undecided_);
  }

 private:
  std::vector<pp::Count> opinions_;
  pp::Count undecided_;
  pp::Count n_;
  core::RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t rounds_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::gossip
