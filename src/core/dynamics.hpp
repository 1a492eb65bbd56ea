// Baseline consensus dynamics from the paper's related-work section (1.2):
// Voter (1-Majority), TwoChoices (lazy tie-break), 3-Majority, general
// j-Majority, and the MedianRule. These are *sampling dynamics*: at each
// activation one agent is chosen uniformly at random, samples j agents
// uniformly at random (with replacement), and updates its opinion by the
// rule. There is no undecided state.
//
// They are used by bench_baselines (E9) to place the USD's convergence
// among its peers, exactly as the paper's introduction does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd::core {

/// One update rule of a sampling dynamic.
class SamplingDynamics {
 public:
  virtual ~SamplingDynamics() = default;

  /// Number of agents sampled per activation.
  [[nodiscard]] virtual int sample_size() const = 0;

  /// New opinion of the activated agent, given its own opinion and the
  /// sampled opinions.
  [[nodiscard]] virtual int update(int self, std::span<const int> sampled,
                                   rng::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Voter / 1-Majority: adopt the sampled opinion.
class VoterDynamics final : public SamplingDynamics {
 public:
  [[nodiscard]] int sample_size() const override { return 1; }
  [[nodiscard]] int update(int self, std::span<const int> sampled,
                           rng::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "Voter"; }
};

/// TwoChoices: sample two; adopt if they agree, otherwise keep your own
/// opinion (lazy tie-breaking, as in Ghaffari & Lengler).
class TwoChoicesDynamics final : public SamplingDynamics {
 public:
  [[nodiscard]] int sample_size() const override { return 2; }
  [[nodiscard]] int update(int self, std::span<const int> sampled,
                           rng::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override {
    return "TwoChoices";
  }
};

/// j-Majority: sample j; adopt the majority opinion among the sample,
/// breaking ties uniformly among the tied opinions. j = 3 is the classic
/// 3-Majority dynamics.
class JMajorityDynamics final : public SamplingDynamics {
 public:
  explicit JMajorityDynamics(int j);
  [[nodiscard]] int sample_size() const override { return j_; }
  [[nodiscard]] int update(int self, std::span<const int> sampled,
                           rng::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  int j_;
  std::string name_;
};

/// MedianRule (Doerr et al.): opinions are ordered; adopt the median of
/// {self, sampled[0], sampled[1]}.
class MedianRuleDynamics final : public SamplingDynamics {
 public:
  [[nodiscard]] int sample_size() const override { return 2; }
  [[nodiscard]] int update(int self, std::span<const int> sampled,
                           rng::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override {
    return "MedianRule";
  }
};

/// Sequential (asynchronous) scheduler for sampling dynamics: each step
/// activates one uniformly random agent. Count-based, like the USD engine;
/// native time is activations.
class DynamicsScheduler final : public Engine {
 public:
  DynamicsScheduler(const SamplingDynamics& dynamics,
                    const pp::Configuration& initial, rng::Rng rng);

  void step();
  void advance(std::uint64_t budget) override;

  [[nodiscard]] std::uint64_t activations() const { return activations_; }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return opinions_.counts();
  }
  /// Sampling dynamics have no undecided state.
  [[nodiscard]] pp::Count undecided() const override { return 0; }
  [[nodiscard]] std::uint64_t elapsed() const override {
    return activations_;
  }
  [[nodiscard]] double parallel_time() const override {
    return static_cast<double>(activations_) / static_cast<double>(n_);
  }
  [[nodiscard]] bool is_consensus() const override {
    return winner_.has_value();
  }
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }
  /// 10 n^2 activations: the voter model, the slowest of these dynamics,
  /// needs Theta(n^2) on the complete graph.
  [[nodiscard]] std::uint64_t default_budget() const override;
  [[nodiscard]] std::uint64_t default_observe_interval() const override;

 private:
  const SamplingDynamics& dynamics_;
  urn::Urn opinions_;
  pp::Count n_;
  rng::Rng rng_;
  std::uint64_t activations_ = 0;
  std::optional<int> winner_;
  std::vector<int> sample_buffer_;
};

}  // namespace kusd::core
