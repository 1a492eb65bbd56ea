// Batched simulator for the asynchronous USD chain: Θ(n) interactions per
// O(classes * k) work via chunked Poissonization (tau-leaping).
//
// The population is partitioned into weighted classes (a
// pp::DegreeClassModel) whose members enter interactions with probability
// proportional to their class weight — the annealed scheduler. The
// paper's complete-graph chain is one class of weight 1, which is what
// the (initial, rng, options) constructor builds; sim::BatchedGraphEngine
// builds the classes from a graph topology. Each step freezes the
// per-interaction transition rates at the current configuration and draws
// the aggregate event counts of a whole chunk of interactions from one
// multinomial (RoundEngine::try_async_class_chunk). This is the standard
// tau-leap approximation of the jump chain: exact when the chunk is a
// single interaction, and accurate whenever the rates change little
// across a chunk. The chunk length comes from a ChunkController — a fixed
// fraction of n (ChunkPolicy::kFixed, the bit-compatible default) or an
// error-controlled adaptive schedule (ChunkPolicy::kAdaptive) that bounds
// the predicted rate drift per chunk (see chunk_controller.hpp). Chunks
// that would overshoot a count are halved and redrawn down to a single
// interaction, which is always exact, so the simulator is well-defined in
// every state. The approximation quality is validated against
// StepMode::kEveryInteraction by KS property tests
// (tests/test_batched_usd.cpp, tests/test_chunk_controller.cpp).
//
// Unlike UsdSimulator, populations are not limited to 32 bits: only
// classes * (k+1) counts are stored, so n = 10^9 and beyond run
// comfortably (see bench_batched_rounds.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/chunk_controller.hpp"
#include "core/engine.hpp"
#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

/// The "batched" engine: native time is interactions, and advance()
/// clamps chunks so budgets and observation boundaries land exactly.
class BatchedUsdSimulator : public Engine {
 public:
  /// The complete-graph chain: one class of unit weight. Draws nothing
  /// from `rng` at construction.
  BatchedUsdSimulator(const pp::Configuration& initial, rng::Rng rng,
                      ChunkOptions options = {});
  /// The annealed chain over the classes of `model` (class sizes and
  /// per-member weights). With more than one class, each state's agents
  /// are split over the classes in proportion to class size, drawn from
  /// `rng`: the multinomial limit of a uniformly random embedding (an
  /// O(1/sqrt(n)) perturbation of the exact hypergeometric split, below
  /// the annealed approximation's own error). State totals stay exact.
  BatchedUsdSimulator(const pp::Configuration& initial,
                      pp::DegreeClassModel model, rng::Rng rng,
                      ChunkOptions options = {});

  /// Advance one chunk (possibly halved on overshoot; at least one
  /// interaction). The proposed chunk is clamped to `max_length`
  /// interactions, which advance() uses to land exactly on its target.
  void step(std::uint64_t max_length = ~std::uint64_t{0});

  void advance(std::uint64_t budget) override;

  // ---- Inspection ----
  [[nodiscard]] std::uint64_t interactions() const { return interactions_; }
  /// Number of multinomial chunks drawn so far (including halved retries).
  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return totals_;
  }
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return totals_;
  }
  [[nodiscard]] pp::Count opinion(int i) const {
    return totals_[static_cast<std::size_t>(i)];
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
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }
  [[nodiscard]] std::uint64_t default_budget() const override;
  [[nodiscard]] std::uint64_t default_observe_interval() const override;
  [[nodiscard]] pp::Configuration configuration() const {
    return pp::Configuration(totals_, undecided_);
  }
  [[nodiscard]] const pp::DegreeClassModel& degree_model() const {
    return model_;
  }
  /// Class-major per-(class, opinion) counts (classes * k entries).
  [[nodiscard]] std::span<const pp::Count> class_counts() const {
    return class_counts_;
  }
  [[nodiscard]] std::span<const pp::Count> class_undecided() const {
    return class_undecided_;
  }

 private:
  /// Recompute the k totals and the consensus flag (O(classes * k)).
  void refresh_totals();

  pp::Count n_;
  pp::DegreeClassModel model_;
  std::vector<double> class_weights_;       // per-class member weight
  std::vector<pp::Count> class_counts_;     // classes * k, class-major
  std::vector<pp::Count> class_undecided_;  // per class
  std::vector<pp::Count> totals_;           // k opinion totals
  pp::Count undecided_ = 0;
  ChunkController controller_;
  RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t interactions_ = 0;
  std::uint64_t chunks_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::core
