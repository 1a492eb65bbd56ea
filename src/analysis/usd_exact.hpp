// Exact finite-Markov-chain analysis of the k-opinion USD for small n and
// k — the general-k companion of Usd2ExactSolver.
//
// The state space is every support vector (x_1..x_k) with sum <= n (the
// undecided count implied); expected consensus time and the win
// probability of every opinion are solved exactly by dense Gaussian
// elimination with k+1 right-hand sides. State count is C(n+k, k), so this
// is for validation scale (n <~ 20, k <= 4), where it gives asymptotics-free
// ground truth for the plurality-win probabilities of Theorem 2.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "pp/configuration.hpp"

namespace kusd::analysis {

class UsdExactSolver {
 public:
  /// Largest state space the dense solver accepts.
  static constexpr double kMaxStates = 2500.0;

  /// C(n+k, k), the number of states of the (n, k) chain — exact up to
  /// kMaxStates; above it, some value that is also above it.
  [[nodiscard]] static double state_count(pp::Count n, int k);

  /// Builds and solves the k-opinion chain on n agents. Cost grows like
  /// C(n+k,k)^3; KUSD_CHECK rejects state spaces above kMaxStates.
  UsdExactSolver(pp::Count n, int k);

  [[nodiscard]] pp::Count n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::size_t num_states() const { return states_.size(); }

  /// Expected interactions to consensus from support vector x
  /// (u = n - sum(x) implied; sum must be >= 1).
  [[nodiscard]] double expected_consensus_time(
      const std::vector<pp::Count>& x) const;

  /// Probability that `opinion` is the eventual consensus opinion.
  [[nodiscard]] double win_probability(const std::vector<pp::Count>& x,
                                       int opinion) const;

 private:
  [[nodiscard]] std::size_t index_of(const std::vector<pp::Count>& x) const;

  pp::Count n_;
  int k_;
  std::vector<std::vector<pp::Count>> states_;
  std::map<std::vector<pp::Count>, std::size_t> index_;
  // Solved values: per state, expected time and k win probabilities.
  std::vector<double> expected_time_;
  std::vector<std::vector<double>> win_prob_;  // [state][opinion]
};

}  // namespace kusd::analysis
