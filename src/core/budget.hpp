// Default native-time budgets of the engines.
//
// Lives in core (not runner) so the engines can answer
// Engine::default_budget() and the sim registry can publish the same
// values statically without reaching up the layer stack: the layering
// contract is util/rng/stats/urn -> core/pp/... -> sim -> runner, and
// these caps are needed on both sides of the sim boundary.
#pragma once

#include <cmath>
#include <cstdint>

#include "pp/configuration.hpp"

namespace kusd::core {

/// A non-negative cap formula evaluated in double, as a uint64 budget.
/// Populations the batched engine reaches can push the formulas below
/// past uint64 range; saturate instead of an unrepresentable (UB) cast.
[[nodiscard]] inline std::uint64_t saturating_cap(double cap) {
  constexpr double kMax = 18446744073709549568.0;  // largest double < 2^64
  return cap >= kMax ? ~std::uint64_t{0} : static_cast<std::uint64_t>(cap);
}

/// Generous default interaction cap for the asynchronous engines:
/// 64 * k * n * (ln n + 1) — several times the paper's O(k n log n)
/// convergence bound. Used when a driver passes cap 0.
[[nodiscard]] inline std::uint64_t default_interaction_cap(pp::Count n,
                                                           int k) {
  const double dn = static_cast<double>(n);
  return saturating_cap(64.0 * static_cast<double>(k) * dn *
                        (std::log(dn) + 1.0));
}

/// Generous round caps used as the sync/gossip default budgets: the
/// synchronized variant is O(log^2 n) super-rounds w.h.p., gossip
/// O(k log n) rounds.
[[nodiscard]] inline std::uint64_t sync_round_cap(pp::Count n) {
  const double lg = std::log2(static_cast<double>(n)) + 1.0;
  return static_cast<std::uint64_t>(64.0 * lg * lg) + 256;
}

[[nodiscard]] inline std::uint64_t gossip_round_cap(pp::Count n, int k) {
  const double lg = std::log2(static_cast<double>(n)) + 1.0;
  return static_cast<std::uint64_t>(64.0 * static_cast<double>(k) * lg) + 256;
}

}  // namespace kusd::core
