// Batched whole-round primitives for the USD Markov chains.
//
// SyncUsd, GossipUsd and BatchedUsdSimulator all advance entire rounds in
// aggregate: the partners of the m agents in a state are jointly multinomial
// over the partner distribution, so a round costs O(k) binomial draws
// instead of Θ(n) per-agent samples. This class centralizes that machinery
// (previously duplicated ad hoc in sync_usd.cpp and gossip_usd.cpp):
//
//  * decided_step / adoption_step — the two synchronous half-rounds, exact
//    for the synchronized and gossip round models.
//  * try_async_class_chunk — a chunked-Poissonization (tau-leaping) step
//    for the asynchronous chain over a population partitioned into
//    weighted classes: m interactions advanced with the transition rates
//    of class_event_weights frozen at the current configuration.
//    Interaction endpoints are sampled with probability proportional to
//    per-member class weight (the annealed scheduler of
//    sim::BatchedGraphEngine); the paper's complete-graph chain is the
//    case of one class of weight 1. Exact in the limit m -> 1 and a
//    documented approximation for m > 1 (see BatchedUsdSimulator).
//    try_async_chunk is that one-class case.
//
// The engine owns only scratch buffers; all population state is the
// caller's. Methods are deterministic given the caller's Rng.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

/// The paper's complete-graph chain as a class chain: one class of unit
/// weight.
inline constexpr std::array<double, 1> kUnitClass = {1.0};

/// The per-interaction event weights of the annealed class chain at one
/// configuration, in units of W^2 * probability, where W = sum_c w_c n_c
/// is the total sampling weight. `opinions` holds the class-major decided
/// counts (class c, opinion j at c * k + j), `undecided` the per-class
/// undecided counts, `weights[c]` the per-member weight of class c.
/// Responder and initiator are independently weight-proportional, and only
/// the responder transitions. Fills `events` (2 * classes * k + 1 entries):
///   adopt(c, j) at c * k + j:   w_c u_c * X_j,    X_j = sum_c' w_c' x_c'j
///   flip(c, j)  at (classes + c) * k + j:
///                               w_c x_cj * sum_c' w_c' (d_c' - x_c'j)
///   no-op       last:           max(0, W^2 - sum of the above)
/// where d_c is the decided count of class c. The differences d_c - x_cj
/// are taken in integers, so a flip weight never cancels to 0 while a
/// member of positive weight holds another opinion. `scratch` holds 2k
/// doubles.
/// Returns W (0 when no member has weight).
double class_event_weights(std::span<const pp::Count> opinions,
                           std::span<const pp::Count> undecided,
                           std::span<const double> weights,
                           std::span<double> events,
                           std::span<double> scratch);

class RoundEngine {
 public:
  /// `k` is the number of decided opinions, `classes` the number of degree
  /// classes the population is partitioned into (1 = the unstructured
  /// chain; scratch is sized for 2 * k * classes + 1 async event families).
  explicit RoundEngine(int k, int classes = 1);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int classes() const { return classes_; }

  /// One synchronous USD half-round over the decided agents: every agent of
  /// opinion i samples a partner from the distribution (opinions...,
  /// undecided) and keeps i iff the partner shares it (or, when
  /// `keep_on_undecided`, is undecided); otherwise it becomes undecided.
  /// Survivors are accumulated into `next` (size k); returns the number of
  /// agents that became undecided. `next` must not alias `opinions`.
  pp::Count decided_step(std::span<const pp::Count> opinions,
                         pp::Count undecided, bool keep_on_undecided,
                         std::span<pp::Count> next, rng::Rng& rng);

  /// One synchronous re-adoption half-round: `undecided` agents each sample
  /// a partner from the distribution (partners..., partner_undecided);
  /// samplers landing on opinion j adopt it (accumulated into `next[j]`).
  /// Returns how many agents remain undecided. `partners` may alias `next`
  /// (the weights are copied before `next` is written).
  pp::Count adoption_step(std::span<const pp::Count> partners,
                          pp::Count partner_undecided, pp::Count undecided,
                          std::span<pp::Count> next, rng::Rng& rng);

  /// The one-class case of try_async_class_chunk: the complete-graph
  /// chain, in which opinion j gains an agent w.p. u*x_j / n^2 and loses
  /// one w.p. x_j*(d - x_j) / n^2 per interaction (d = n - u). Needs an
  /// engine of one class; `n` is implied by the counts.
  bool try_async_chunk(std::span<pp::Count> opinions, pp::Count& undecided,
                       pp::Count n, std::uint64_t m, rng::Rng& rng);

  /// Class-structured tau-leap: advance `m` interactions of the annealed
  /// weighted chain in one multinomial draw over class_event_weights,
  /// frozen at the current configuration (`opinions` class-major,
  /// `undecided` per class, `weights` per class, as there). Applies the
  /// aggregate deltas and returns true; returns false without modifying
  /// the state when the frozen-rate draw would drive a count negative or
  /// leave zero decided agents — a state the exact chain cannot reach (the
  /// caller retries with a smaller m — m == 1 always succeeds).
  bool try_async_class_chunk(std::span<pp::Count> opinions,
                             std::span<pp::Count> undecided,
                             std::span<const double> weights, std::uint64_t m,
                             rng::Rng& rng);

 private:
  int k_;
  int classes_;
  std::vector<double> weights_;  // scratch: 2*k*classes+1 event weights
  std::vector<double> rate_scratch_;   // scratch of class_event_weights
  std::vector<pp::Count> undecided_after_;  // scratch: per-class commit
  std::vector<std::uint64_t> events_;  // scratch: multinomial draws, sized
                                       // like weights_
};

}  // namespace kusd::core
