// "graph-batched": degree-aggregated tau-leaping over a GraphSpec
// topology — graph sweeps at the batched engine's population scale.
//
// The per-interaction "graph" engine is faithful to one realized edge set
// but stores O(n) vertex states and advances one edge per step, which
// stalls graph sweeps orders of magnitude below the batched engine's
// 10^9 populations. This engine is the aggregation-over-structure escape:
// the topology is collapsed to a pp::DegreeClassModel (a handful of
// (degree, size) classes), and the model is handed to
// core::BatchedUsdSimulator, whose class-structured tau-leap is the
// batched engine's own: the batched engine is the one-class case of this
// one. Vertex state becomes per-(class, opinion) counts, and whole
// Theta(n)-interaction chunks advance through one multinomial draw over
// the (state-pair x degree-class) event families. Chunks that overshoot a
// count are halved and redrawn down to m = 1 — a single interaction of
// the annealed chain, which is always exact — so near consensus the
// engine degrades gracefully to the exact per-interaction limit of its
// model, the role pp::GraphScheduler plays for the materialized engine.
// This class only resolves the model and reports its connectivity.
//
// Model and its limits. The aggregation is the *annealed* (mean-field)
// scheduler: each interaction samples responder and initiator
// independently with probability proportional to degree, rather than
// along a fixed edge set. On `complete` this is exactly the
// edge-restricted scheduler's law (up to unproductive self-interactions),
// KS-tested against the per-interaction graph engine. On random regular
// and dense ER topologies it carries the standard O(1/d) mean-field bias:
// the quenched chain is *slower* (local opinion clustering the mean field
// does not see) — measured ~+50% consensus time at d = 8, ~+10% at
// d = 32, and below KS detectability at property-test scale by d = 64
// (tests/test_batched_graph.cpp pins both the dense agreement and the
// sparse bias direction/magnitude; bench_graph_batched records them).
// It deliberately does NOT capture slow mixing from low conductance:
// `cycle` runs at complete-graph speed here. Use the per-interaction
// "graph" engine when the quenched geometry is the point; use this
// engine when degree structure at scale is (see docs/architecture.md).
//
// Sparse er:<p> realizes a zero-degree class (isolated vertices), the
// aggregated analogue of a disconnected topology: such populations never
// reach consensus and the sweep reports them as connected=0 / timeout
// instead of running them (see runner::Sweep).
#pragma once

#include <cstdint>
#include <optional>

#include "core/batched_usd.hpp"
#include "pp/configuration.hpp"
#include "sim/engine.hpp"

namespace kusd::sim {

class BatchedGraphEngine final : public core::BatchedUsdSimulator {
 public:
  /// The model is `options.shared_degrees` when set, otherwise built from
  /// `options.graph` on the topology stream of `seed`; the trial stream
  /// `seed` drives the class split and the dynamics.
  BatchedGraphEngine(const pp::Configuration& initial, std::uint64_t seed,
                     const EngineOptions& options);

  /// The aggregated notion of connectivity: a realized zero-degree class
  /// is the only disconnection an annealed model can express.
  [[nodiscard]] std::optional<bool> topology_connected() const override {
    return !degree_model().has_isolated_vertices();
  }
};

}  // namespace kusd::sim
