#include "runner/run.hpp"

#include <span>

#include "core/bias.hpp"
#include "core/budget.hpp"
#include "pp/configuration.hpp"
#include "runner/sweep.hpp"
#include "sim/registry.hpp"

namespace kusd::runner {

RunResult run_usd(const pp::Configuration& initial, std::uint64_t seed,
                  RunOptions options) {
  RunResult result;
  result.initial_plurality = initial.argmax();

  // The topology is realized here, as the sweep realizes it, so an
  // edgeless realization is an InputError naming --graph.
  const PointTopology topology =
      realize_topology(options.engine, options.graph, initial.n(), seed);
  sim::EngineOptions engine_options;
  engine_options.batch = options.batch;
  engine_options.graph = options.graph;
  if (topology.graph) engine_options.shared_graph = &*topology.graph;
  if (topology.degrees) engine_options.shared_degrees = &*topology.degrees;
  const auto engine = sim::Registry::instance().create(
      options.engine, initial, seed, engine_options);

  const std::uint64_t cap = options.max_interactions != 0
                                ? options.max_interactions
                                : engine->default_budget();
  // A disconnected topology cannot reach global consensus except by
  // per-component coincidence, so a default-budget run would grind
  // through the whole generous cap — the same de-facto hang the sweep
  // short-circuits. Report the run as the timeout it would have been
  // (parity with runner::Sweep: an explicit cap runs honestly, and a
  // configuration already at consensus is exempt).
  if (options.max_interactions == 0 &&
      !engine->topology_connected().value_or(true) && !engine->is_consensus()) {
    result.interactions = cap;
    result.parallel_time =
        static_cast<double>(cap) / static_cast<double>(initial.n());
    return result;
  }
  if (options.track_phases) {
    core::PhaseTracker tracker(initial.n(), options.alpha);
    const std::uint64_t interval = options.observe_interval != 0
                                       ? options.observe_interval
                                       : engine->default_observe_interval();
    result.converged = engine->run_observed(
        cap, interval,
        [&tracker](std::uint64_t t, std::span<const pp::Count> opinions,
                   pp::Count undecided) {
          tracker.observe(t, opinions, undecided);
        });
    result.phases = tracker.times();
  } else {
    result.converged = engine->run_to_consensus(cap);
  }

  result.interactions = engine->elapsed();
  result.parallel_time = engine->parallel_time();
  if (result.converged) {
    result.winner = engine->consensus_opinion();
    result.plurality_won = result.winner == result.initial_plurality;
    result.winner_initially_significant =
        core::is_significant(initial, result.winner, options.alpha);
  }
  return result;
}

}  // namespace kusd::runner
