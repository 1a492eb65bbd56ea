#include "sim/batched_graph_engine.hpp"

#include "core/batched_usd.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "sim/graph_spec.hpp"

namespace kusd::sim {

namespace {

pp::DegreeClassModel resolve_model(const EngineOptions& options, pp::Count n,
                                   std::uint64_t seed) {
  if (options.shared_degrees != nullptr) return *options.shared_degrees;
  // Same stream discipline as the materialized graph engine: topology
  // aggregation gets its own stream so the trial stream drives the same
  // dynamics on a shared or an owned copy of the same model.
  rng::Rng topology_rng(rng::stream_seed(seed, kTopologyStream));
  return degree_class_model(options.graph, n, topology_rng);
}

}  // namespace

BatchedGraphEngine::BatchedGraphEngine(const pp::Configuration& initial,
                                       std::uint64_t seed,
                                       const EngineOptions& options)
    : core::BatchedUsdSimulator(initial,
                                resolve_model(options, initial.n(), seed),
                                rng::Rng(seed), options.batch) {}

}  // namespace kusd::sim
