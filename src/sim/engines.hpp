// Registration of the built-in engines.
//
// The registry factories construct the simulators themselves — each of
// core::UsdSimulator ("every", "skip"), core::BatchedUsdSimulator
// ("batched"), core::SyncUsd ("sync"), gossip::GossipUsd ("gossip"),
// GraphUsdEngine ("graph", over pp::GraphScheduler) and BatchedGraphEngine
// ("graph-batched") is a core::Engine — so a registry-created engine and
// a directly constructed simulator with the same seed produce identical
// trajectories.
#pragma once

#include "sim/registry.hpp"

namespace kusd::sim {

/// Register the built-in engines (every, skip, batched, sync, gossip,
/// graph, graph-batched) into `registry`. Called once by the Registry
/// constructor.
void register_builtin_engines(Registry& registry);

}  // namespace kusd::sim
