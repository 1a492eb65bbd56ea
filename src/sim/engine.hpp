// Per-engine construction options, passed through sim::Registry::create.
//
// The engine interface itself and its driver loops are core::Engine
// (core/engine.hpp); the simulators implement it directly. This header
// holds only the options struct the registry factories read, which
// mentions sim-layer types (GraphSpec, the shared topologies) that core
// does not know about.
#pragma once

#include "core/chunk_controller.hpp"
#include "sim/graph_spec.hpp"

namespace kusd::pp {
class DegreeClassModel;
class InteractionGraph;
}  // namespace kusd::pp

namespace kusd::sim {

/// Per-engine knobs, passed through Registry::create. Engines read only
/// the fields that concern them and ignore the rest, so one options
/// struct serves every registry entry.
struct EngineOptions {
  /// Chunk schedule of the batched engines.
  core::ChunkOptions batch;
  /// Topology of the graph engines (ignored when shared_graph /
  /// shared_degrees is set, except that callers should keep the two
  /// consistent for reporting).
  GraphSpec graph;
  /// Pre-built topology for the "graph" engine, not owned: a sweep builds
  /// the graph once per grid point and shares it across trials. Must have
  /// exactly n vertices. nullptr = the engine builds its own from `graph`
  /// with a seed-derived stream.
  const pp::InteractionGraph* shared_graph = nullptr;
  /// Pre-built degree-class aggregation for aggregated graph engines
  /// ("graph-batched"), not owned; the sweep's analogue of shared_graph
  /// for engines that never materialize an edge set. Must cover exactly n
  /// vertices. nullptr = the engine aggregates its own from `graph` with
  /// a seed-derived stream.
  const pp::DegreeClassModel* shared_degrees = nullptr;
};

}  // namespace kusd::sim
