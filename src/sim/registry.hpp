// String-keyed engine factory.
//
// The Registry maps an engine name — the spelling used by `--engine`, the
// sweep's `engine` CSV/JSONL column, and RunOptions::engine — to a factory
// plus the metadata the drivers need to validate a request upfront
// (population caps, start-profile constraints, which option groups the
// engine reads). A factory returns the simulator itself, a core::Engine.
// All engine construction in runner::run_usd, runner::Sweep and kusd_cli
// goes through here; there is no per-engine switch anywhere above the
// factories.
//
// Registering an engine (any core::Engine subclass):
//
//   sim::Registry::instance().add("my-engine", {
//       .factory = [](const pp::Configuration& x0, std::uint64_t seed,
//                     const sim::EngineOptions& options) {
//         return std::make_unique<MyEngine>(x0, seed, options);
//       },
//       .description = "one-line summary for --help and docs",
//   });
//
// after which `kusd run/sweep --engine my-engine` and RunOptions::engine =
// "my-engine" work with no further changes. Registration is not
// thread-safe against concurrent create(); register at startup.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "sim/engine.hpp"

namespace kusd::sim {

struct EngineInfo {
  std::function<std::unique_ptr<core::Engine>(
      const pp::Configuration& initial, std::uint64_t seed,
      const EngineOptions& options)>
      factory;
  std::string description;
  /// The generous native-time cap Engine::default_budget() would return
  /// for an (n, k) population, published statically so drivers can report
  /// a budget without constructing (or running) an engine — e.g. the
  /// sweep's disconnected short-circuit records its timeout horizon from
  /// here. Unset falls back to core::default_interaction_cap.
  std::function<std::uint64_t(pp::Count n, int k)> default_budget;
  /// Largest supported population (0 = unlimited). The per-interaction
  /// and graph engines cap n below 2^32.
  pp::Count max_n = 0;
  /// The engine rejects configurations with undecided agents (sync).
  bool requires_decided_start = false;
  /// The engine reads EngineOptions::graph / shared_graph, so it
  /// participates in the sweep's `--graph` topology axis.
  bool uses_graph_axis = false;
  /// The engine reads EngineOptions::batch (chunk schedule).
  bool uses_chunk_options = false;
  /// The engine serves its `--graph` axis through degree-class
  /// aggregation (EngineOptions::shared_degrees, a pp::DegreeClassModel)
  /// and never materializes an edge set — so sweeps must not build one
  /// either (a materialized topology is Theta(n * d) memory; the whole
  /// point of an aggregated engine is to run where that is impossible).
  bool aggregated_topology = false;
};

class Registry {
 public:
  /// A fresh registry pre-populated with the built-in engines (every,
  /// skip, batched, sync, gossip, graph, graph-batched).
  Registry();

  /// The process-wide registry used by run_usd / Sweep / the CLI.
  static Registry& instance();

  /// Throws util::CheckError on an empty name, a duplicate, or a missing
  /// factory.
  void add(std::string name, EngineInfo info);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// nullptr when the name is unknown.
  [[nodiscard]] const EngineInfo* find(const std::string& name) const;
  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// The names() list joined with commas (for error messages / usage).
  [[nodiscard]] std::string names_joined() const;

  /// Construct an engine. Throws util::CheckError for unknown names (and
  /// whatever the engine's own validation throws).
  [[nodiscard]] std::unique_ptr<core::Engine> create(
      const std::string& name, const pp::Configuration& initial,
      std::uint64_t seed, const EngineOptions& options = {}) const;

 private:
  std::map<std::string, EngineInfo> engines_;
};

}  // namespace kusd::sim
