// Shared pieces of the benchmark's two programs (serial.cpp, trace.cpp):
// the workload flags, and the plain serial pass over a sweep's trials.
//
// Both programs take the workload as the same `--key value` flags run.py
// hands to `kusd sweep`, and every work-deciding flag is required, so a
// changed library default can never change what a workload runs.
//
// The serial pass is the benchmark's HPC baseline: one thread, the same
// grid points, configurations, topologies, seeds and budgets as the sweep,
// but engines come straight from sim::Registry and run through
// Engine::run_to_consensus, with no runner scheduling. Its cells are
// rebuilt into rows with runner::Sweep::csv_row so the benchmark can check
// them byte for byte against the sweep's output.
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chunk_controller.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "runner/sweep.hpp"
#include "sim/batched_graph_engine.hpp"
#include "sim/engine.hpp"
#include "sim/graph_spec.hpp"
#include "sim/registry.hpp"

namespace kusdbench {

namespace kr = kusd::runner;
namespace ks = kusd::sim;
namespace kp = kusd::pp;

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide origin: the timestamps of every span.
inline std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

[[noreturn]] inline void fail(const std::string& message) {
  throw std::runtime_error(message);
}

/// `--key value` pairs; a key outside `known` or a missing value fails.
inline std::map<std::string, std::string> parse_flags(
    int argc, char** argv, const std::set<std::string>& known) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || known.count(key.substr(2)) == 0) {
      fail("unknown flag " + key);
    }
    if (i + 1 >= argc) fail("flag " + key + " needs a value");
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

/// The workload flags every program accepts (the `kusd sweep` spelling).
inline const std::set<std::string>& spec_flags() {
  static const std::set<std::string> flags = {
      "engine", "graph",  "n",     "k",     "bias",         "beta",
      "trials", "seed",   "threads", "chunk", "chunk-policy",
      "stripe-width",     "budget"};
  return flags;
}

inline std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) items.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

inline double parse_number(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') fail("not a number: " + text);
  return value;
}

/// Whole numbers in [0, 2^53], scientific notation accepted ("1e8").
inline std::uint64_t parse_count(const std::string& text) {
  const double value = parse_number(text);
  if (!(value >= 0.0 && value <= 9007199254740992.0) ||
      value != std::floor(value)) {
    fail("not a whole number: " + text);
  }
  return static_cast<std::uint64_t>(value);
}

/// A full-range unsigned 64-bit integer (seeds), decimal digits only.
inline std::uint64_t parse_u64(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    fail("not an unsigned 64-bit integer: " + text);
  }
  return value;
}

inline const std::string& required(
    const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) fail("missing required flag --" + key);
  return it->second;
}

/// The sweep spec of a workload. Every work-deciding option is required;
/// `--graph` only for topology-taking engines, `--beta` only with
/// `--bias additive`.
inline kr::SweepSpec parse_spec(
    const std::map<std::string, std::string>& flags) {
  kr::SweepSpec spec;
  spec.engines = split_list(required(flags, "engine"));
  spec.ns.clear();
  for (const auto& item : split_list(required(flags, "n"))) {
    spec.ns.push_back(parse_count(item));
  }
  spec.ks.clear();
  for (const auto& item : split_list(required(flags, "k"))) {
    spec.ks.push_back(static_cast<int>(parse_count(item)));
  }
  const std::string& bias = required(flags, "bias");
  if (bias == "additive") {
    spec.bias_kind = kr::BiasKind::kAdditive;
    spec.bias_values.clear();
    for (const auto& item : split_list(required(flags, "beta"))) {
      spec.bias_values.push_back(parse_number(item));
    }
  } else if (bias != "none") {
    fail("--bias must be none or additive");
  }
  bool graph_engine = false;
  for (const auto& name : spec.engines) {
    const ks::EngineInfo* info = ks::Registry::instance().find(name);
    if (info == nullptr) fail("unknown engine " + name);
    if (info->uses_graph_axis && !info->aggregated_topology) {
      fail("engine " + name + ": only aggregated topologies are supported");
    }
    graph_engine = graph_engine || info->uses_graph_axis;
  }
  if (graph_engine) {
    spec.graphs.clear();
    for (const auto& item : split_list(required(flags, "graph"))) {
      const auto graph = ks::parse_graph_spec(item);
      if (!graph) fail("bad graph spec " + item);
      spec.graphs.push_back(*graph);
    }
  }
  spec.trials = static_cast<int>(parse_count(required(flags, "trials")));
  spec.master_seed = parse_u64(required(flags, "seed"));
  spec.threads = parse_count(required(flags, "threads"));
  spec.batch_chunk_fraction = parse_number(required(flags, "chunk"));
  const auto policy =
      kusd::core::parse_chunk_policy(required(flags, "chunk-policy"));
  if (!policy) fail("bad --chunk-policy");
  spec.batch_policy = *policy;
  spec.stripe_width = parse_count(required(flags, "stripe-width"));
  spec.max_time = parse_count(required(flags, "budget"));
  if (spec.max_time == 0) fail("--budget must be explicit (> 0)");
  return spec;
}

/// The point's initial configuration, as runner::Sweep builds it (no
/// undecided agents; uniform or additive-bias support).
inline kp::Configuration point_config(const kr::SweepSpec& spec,
                                      const kr::SweepPoint& point) {
  if (spec.bias_kind == kr::BiasKind::kAdditive) {
    return kp::Configuration::with_additive_bias(
        point.n, point.k, 0, static_cast<kp::Count>(point.bias));
  }
  return kp::Configuration::uniform(point.n, point.k, 0);
}

/// The point's degree-class model, realized from the point's topology
/// stream exactly as the sweep realizes it (graph-axis points only).
inline std::optional<kp::DegreeClassModel> point_degrees(
    const kr::SweepPoint& point, std::uint64_t point_seed) {
  if (!point.graph.has_value()) return std::nullopt;
  kusd::rng::Rng topology_rng(
      kusd::rng::stream_seed(point_seed, ks::kTopologyStream));
  return ks::degree_class_model(*point.graph, point.n, topology_rng);
}

inline ks::EngineOptions point_options(
    const kr::SweepSpec& spec, const kr::SweepPoint& point,
    const std::optional<kp::DegreeClassModel>& degrees) {
  ks::EngineOptions options;
  options.batch.chunk_fraction = spec.batch_chunk_fraction;
  options.batch.policy = spec.batch_policy;
  if (point.graph.has_value()) options.graph = *point.graph;
  if (degrees.has_value()) options.shared_degrees = &*degrees;
  return options;
}

/// One trial of the serial pass: its outcome, its end state (for the
/// traced replica's identity check) and its timestamps.
struct TrialRecord {
  std::uint64_t seed = 0;
  std::int64_t start_ns = 0;
  std::int64_t created_ns = 0;  ///< after Registry::create
  std::int64_t end_ns = 0;      ///< after run_to_consensus
  bool converged = false;
  bool plurality_won = false;
  double parallel_time = 0.0;
  std::uint64_t elapsed = 0;
  std::vector<kp::Count> counts;
  kp::Count undecided = 0;
  /// graph-batched only: chunks drawn and the class-major end state.
  std::uint64_t chunks = 0;
  std::vector<kp::Count> class_counts;
};

struct PointRecord {
  kr::SweepPoint point;
  std::uint64_t point_seed = 0;
  std::int64_t start_ns = 0;
  std::int64_t config_end_ns = 0;
  std::int64_t topology_end_ns = 0;
  std::int64_t trials_end_ns = 0;
  std::int64_t end_ns = 0;  ///< after the cell's row is built
  std::size_t degree_classes = 0;
  std::vector<TrialRecord> trials;
  std::vector<std::string> row;
};

struct SerialPass {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<PointRecord> points;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// The plain serial loop: every grid point in grid order, every trial with
/// the sweep's seed derivation (point seed from the master seed and grid
/// index, trial seed from the point seed and trial index).
inline SerialPass run_serial(const kr::SweepSpec& spec,
                             const std::vector<kr::SweepPoint>& grid) {
  const auto& registry = ks::Registry::instance();
  SerialPass pass;
  pass.points.reserve(grid.size());
  pass.start_ns = now_ns();
  for (const auto& point : grid) {
    PointRecord rec;
    rec.point = point;
    rec.start_ns = now_ns();
    rec.point_seed = kusd::rng::stream_seed(spec.master_seed, point.index);
    const kp::Configuration x0 = point_config(spec, point);
    rec.config_end_ns = now_ns();
    const auto degrees = point_degrees(point, rec.point_seed);
    rec.topology_end_ns = now_ns();
    if (degrees.has_value()) rec.degree_classes = degrees->num_classes();
    const ks::EngineOptions options = point_options(spec, point, degrees);
    const int plurality = x0.argmax();

    rec.trials.resize(static_cast<std::size_t>(spec.trials));
    for (std::size_t t = 0; t < rec.trials.size(); ++t) {
      TrialRecord& tr = rec.trials[t];
      tr.seed = kusd::rng::stream_seed(rec.point_seed, t);
      tr.start_ns = now_ns();
      const auto engine = registry.create(point.engine, x0, tr.seed, options);
      tr.created_ns = now_ns();
      tr.converged = engine->run_to_consensus(spec.max_time);
      tr.end_ns = now_ns();
      tr.parallel_time = engine->parallel_time();
      tr.plurality_won =
          tr.converged && engine->consensus_opinion() == plurality;
      tr.elapsed = engine->elapsed();
      tr.counts.assign(engine->counts().begin(), engine->counts().end());
      tr.undecided = engine->undecided();
      if (const auto* graph =
              dynamic_cast<const ks::BatchedGraphEngine*>(engine.get())) {
        tr.chunks = graph->chunks();
        tr.class_counts.assign(graph->class_counts().begin(),
                               graph->class_counts().end());
        tr.class_counts.insert(tr.class_counts.end(),
                               graph->class_undecided().begin(),
                               graph->class_undecided().end());
      }
    }
    rec.trials_end_ns = now_ns();

    kr::SweepCell cell;
    cell.point = point;
    cell.bias_kind = spec.bias_kind;
    cell.trials = spec.trials;
    if (degrees.has_value()) {
      cell.graph_edges =
          static_cast<std::uint64_t>(std::llround(degrees->expected_edges()));
      cell.connected = !degrees->has_isolated_vertices();
    }
    int converged = 0, won = 0;
    for (const auto& tr : rec.trials) {
      cell.parallel_time.add(tr.parallel_time);
      converged += tr.converged ? 1 : 0;
      won += tr.plurality_won ? 1 : 0;
    }
    const double denom =
        rec.trials.empty() ? 1.0 : static_cast<double>(rec.trials.size());
    cell.converged_rate = static_cast<double>(converged) / denom;
    cell.plurality_win_rate = static_cast<double>(won) / denom;
    rec.row = kr::Sweep::csv_row(cell);
    rec.end_ns = now_ns();
    pass.points.push_back(std::move(rec));
  }
  pass.end_ns = now_ns();
  return pass;
}

}  // namespace kusdbench
