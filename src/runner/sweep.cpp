#include "runner/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <utility>

#include "core/budget.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "runner/table.hpp"
#include "runner/task_graph.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace kusd::runner {

const char* to_string(BiasKind kind) {
  switch (kind) {
    case BiasKind::kNone: return "none";
    case BiasKind::kAdditive: return "additive";
    case BiasKind::kMultiplicative: return "multiplicative";
  }
  return "?";
}

std::string to_string(const StartProfile& start) {
  if (start.kind == StartProfile::Kind::kUniform) return "uniform";
  // Shortest round-trip formatting: the spelling in the output schema
  // must parse back to exactly the ratio that ran (0.5 stays "0.5",
  // awkward ratios keep every significant digit).
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof buffer, start.ratio);
  return "geometric:" + std::string(buffer, result.ptr);
}

std::optional<StartProfile> parse_start_profile(const std::string& name) {
  if (name == "uniform") return StartProfile{};
  const std::string prefix = "geometric:";
  if (name.rfind(prefix, 0) == 0) {
    const std::string value = name.substr(prefix.size());
    char* end = nullptr;
    const double ratio = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return std::nullopt;
    if (!(ratio > 0.0 && ratio <= 1.0)) return std::nullopt;
    return StartProfile{StartProfile::Kind::kGeometric, ratio};
  }
  return std::nullopt;
}

namespace {

struct TrialOutcome {
  double parallel_time = 0.0;
  bool converged = false;
  bool plurality_won = false;
};

sim::EngineOptions engine_options(const SweepSpec& spec,
                                  const SweepPoint& point,
                                  const PointTopology& topology) {
  sim::EngineOptions options;
  options.batch.chunk_fraction = spec.batch_chunk_fraction;
  options.batch.policy = spec.batch_policy;
  if (point.graph.has_value()) {
    options.graph = *point.graph;
    if (topology.graph.has_value()) options.shared_graph = &*topology.graph;
    if (topology.degrees.has_value()) {
      options.shared_degrees = &*topology.degrees;
    }
  }
  return options;
}

/// The per-trial native-time cap of this point — what run_one passes to
/// run_to_consensus, and what a short-circuited disconnected point
/// reports as its timeout horizon. The default comes from the engine's
/// published budget (EngineInfo::default_budget), so a short-circuited
/// cell reports the same horizon a simulated trial would have run to;
/// engines that publish nothing default to the asynchronous
/// default_interaction_cap.
std::uint64_t trial_budget(const SweepSpec& spec, const SweepPoint& point) {
  if (spec.max_time != 0) return spec.max_time;
  const sim::EngineInfo* info = sim::Registry::instance().find(point.engine);
  if (info != nullptr && info->default_budget) {
    return info->default_budget(point.n, point.k);
  }
  return core::default_interaction_cap(point.n, point.k);
}

bool starts_at_consensus(const pp::Configuration& x0) {
  for (int i = 0; i < x0.k(); ++i) {
    if (x0.opinion(i) == x0.n()) return true;
  }
  return false;
}

TrialOutcome run_one(const SweepSpec& spec, const SweepPoint& point,
                     const pp::Configuration& x0,
                     const PointTopology& topology, std::uint64_t seed) {
  const auto engine = sim::Registry::instance().create(
      point.engine, x0, seed, engine_options(spec, point, topology));
  TrialOutcome out;
  out.converged = engine->run_to_consensus(
      spec.max_time != 0 ? spec.max_time : engine->default_budget());
  out.parallel_time = engine->parallel_time();
  out.plurality_won =
      out.converged && engine->consensus_opinion() == x0.argmax();
  return out;
}

SweepCell aggregate_cell(const SweepSpec& spec, const SweepPoint& point,
                         const std::vector<TrialOutcome>& outcomes,
                         double wall_seconds) {
  SweepCell cell;
  cell.point = point;
  cell.bias_kind = spec.bias_kind;
  cell.trials = spec.trials;
  cell.parallel_time.reserve(outcomes.size());
  int converged = 0, won = 0;
  for (const auto& o : outcomes) {
    cell.parallel_time.add(o.parallel_time);
    converged += o.converged ? 1 : 0;
    won += o.plurality_won ? 1 : 0;
  }
  const double denom = outcomes.empty() ? 1.0 : static_cast<double>(
                                                    outcomes.size());
  cell.converged_rate = static_cast<double>(converged) / denom;
  cell.plurality_win_rate = static_cast<double>(won) / denom;
  cell.wall_seconds = wall_seconds;
  return cell;
}

/// Per-point execution state, initialized by whichever worker claims the
/// point's first stripe (std::call_once) and read-only to every later
/// stripe; the outcome slots are written stripe-disjointly.
struct PointState {
  std::once_flag once;
  /// What init_point threw; rethrown by every stripe of the point.
  std::exception_ptr init_error;
  std::optional<pp::Configuration> x0;
  PointTopology topology;
  std::uint64_t point_seed = 0;
  /// Disconnected under the default budget: outcomes pre-filled with
  /// timeouts at init, stripes no-op.
  bool short_circuit = false;
  std::vector<TrialOutcome> outcomes;
  util::Stopwatch watch;
};

[[noreturn]] void reject(const std::string& message) {
  throw InputError(message);
}

/// A number as the user would type it: whole values without a fraction.
std::string num(double x) {
  if (x == std::floor(x) && std::fabs(x) < 9007199254740992.0) {
    return std::to_string(static_cast<long long>(x));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", x);
  return buffer;
}

/// The undecided agents of a point at population n (validated spec).
pp::Count undecided_at(const SweepSpec& spec, pp::Count n) {
  // Round (not truncate) so a fraction built from an absolute count
  // round-trips exactly: (u / n) * n == u.
  return spec.undecided.value_or(static_cast<pp::Count>(
      std::llround(spec.undecided_fraction * static_cast<double>(n))));
}

void validate_graph(const sim::GraphSpec& graph, pp::Count n) {
  const std::string flag = "--graph " + sim::to_string(graph) + " needs ";
  const std::string at_n = " (n = " + std::to_string(n) + ")";
  const auto d = static_cast<pp::Count>(graph.degree);
  const double p = graph.edge_probability;
  if (n < 2) reject(flag + "--n of at least 2");
  if (graph.kind == sim::GraphSpec::Kind::kRegular && (d < 1 || d >= n)) {
    reject(flag + "1 <= d < n" + at_n);
  }
  if (graph.kind == sim::GraphSpec::Kind::kRegular && n * d % 2 != 0) {
    reject(flag + "n * d even" + at_n);
  }
  if (graph.kind == sim::GraphSpec::Kind::kErdosRenyi &&
      !(p == 0.0 || (p > 0.0 && p <= 1.0))) {
    reject(flag + "p in (0, 1] or er:auto");
  }
}

}  // namespace

void validate_point(const SweepSpec& spec, const SweepPoint& point) {
  if (spec.trials < 0) reject("--trials must not be negative");
  if (spec.stripe_width < 1) reject("--stripe-width must be at least 1");
  const auto& registry = sim::Registry::instance();
  const sim::EngineInfo* info = registry.find(point.engine);
  if (info == nullptr) {
    reject("unknown engine '" + point.engine +
           "' (registered: " + registry.names_joined() + ")");
  }
  std::string graph_engines;
  bool any_graph_engine = false;
  for (const auto& name : registry.names()) {
    if (!registry.find(name)->uses_graph_axis) continue;
    graph_engines += (graph_engines.empty() ? "" : ", ") + name;
    any_graph_engine = any_graph_engine || std::count(spec.engines.begin(),
                                                      spec.engines.end(), name);
  }
  if (!any_graph_engine &&
      spec.graphs != std::vector<sim::GraphSpec>{sim::GraphSpec{}}) {
    reject("--graph requires a topology-taking engine (" + graph_engines +
           ")");
  }
  const pp::Count n = point.n;
  if (info->max_n != 0 && n > info->max_n) {
    reject("--n " + std::to_string(n) + " exceeds the " + point.engine +
           " engine's limit of " + std::to_string(info->max_n));
  }
  if (info->uses_chunk_options &&
      !(spec.batch_chunk_fraction > 0.0 && spec.batch_chunk_fraction <= 1.0)) {
    reject("--chunk " + num(spec.batch_chunk_fraction) +
           " must be in (0, 1] for the " + point.engine + " engine");
  }
  if (point.graph.has_value()) validate_graph(*point.graph, n);

  // The undecided agents: an absolute --undecided count, or --ufrac.
  std::string undecided_flag;
  if (spec.undecided.has_value()) {
    undecided_flag = "--undecided " + std::to_string(*spec.undecided);
    if (spec.ns.size() != 1 || spec.undecided_fraction != 0.0) {
      reject("--undecided needs a single --n and excludes --ufrac; use "
             "--ufrac for n grids");
    }
    if (*spec.undecided > n) {
      reject(undecided_flag + " exceeds --n " + std::to_string(n));
    }
  } else {
    undecided_flag = "--ufrac " + num(spec.undecided_fraction);
    if (!(spec.undecided_fraction >= 0.0 && spec.undecided_fraction < 1.0)) {
      reject(undecided_flag + " must be in [0, 1)");
    }
  }
  const pp::Count decided = n - undecided_at(spec, n);
  if (decided == 0) {
    reject(undecided_flag + " leaves no decided agent at n = " +
           std::to_string(n) +
           "; an all-undecided population never converges");
  }
  if (decided != n && info->requires_decided_start) {
    reject("the " + point.engine + " engine requires " +
           undecided_flag.substr(0, undecided_flag.find(' ')) + " 0");
  }

  if (point.start.kind == StartProfile::Kind::kGeometric &&
      spec.bias_kind != BiasKind::kNone) {
    reject("--start " + to_string(point.start) +
           " shapes its own support and excludes --bias " +
           to_string(spec.bias_kind));
  }
  if (spec.bias_kind != BiasKind::kNone && point.k < 2) {
    reject(std::string("--bias ") + to_string(spec.bias_kind) +
           " needs --k of at least 2");
  }
  const double bias = point.bias;
  const auto d = static_cast<double>(decided);
  if (spec.bias_kind == BiasKind::kAdditive) {
    if (!(bias >= 0.0 && bias == std::floor(bias))) {
      reject("--beta " + num(bias) + " must be a whole number of agents");
    }
    if (bias > d) {
      reject("--beta " + num(bias) + " exceeds the " +
             std::to_string(decided) + " decided agents");
    }
  } else if (spec.bias_kind == BiasKind::kMultiplicative) {
    if (!(std::isfinite(bias) && bias > 1.0)) {
      reject("--alpha must exceed 1 (got " + num(bias) + ")");
    }
    // Every minority opinion needs at least one agent:
    // floor(decided / (alpha + k - 1)) >= 1.
    if (d < bias + static_cast<double>(point.k - 1)) {
      reject("--alpha " + num(bias) + " over --k " + std::to_string(point.k) +
             " needs at least alpha + k - 1 decided agents (have " +
             std::to_string(decided) + ")");
    }
  }
}

PointTopology realize_topology(const std::string& engine,
                               const sim::GraphSpec& graph, pp::Count n,
                               std::uint64_t seed) {
  PointTopology out;
  const sim::EngineInfo* info = sim::Registry::instance().find(engine);
  if (info == nullptr || !info->uses_graph_axis) return out;
  rng::Rng topology_rng(rng::stream_seed(seed, sim::kTopologyStream));
  bool empty = false;
  if (info->aggregated_topology) {
    // Aggregated engines get a degree-class model — never a
    // materialized edge set, which is exactly what their n >= 1e8 sweeps
    // cannot afford — with the summary columns computed analytically.
    out.degrees = sim::degree_class_model(graph, n, topology_rng);
    out.edges = static_cast<std::uint64_t>(
        std::llround(out.degrees->expected_edges()));
    out.connected = !out.degrees->has_isolated_vertices();
    empty = out.degrees->total_degree() == 0.0;
  } else {
    // validate_point has ruled out every other failure of build_graph:
    // what is left is a G(n, p) that came out without an edge.
    try {
      out.graph = sim::build_graph(graph, n, topology_rng);
      out.edges = out.graph->num_edges();
      out.connected = out.graph->is_connected();
    } catch (const util::CheckError&) {
      empty = true;
    }
  }
  if (empty) {
    reject("--graph " + sim::to_string(graph) + " realized no edge at n = " +
           std::to_string(n) + "; raise p");
  }
  return out;
}

Sweep::Sweep(SweepSpec spec) : spec_(std::move(spec)) {
  const auto points = grid();
  KUSD_CHECK_MSG(!points.empty(), "sweep: every axis needs at least one value");
  // Validate and build every grid point's initial configuration now, so
  // an infeasible (engine, graph, n, k, start, bias) combination fails
  // here instead of mid-grid after other points already streamed.
  for (const auto& point : points) {
    validate_point(spec_, point);
    (void)initial_configuration(point);
  }
}

pp::Configuration Sweep::initial_configuration(const SweepPoint& p) const {
  const pp::Count undecided = undecided_at(spec_, p.n);
  if (p.start.kind == StartProfile::Kind::kGeometric) {
    // Validated: geometric starts only combine with kNone.
    return pp::Configuration::geometric(p.n, p.k, undecided, p.start.ratio);
  }
  switch (spec_.bias_kind) {
    case BiasKind::kNone:
      return pp::Configuration::uniform(p.n, p.k, undecided);
    case BiasKind::kAdditive:
      return pp::Configuration::with_additive_bias(
          p.n, p.k, undecided, static_cast<pp::Count>(p.bias));
    case BiasKind::kMultiplicative:
      return pp::Configuration::with_multiplicative_bias(p.n, p.k, undecided,
                                                         p.bias);
  }
  KUSD_CHECK_MSG(false, "unreachable bias kind");
}

std::vector<SweepPoint> Sweep::grid() const {
  // With no bias, the bias axis is a single implicit point — listing
  // several values would just duplicate work. Likewise the graph axis
  // multiplies only engines that take a topology.
  const std::size_t bias_points =
      spec_.bias_kind == BiasKind::kNone ? 1 : spec_.bias_values.size();
  const auto& registry = sim::Registry::instance();
  std::vector<SweepPoint> points;
  std::size_t index = 0;
  for (const auto& engine : spec_.engines) {
    const sim::EngineInfo* info = registry.find(engine);
    const bool graph_axis = info != nullptr && info->uses_graph_axis;
    const std::size_t graph_points = graph_axis ? spec_.graphs.size() : 1;
    for (std::size_t g = 0; g < graph_points; ++g) {
      for (const auto n : spec_.ns) {
        for (const auto k : spec_.ks) {
          for (const auto& start : spec_.starts) {
            for (std::size_t b = 0; b < bias_points; ++b) {
              const double bias = spec_.bias_kind == BiasKind::kNone
                                      ? 0.0
                                      : spec_.bias_values[b];
              points.push_back(SweepPoint{
                  engine,
                  graph_axis ? std::optional<sim::GraphSpec>(spec_.graphs[g])
                             : std::nullopt,
                  n, k, start, bias, index++});
            }
          }
        }
      }
    }
  }
  return points;
}

SweepCell Sweep::run_point(const SweepPoint& point) const {
  util::ThreadPool pool(spec_.threads);
  return run_point(pool, point);
}

SweepCell Sweep::run_point(util::ThreadPool& pool,
                           const SweepPoint& point) const {
  // The single-point form goes through the same task-graph path as whole
  // grids — one code path is what keeps cell bytes identical everywhere.
  std::optional<SweepCell> cell;
  run_points_on(pool, {point},
                [&cell](const SweepCell& c) { cell = c; });
  return *std::move(cell);
}

void Sweep::run(const std::function<void(const SweepCell&)>& on_cell) const {
  // One pool for the whole grid: workers are not respawned per point.
  util::ThreadPool pool(spec_.threads);
  run_points_on(pool, grid(), on_cell);
}

void Sweep::run_selected(
    const std::vector<std::size_t>& indices,
    const std::function<void(const SweepCell&)>& on_cell) const {
  const auto all = grid();
  std::vector<SweepPoint> points;
  points.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    KUSD_CHECK_MSG(indices[i] < all.size(),
                   "sweep: selected grid index out of range");
    KUSD_CHECK_MSG(i == 0 || indices[i] > indices[i - 1],
                   "sweep: selected grid indices must be strictly increasing");
    points.push_back(all[indices[i]]);
  }
  util::ThreadPool pool(spec_.threads);
  run_points_on(pool, points, on_cell);
}

void Sweep::run_points_on(
    util::ThreadPool& pool, const std::vector<SweepPoint>& points,
    const std::function<void(const SweepCell&)>& on_cell) const {
  if (points.empty()) return;
  const auto trials = static_cast<std::size_t>(spec_.trials);
  const std::size_t width = spec_.stripe_width;
  const auto stripes_per_point = static_cast<std::uint32_t>(
      trials == 0 ? 1 : (trials + width - 1) / width);

  // Stripe counts are a pure function of the spec — never of realized
  // topology or results — so the unit list is deterministic.
  std::vector<std::uint32_t> stripes(points.size(), stripes_per_point);

  std::vector<std::size_t> order;
  if (spec_.shuffle_points) {
    // The execution order is itself a seeded derivation (the all-ones
    // stream id cannot collide with a grid index), so shuffled sweeps are
    // as reproducible as ordered ones — and output order is unaffected:
    // emission below is by list position, not completion order.
    order.resize(points.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng::Rng shuffle_rng(
        rng::stream_seed(spec_.master_seed, ~std::uint64_t{0}));
    shuffle_rng.shuffle(std::span<std::size_t>(order));
  }

  const TaskGraph graph(std::move(stripes), std::move(order));
  const auto states = std::make_unique<PointState[]>(points.size());

  const auto init_point = [&](const SweepPoint& point, PointState& st) {
    st.watch.reset();
    st.point_seed = rng::stream_seed(spec_.master_seed, point.index);
    // One deterministic topology per grid point, shared read-only by every
    // trial regardless of thread placement.
    if (point.graph.has_value()) {
      st.topology = realize_topology(point.engine, *point.graph, point.n,
                                     st.point_seed);
    }
    st.x0 = initial_configuration(point);
    st.outcomes.resize(trials);
    if (st.topology.connected.has_value() && !*st.topology.connected &&
        spec_.max_time == 0 && !starts_at_consensus(*st.x0)) {
      // Disconnected topology under the *default* budget: global
      // consensus needs every component (including each isolated vertex)
      // to align by coincidence, so most trials would grind through the
      // enormous default cap — the de-facto hang this guard exists for.
      // Record the trials as timeouts at that cap instead of simulating.
      // An explicit --budget bounds the cost the user signed up for, so
      // those sweeps run honestly and *measure* the coincidental-
      // consensus rate rather than hardcoding it to zero.
      TrialOutcome out;
      out.parallel_time = static_cast<double>(trial_budget(spec_, point)) /
                          static_cast<double>(point.n);
      std::fill(st.outcomes.begin(), st.outcomes.end(), out);
      st.short_circuit = true;
    }
  };

  const auto run_stripe = [&](const TaskUnit& unit) {
    const SweepPoint& point = points[unit.item];
    PointState& st = states[unit.item];
    // init_point's exception is carried out of call_once, not thrown
    // through it: libstdc++'s call_once can leave the other stripes of the
    // point waiting forever when its callable throws.
    std::call_once(st.once, [&] {
      try {
        init_point(point, st);
      } catch (...) {
        st.init_error = std::current_exception();
      }
    });
    if (st.init_error) std::rethrow_exception(st.init_error);
    if (st.short_circuit || trials == 0) return;
    const std::size_t begin = unit.stripe * width;
    const std::size_t end = std::min(begin + width, trials);
    for (std::size_t t = begin; t < end; ++t) {
      st.outcomes[t] = run_one(spec_, point, *st.x0, st.topology,
                               rng::stream_seed(st.point_seed, t));
    }
  };

  // Completed cells are buffered and the contiguous done prefix is
  // emitted under the mutex (so the callback never runs concurrently
  // with itself): output order and content are those of a sequential
  // run, byte for byte, at any thread count and stripe width.
  std::mutex mu;
  std::vector<std::optional<SweepCell>> done(points.size());
  std::size_t next_emit = 0;
  const auto on_point_done = [&](std::size_t item) {
    PointState& st = states[item];
    auto cell =
        aggregate_cell(spec_, points[item], st.outcomes, st.watch.seconds());
    cell.graph_edges = st.topology.edges;
    cell.connected = st.topology.connected;
    if (st.short_circuit) cell.status = "timeout";
    // Drop the point's working set before buffering the cell: on wide
    // grids the emission buffer would otherwise pin every outcome vector
    // until its cell reaches the front of the done prefix.
    st.outcomes = std::vector<TrialOutcome>();
    st.x0.reset();

    const std::lock_guard<std::mutex> lock(mu);
    done[item] = std::move(cell);
    while (next_emit < done.size() && done[next_emit].has_value()) {
      // Consume the slot before invoking the callback: if on_cell throws
      // (the exception resurfaces from TaskGraph::run), later items must
      // not re-emit the same cell.
      const SweepCell next = *std::move(done[next_emit]);
      done[next_emit].reset();
      ++next_emit;
      on_cell(next);
    }
  };

  graph.run(pool, run_stripe, on_point_done);
}

std::vector<std::string> Sweep::csv_header() {
  return {"engine",
          "graph",
          "graph_edges",
          "connected",
          "n",
          "k",
          "start",
          "bias_kind",
          "bias",
          "trials",
          "status",
          "converged_rate",
          "plurality_win_rate",
          "pt_mean",
          "pt_stddev",
          "pt_median",
          "pt_p95"};
}

std::vector<std::string> Sweep::csv_row(const SweepCell& cell) {
  const auto& pt = cell.parallel_time;
  return {cell.point.engine,
          cell.point.graph.has_value() ? sim::to_string(*cell.point.graph)
                                       : "-",
          cell.graph_edges.has_value() ? std::to_string(*cell.graph_edges)
                                       : "-",
          cell.connected.has_value() ? (*cell.connected ? "1" : "0") : "-",
          std::to_string(cell.point.n),
          std::to_string(cell.point.k),
          to_string(cell.point.start),
          to_string(cell.bias_kind),
          fmt(cell.point.bias, 6),
          std::to_string(cell.trials),
          cell.status,
          fmt(cell.converged_rate, 4),
          fmt(cell.plurality_win_rate, 4),
          fmt(pt.empty() ? 0.0 : pt.mean(), 4),
          fmt(pt.empty() ? 0.0 : pt.stddev(), 4),
          fmt(pt.empty() ? 0.0 : pt.median(), 4),
          fmt(pt.empty() ? 0.0 : pt.quantile(0.95), 4)};
}

std::string Sweep::json_line(const SweepCell& cell) {
  return json_line(csv_row(cell));
}

std::string Sweep::json_line(const std::vector<std::string>& row) {
  const auto header = csv_header();
  KUSD_CHECK_MSG(row.size() == header.size(),
                 "sweep: json_line row width does not match the schema");
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << header[i] << "\":";
    // engine, graph, start, bias_kind and status are name spellings;
    // graph_edges and connected are numeric when present and null for
    // engines without a graph axis (CSV spells that "-"); everything
    // else is numeric.
    if (header[i] == "engine" || header[i] == "graph" ||
        header[i] == "start" || header[i] == "bias_kind" ||
        header[i] == "status") {
      os << '"' << row[i] << '"';
    } else if ((header[i] == "graph_edges" || header[i] == "connected") &&
               row[i] == "-") {
      os << "null";
    } else {
      os << row[i];
    }
  }
  os << '}';
  return os.str();
}

}  // namespace kusd::runner
