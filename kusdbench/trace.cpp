// kusdbench_trace: the benchmark's traced run, which splits a workload's
// time over the library's layers (rng, core, sim, pp, runner).
//
// It is a separate program from kusdbench_serial on purpose: the replica
// below calls core's chunk-level pieces directly, so a signature change
// in core breaks this program alone and never an end-to-end number.
//
// What it runs, in order:
//
//  1. runner::Sweep construction, a few times (runner.sweep_ctor_s).
//  2. The serial pass of common.hpp, with a span around each point's
//     configuration build (pp), topology realization (pp), each trial's
//     Registry::create and run_to_consensus (sim). Its wall time is the
//     untraced baseline the tracing overhead is measured against.
//  3. A replica of every batched / graph-batched trial, built from public
//     pieces: ChunkController::propose / propose_classes / on_reject and
//     RoundEngine::try_async_chunk / try_async_class_chunk. Each step is
//     timed (merged into one span per trial and layer), and the replica's
//     end state is checked against the engine's: same interactions, chunk
//     count and final counts. Before each chunk draw the replica records
//     the draw's input (pre-draw counts, chunk length, Rng state); after
//     the trial the draws are rebuilt and replayed through
//     Rng::multinomial_into with the recorded Rng state, which times the
//     sampler alone. A replayed draw must leave the Rng where the real one
//     did, so a wrong reconstruction of the draw's weights fails the run.
//  4. The sweep in-process at the workload's thread count through
//     runner::run_sweep_service, with and without a journal, writing CSV
//     and JSONL the way `kusd sweep` does (emission time, journal cost,
//     per-cell wall time), then runner::read_journal on its journal.
//  5. No-op stripes over the sweep's task-graph unit list (scheduling cost
//     per unit).
//
// The spans are kept in memory and written as one JSON file (--spans) at
// exit: name, parent, trial, start, end, busy and self time. Chunk-level
// intervals are merged into one span per (trial, layer), whose `busy` is
// the sum of the intervals and `count` their number.
//
// The last stdout line is one JSON object: the per-layer metrics (value
// and unit), the trial executions checked, how many did not converge, and
// the name of every correctness check that failed.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/batched_usd.hpp"
#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "rng/binomial_detail.hpp"
#include "runner/csv.hpp"
#include "runner/sweep_service.hpp"
#include "runner/task_graph.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace kusdbench;
namespace kc = kusd::core;
namespace krng = kusd::rng;

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  int parent = -1;
  std::int64_t trial = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// end - start for a single interval; the interval sum for merged spans.
  std::int64_t busy_ns = 0;
  std::uint64_t count = 1;
};

class Trace {
 public:
  int add(std::string name, int parent, std::int64_t trial,
          std::int64_t start_ns, std::int64_t end_ns) {
    return add_merged(std::move(name), parent, trial, start_ns, end_ns,
                      end_ns - start_ns, 1);
  }

  int add_merged(std::string name, int parent, std::int64_t trial,
                 std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t busy_ns, std::uint64_t count) {
    spans_.push_back(
        Span{std::move(name), parent, trial, start_ns, end_ns, busy_ns, count});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Set the interval of a span whose children were recorded before its
  /// end was known.
  void close(int index, std::int64_t start_ns, std::int64_t end_ns) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.busy_ns = end_ns - start_ns;
  }

  /// Busy time minus the busy time of the span's direct children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].busy_ns;
    for (const auto& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.busy_ns;
      }
    }
    return self;
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    const auto self = self_ns();
    out << "{\"unit\": \"ns\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"trial\":" << s.trial
          << ",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns
          << ",\"busy\":" << s.busy_ns << ",\"self\":" << self[i]
          << ",\"count\":" << s.count << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) fail("writing " + path + " failed");
  }

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------- draw recording

/// One chunk draw's input, recorded by the replica before the draw: the
/// Rng state, the chunk length, and the offset of the pre-draw counts in
/// the trial's snapshot buffer. `after` is the Rng state the real draw
/// left behind.
struct Draw {
  std::array<std::uint64_t, 4> before{};
  std::array<std::uint64_t, 4> after{};
  std::uint64_t m = 0;
  std::size_t offset = 0;
};

struct Recorder {
  std::vector<Draw> draws;
  std::vector<kp::Count> snapshots;

  void clear() {
    draws.clear();
    snapshots.clear();
  }
};

/// The event weights try_async_chunk draws from (round_engine.cpp),
/// rebuilt from the pre-draw counts: adopt j, flip j, no-op.
void async_weights(std::span<const kp::Count> opinions, kp::Count undecided,
                   kp::Count n, std::vector<double>& w) {
  const std::size_t k = opinions.size();
  w.resize(2 * k + 1);
  const kp::Count decided = n - undecided;
  const double du = static_cast<double>(undecided);
  double productive = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double xj = static_cast<double>(opinions[j]);
    w[j] = du * xj;
    w[k + j] = xj * static_cast<double>(decided - opinions[j]);
    productive += w[j] + w[k + j];
  }
  const double total = static_cast<double>(n) * static_cast<double>(n);
  w[2 * k] = std::max(0.0, total - productive);
}

/// The event weights try_async_class_chunk draws from (round_engine.cpp),
/// rebuilt from the pre-draw class-major counts.
void class_weights(std::span<const kp::Count> opinions,
                   std::span<const kp::Count> undecided,
                   std::span<const double> degrees, std::size_t k,
                   std::vector<double>& w) {
  const std::size_t classes = degrees.size();
  std::vector<double> weighted(k, 0.0);
  double weighted_undecided = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    weighted_undecided += degrees[c] * static_cast<double>(undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      weighted[j] += degrees[c] * static_cast<double>(opinions[c * k + j]);
    }
  }
  double weighted_decided = 0.0;
  for (std::size_t j = 0; j < k; ++j) weighted_decided += weighted[j];
  const double total_weight = weighted_undecided + weighted_decided;
  w.resize(2 * classes * k + 1);
  const std::size_t flip0 = classes * k;
  double productive = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const double wc = degrees[c];
    const double uc = static_cast<double>(undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      const double xcj = static_cast<double>(opinions[c * k + j]);
      w[c * k + j] = wc * uc * weighted[j];
      w[flip0 + c * k + j] = wc * xcj * (weighted_decided - weighted[j]);
      productive += w[c * k + j] + w[flip0 + c * k + j];
    }
  }
  w[2 * classes * k] =
      std::max(0.0, total_weight * total_weight - productive);
}

struct ReplayStats {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t categories = 0;
  std::uint64_t binv = 0;
  std::uint64_t btrs = 0;
  std::uint64_t mismatches = 0;
};

/// Replay a trial's recorded draws through Rng::multinomial_into. The
/// weights are rebuilt first (untimed); the timed loop is the sampler
/// alone. Afterwards each draw's conditional binomials are classified
/// into the sampler's BINV and BTRS paths from the draw's output.
void replay(const Recorder& rec,
            const std::function<void(const Draw&, std::vector<double>&)>&
                build_weights,
            ReplayStats& stats) {
  const std::size_t calls = rec.draws.size();
  if (calls == 0) return;
  std::vector<double> scratch;
  build_weights(rec.draws[0], scratch);
  const std::size_t width = scratch.size();
  std::vector<double> weights(calls * width);
  for (std::size_t i = 0; i < calls; ++i) {
    build_weights(rec.draws[i], scratch);
    std::copy(scratch.begin(), scratch.end(), weights.begin() + i * width);
  }
  std::vector<std::uint64_t> out(calls * width);
  std::vector<std::array<std::uint64_t, 4>> after(calls);

  krng::Rng rng;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < calls; ++i) {
    rng.set_state(rec.draws[i].before);
    rng.multinomial_into(
        rec.draws[i].m,
        std::span<const double>(weights.data() + i * width, width),
        std::span<std::uint64_t>(out.data() + i * width, width));
    after[i] = rng.state();
  }
  stats.ns += now_ns() - start;
  stats.calls += calls;
  stats.categories += calls * width;

  for (std::size_t i = 0; i < calls; ++i) {
    if (after[i] != rec.draws[i].after) ++stats.mismatches;
    // Mirror of Rng::multinomial_into's sequential conditional binomials.
    const double* w = weights.data() + i * width;
    const std::uint64_t* x = out.data() + i * width;
    double remaining_weight = 0.0;
    for (std::size_t j = 0; j < width; ++j) remaining_weight += w[j];
    std::uint64_t remaining = rec.draws[i].m;
    for (std::size_t j = 0; j + 1 < width && remaining > 0; ++j) {
      if (remaining_weight <= 0.0) break;
      const double p = std::min(1.0, w[j] / remaining_weight);
      if (p > 0.0 && p < 1.0) {
        const double ps = std::min(p, 1.0 - p);
        if (static_cast<double>(remaining) * ps < krng::detail::kBtrsCutoff) {
          ++stats.binv;
        } else {
          ++stats.btrs;
        }
      }
      remaining -= x[j];
      remaining_weight -= w[j];
    }
  }
}

// ------------------------------------------------------------- replicas

/// One replicated trial: end state, step counts and per-layer time.
struct Replica {
  std::uint64_t interactions = 0;
  std::uint64_t chunks = 0;  ///< draws, including halved retries
  std::uint64_t proposes = 0;
  std::uint64_t rejects = 0;
  std::vector<kp::Count> counts;
  kp::Count undecided = 0;
  std::vector<kp::Count> class_state;  ///< class counts, then undecided
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t init_ns = 0;
  std::int64_t propose_ns = 0;
  std::int64_t chunk_ns = 0;
  std::int64_t driver_ns = 0;
};

/// The batched engine's trial (core::BatchedUsdSimulator driven through
/// sim's advance loop) from ChunkController::propose / on_reject and
/// RoundEngine::try_async_chunk.
Replica replicate_batched(const kp::Configuration& x0, std::uint64_t seed,
                          const kc::ChunkOptions& options,
                          std::uint64_t budget, Recorder& rec) {
  Replica r;
  r.start_ns = now_ns();
  std::vector<kp::Count> x(x0.opinions().begin(), x0.opinions().end());
  kp::Count u = x0.undecided();
  const kp::Count n = x0.n();
  kc::ChunkController controller(options, n);
  kc::RoundEngine engine(x0.k());
  krng::Rng rng(seed);
  const auto consensus = [&] {
    return std::find(x.begin(), x.end(), n) != x.end();
  };
  bool done = consensus();
  r.init_ns = now_ns() - r.start_ns;
  while (!done && r.interactions < budget) {
    const std::int64_t a = now_ns();
    std::uint64_t m =
        std::min(controller.propose(x, u), budget - r.interactions);
    r.propose_ns += now_ns() - a;
    ++r.proposes;
    while (true) {
      ++r.chunks;
      rec.draws.push_back(Draw{rng.state(), {}, m, rec.snapshots.size()});
      rec.snapshots.insert(rec.snapshots.end(), x.begin(), x.end());
      rec.snapshots.push_back(u);
      const std::int64_t c = now_ns();
      const bool accepted = engine.try_async_chunk(x, u, n, m, rng);
      r.chunk_ns += now_ns() - c;
      rec.draws.back().after = rng.state();
      if (accepted) break;
      const std::int64_t e = now_ns();
      controller.on_reject();
      m = std::max<std::uint64_t>(1, m / 2);
      r.propose_ns += now_ns() - e;
      ++r.rejects;
    }
    const std::int64_t g = now_ns();
    r.interactions += m;
    done = consensus();
    r.driver_ns += now_ns() - g;
  }
  r.end_ns = now_ns();
  r.counts = x;
  r.undecided = u;
  return r;
}

/// The graph-batched engine's trial (sim::BatchedGraphEngine) from
/// ChunkController::propose_classes / on_reject and
/// RoundEngine::try_async_class_chunk.
Replica replicate_graph(const kp::Configuration& x0, std::uint64_t seed,
                        const kc::ChunkOptions& options,
                        const kp::DegreeClassModel& model,
                        std::uint64_t budget, Recorder& rec) {
  Replica r;
  r.start_ns = now_ns();
  const kp::Count n = x0.n();
  const auto k = static_cast<std::size_t>(x0.k());
  const std::size_t classes = model.num_classes();
  kc::ChunkController controller(options, n);
  kc::RoundEngine engine(x0.k(), static_cast<int>(classes));
  krng::Rng rng(seed);
  std::vector<double> degrees, sizes;
  for (const auto& c : model.classes()) {
    degrees.push_back(c.degree);
    sizes.push_back(static_cast<double>(c.size));
  }
  std::vector<kp::Count> cc(classes * k, 0), cu(classes, 0);
  std::vector<kp::Count> totals(x0.opinions().begin(), x0.opinions().end());
  kp::Count undecided = x0.undecided();
  if (classes == 1) {
    std::copy(totals.begin(), totals.end(), cc.begin());
    cu[0] = undecided;
  } else {
    for (std::size_t j = 0; j < k; ++j) {
      const auto split = rng.multinomial(totals[j], sizes);
      for (std::size_t c = 0; c < classes; ++c) cc[c * k + j] = split[c];
    }
    const auto split = rng.multinomial(undecided, sizes);
    std::copy(split.begin(), split.end(), cu.begin());
  }
  const auto consensus = [&] {
    return std::find(totals.begin(), totals.end(), n) != totals.end();
  };
  bool done = consensus();
  r.init_ns = now_ns() - r.start_ns;
  while (!done && r.interactions < budget) {
    const std::int64_t a = now_ns();
    std::uint64_t m = std::min(controller.propose_classes(cc, cu, degrees),
                               budget - r.interactions);
    r.propose_ns += now_ns() - a;
    ++r.proposes;
    while (true) {
      ++r.chunks;
      rec.draws.push_back(Draw{rng.state(), {}, m, rec.snapshots.size()});
      rec.snapshots.insert(rec.snapshots.end(), cc.begin(), cc.end());
      rec.snapshots.insert(rec.snapshots.end(), cu.begin(), cu.end());
      const std::int64_t c = now_ns();
      const bool accepted =
          engine.try_async_class_chunk(cc, cu, degrees, m, rng);
      r.chunk_ns += now_ns() - c;
      rec.draws.back().after = rng.state();
      if (accepted) break;
      const std::int64_t e = now_ns();
      controller.on_reject();
      m = std::max<std::uint64_t>(1, m / 2);
      r.propose_ns += now_ns() - e;
      ++r.rejects;
    }
    const std::int64_t g = now_ns();
    r.interactions += m;
    std::fill(totals.begin(), totals.end(), 0);
    undecided = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      undecided += cu[c];
      for (std::size_t j = 0; j < k; ++j) totals[j] += cc[c * k + j];
    }
    done = consensus();
    r.driver_ns += now_ns() - g;
  }
  r.end_ns = now_ns();
  r.counts = totals;
  r.undecided = undecided;
  r.class_state = cc;
  r.class_state.insert(r.class_state.end(), cu.begin(), cu.end());
  return r;
}

// --------------------------------------------------------------- runner

struct SweepRun {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double wall_s = 0.0;
  std::int64_t emit_ns = 0;
  std::vector<double> cell_s;
  std::string csv;
  std::string jsonl;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// The sweep through the service entry `kusd sweep` uses, emitting rows
/// the way the CLI does (CSV and JSONL, flushed per row).
SweepRun run_sweep(const kr::Sweep& sweep, const std::string& stem,
                   bool journal) {
  SweepRun run;
  kr::SweepServiceOptions options;
  if (journal) options.journal_path = stem + ".journal";
  run.start_ns = now_ns();
  {
    kr::CsvWriter csv(stem + ".csv", kr::Sweep::csv_header());
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> json(
        std::fopen((stem + ".jsonl").c_str(), "w"), &std::fclose);
    if (json == nullptr) fail("cannot open " + stem + ".jsonl");
    kr::run_sweep_service(sweep, options, [&](const kr::SweepRowEvent& e) {
      const std::int64_t a = now_ns();
      csv.write_row(*e.row);
      csv.flush();
      std::fprintf(json.get(), "%s\n", kr::Sweep::json_line(*e.row).c_str());
      std::fflush(json.get());
      run.emit_ns += now_ns() - a;
      if (e.cell != nullptr) run.cell_s.push_back(e.cell->wall_seconds);
    });
    const bool ok = csv.ok() && std::fclose(json.release()) == 0;
    if (!ok) fail("writing " + stem + " outputs failed");
  }
  run.end_ns = now_ns();
  run.wall_s = static_cast<double>(run.end_ns - run.start_ns) * 1e-9;
  run.csv = slurp(stem + ".csv");
  run.jsonl = slurp(stem + ".jsonl");
  return run;
}

/// Linear-interpolation quantile (numpy's default) of unsorted values.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// -------------------------------------------------------------- metrics

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(10);
    os << '{';
    bool first = true;
    for (const auto& [name, entry] : values_) {
      os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << entry.first << ", \"unit\": \"" << entry.second << "\"}";
      first = false;
    }
    os << '}';
    return os.str();
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run(int argc, char** argv) {
  std::set<std::string> known = spec_flags();
  known.insert({"out-dir", "spans"});
  const auto flags = parse_flags(argc, argv, known);
  const auto spec = parse_spec(flags);
  const std::string out_dir = required(flags, "out-dir");
  const std::size_t threads = spec.threads;

  Trace trace;
  Metrics metrics;
  std::set<std::string> failed_checks;
  std::uint64_t executions = 0, not_converged = 0;

  // 1. runner: Sweep construction (validation, grid, every point's config).
  std::vector<double> ctor_s;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t a = now_ns();
    const kr::Sweep probe(spec);
    const std::int64_t b = now_ns();
    trace.add("runner.sweep_ctor", -1, -1, a, b);
    ctor_s.push_back(static_cast<double>(b - a) * 1e-9);
  }
  const kr::Sweep sweep(spec);
  const auto grid = sweep.grid();

  // 2. The serial pass (pp, sim).
  const SerialPass pass = run_serial(spec, grid);
  const int pass_span =
      trace.add("serial_pass", -1, -1, pass.start_ns, pass.end_ns);
  std::map<std::string, double> run_s;
  for (const char* engine :
       {"skip", "batched", "sync", "gossip", "graph-batched"}) {
    run_s[engine] = 0.0;
  }
  double create_s = 0.0, config_s = 0.0, topology_s = 0.0;
  std::uint64_t creates = 0, graph_points = 0, classes_total = 0;
  std::int64_t trial_id = 0;
  std::vector<std::int64_t> first_trial;  // per point: id of its trial 0
  for (const auto& p : pass.points) {
    const int point_span =
        trace.add("point", pass_span, -1, p.start_ns, p.end_ns);
    trace.add("pp.configuration", point_span, -1, p.start_ns,
              p.config_end_ns);
    config_s += static_cast<double>(p.config_end_ns - p.start_ns) * 1e-9;
    // The topology step runs for every point; it realizes a degree-class
    // model on graph points and is a no-op elsewhere.
    trace.add("pp.degree_class_model", point_span, -1, p.config_end_ns,
              p.topology_end_ns);
    topology_s +=
        static_cast<double>(p.topology_end_ns - p.config_end_ns) * 1e-9;
    if (p.point.graph.has_value()) {
      ++graph_points;
      classes_total += p.degree_classes;
    }
    first_trial.push_back(trial_id);
    for (const auto& t : p.trials) {
      const int trial_span =
          trace.add("trial", point_span, trial_id, t.start_ns, t.end_ns);
      trace.add("sim.create", trial_span, trial_id, t.start_ns, t.created_ns);
      trace.add("sim.run." + p.point.engine, trial_span, trial_id,
                t.created_ns, t.end_ns);
      create_s += static_cast<double>(t.created_ns - t.start_ns) * 1e-9;
      run_s[p.point.engine] +=
          static_cast<double>(t.end_ns - t.created_ns) * 1e-9;
      ++creates;
      ++executions;
      not_converged += t.converged ? 0 : 1;
      ++trial_id;
    }
    trace.add("serial.aggregate", point_span, -1, p.trials_end_ns, p.end_ns);
  }
  const double serial_s = pass.seconds();

  // 3. Replicas of the chunked engines, with the sampler replay.
  Recorder rec;
  ReplayStats replay_stats;
  std::uint64_t interactions = 0, chunks = 0, proposes = 0, rejects = 0;
  double replica_trial_s = 0.0, replica_parts_s = 0.0, engine_trial_s = 0.0;
  std::int64_t propose_ns = 0, chunk_ns = 0, driver_ns = 0;
  std::uint64_t identity_failures = 0;
  const std::int64_t replica_start = now_ns();
  const int replica_span = trace.add("replica_pass", -1, -1, 0, 0);
  for (std::size_t pi = 0; pi < pass.points.size(); ++pi) {
    const PointRecord& p = pass.points[pi];
    const bool batched = p.point.engine == "batched";
    if (!batched && p.point.engine != "graph-batched") continue;
    const kp::Configuration x0 = point_config(spec, p.point);
    const auto degrees = point_degrees(p.point, p.point_seed);
    const ks::EngineOptions options = point_options(spec, p.point, degrees);
    for (std::size_t t = 0; t < p.trials.size(); ++t) {
      const TrialRecord& engine_trial = p.trials[t];
      const std::int64_t id = first_trial[pi] + static_cast<std::int64_t>(t);
      rec.clear();
      const Replica r =
          batched ? replicate_batched(x0, engine_trial.seed, options.batch,
                                      spec.max_time, rec)
                  : replicate_graph(x0, engine_trial.seed, options.batch,
                                    *degrees, spec.max_time, rec);
      ++executions;
      const int span =
          trace.add("replica.trial", replica_span, id, r.start_ns, r.end_ns);
      trace.add_merged("sim.replica_init", span, id, r.start_ns,
                       r.start_ns + r.init_ns, r.init_ns, 1);
      trace.add_merged("core.chunk_controller", span, id, r.start_ns,
                       r.end_ns, r.propose_ns, r.proposes + r.rejects);
      trace.add_merged("core.round_engine.chunk", span, id, r.start_ns,
                       r.end_ns, r.chunk_ns, r.chunks);
      trace.add_merged("core.driver", span, id, r.start_ns, r.end_ns,
                       r.driver_ns, r.proposes);
      replica_trial_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      replica_parts_s += static_cast<double>(r.init_ns + r.propose_ns +
                                             r.chunk_ns + r.driver_ns) *
                         1e-9;
      engine_trial_s +=
          static_cast<double>(engine_trial.end_ns - engine_trial.start_ns) *
          1e-9;
      propose_ns += r.propose_ns;
      chunk_ns += r.chunk_ns;
      driver_ns += r.driver_ns;
      interactions += r.interactions;
      chunks += r.chunks;
      proposes += r.proposes;
      rejects += r.rejects;

      // Bit-identity against the engine that ran this trial in the
      // serial pass, and for batched against core::BatchedUsdSimulator.
      bool same = r.interactions == engine_trial.elapsed &&
                  r.counts == engine_trial.counts &&
                  r.undecided == engine_trial.undecided;
      if (batched) {
        kc::BatchedUsdSimulator reference(x0, krng::Rng(engine_trial.seed),
                                          options.batch);
        reference.run_to_consensus(spec.max_time);
        same = same && reference.interactions() == r.interactions &&
               reference.chunks() == r.chunks &&
               std::equal(r.counts.begin(), r.counts.end(),
                          reference.opinions().begin(),
                          reference.opinions().end()) &&
               reference.undecided() == r.undecided;
      } else {
        same = same && engine_trial.chunks == r.chunks &&
               engine_trial.class_counts == r.class_state;
      }
      identity_failures += same ? 0 : 1;

      const std::size_t k = x0.opinions().size();
      const kp::Count n = x0.n();
      const std::int64_t replay_start = now_ns();
      const std::int64_t before_ns = replay_stats.ns;
      if (batched) {
        replay(rec,
               [&](const Draw& d, std::vector<double>& w) {
                 const std::span<const kp::Count> s(rec.snapshots.data() +
                                                        d.offset,
                                                    k + 1);
                 async_weights(s.first(k), s[k], n, w);
               },
               replay_stats);
      } else {
        std::vector<double> deg;
        for (const auto& c : degrees->classes()) deg.push_back(c.degree);
        const std::size_t classes = deg.size();
        replay(rec,
               [&](const Draw& d, std::vector<double>& w) {
                 const kp::Count* s = rec.snapshots.data() + d.offset;
                 class_weights(std::span<const kp::Count>(s, classes * k),
                               std::span<const kp::Count>(s + classes * k,
                                                          classes),
                               deg, k, w);
               },
               replay_stats);
      }
      trace.add_merged("rng.replay", replica_span, id, replay_start, now_ns(),
                       replay_stats.ns - before_ns, rec.draws.size());
    }
  }
  trace.close(replica_span, replica_start, now_ns());
  if (identity_failures > 0) failed_checks.insert("replica_bit_identity");
  if (replay_stats.mismatches > 0) failed_checks.insert("replay_rng_state");

  // 4. The sweep in-process: with and without a journal.
  const std::string stem = out_dir + "/trace_sweep";
  const SweepRun with_journal = run_sweep(sweep, stem + "_journal", true);
  const SweepRun without_journal = run_sweep(sweep, stem + "_plain", false);
  executions += 2 * grid.size() * static_cast<std::size_t>(spec.trials);
  for (const SweepRun* sweep_run : {&with_journal, &without_journal}) {
    const int span =
        trace.add(sweep_run == &with_journal ? "runner.sweep.journal"
                                             : "runner.sweep.plain",
                  -1, -1, sweep_run->start_ns, sweep_run->end_ns);
    trace.add_merged("runner.emit", span, -1, sweep_run->start_ns,
                     sweep_run->end_ns, sweep_run->emit_ns,
                     sweep_run->cell_s.size());
  }
  const std::int64_t read_start = now_ns();
  const kr::Journal journal = kr::read_journal(stem + "_journal.journal");
  const std::int64_t read_end = now_ns();
  trace.add("runner.read_journal", -1, -1, read_start, read_end);

  {
    const std::string serial_csv_path = out_dir + "/trace_serial.csv";
    {
      kr::CsvWriter csv(serial_csv_path, kr::Sweep::csv_header());
      for (const auto& p : pass.points) csv.write_row(p.row);
    }
    std::string serial_jsonl;
    for (const auto& p : pass.points) {
      serial_jsonl += kr::Sweep::json_line(p.row) + "\n";
    }
    if (with_journal.csv != slurp(serial_csv_path) ||
        with_journal.jsonl != serial_jsonl) {
      failed_checks.insert("sweep_rows_equal_serial_rows");
    }
    if (with_journal.csv != without_journal.csv ||
        with_journal.jsonl != without_journal.jsonl) {
      failed_checks.insert("outputs_byte_identical");
    }
    bool journal_ok = journal.cells.size() == pass.points.size();
    for (std::size_t i = 0; journal_ok && i < pass.points.size(); ++i) {
      const auto it = journal.cells.find(pass.points[i].point.index);
      journal_ok =
          it != journal.cells.end() && it->second == pass.points[i].row;
    }
    if (!journal_ok) failed_checks.insert("journal_rows_equal_serial_rows");
  }

  // 5. Task-graph scheduling cost: no-op stripes over the sweep's units.
  std::vector<std::uint32_t> stripes(grid.size());
  for (auto& s : stripes) {
    const std::size_t trials = static_cast<std::size_t>(spec.trials);
    s = static_cast<std::uint32_t>(
        trials == 0 ? 1 : (trials + spec.stripe_width - 1) / spec.stripe_width);
  }
  const kr::TaskGraph graph(stripes);
  std::vector<double> us_per_unit;
  {
    kusd::util::ThreadPool pool(threads);
    for (int rep = 0; rep < 25; ++rep) {
      const std::int64_t a = now_ns();
      graph.run(pool, [](const kr::TaskUnit&) {}, [](std::size_t) {});
      const std::int64_t b = now_ns();
      trace.add("runner.task_graph", -1, -1, a, b);
      us_per_unit.push_back(static_cast<double>(b - a) * 1e-3 /
                            static_cast<double>(graph.num_units()));
    }
  }

  // Metrics.
  const double multinomial_s = static_cast<double>(replay_stats.ns) * 1e-9;
  const double chunk_s = static_cast<double>(chunk_ns) * 1e-9;
  metrics.set("rng.multinomial_s", multinomial_s, "s");
  metrics.set("rng.multinomial.calls",
              static_cast<double>(replay_stats.calls), "count");
  metrics.set("rng.multinomial.categories_per_call",
              ratio(static_cast<double>(replay_stats.categories),
                    static_cast<double>(replay_stats.calls)),
              "count");
  metrics.set("rng.binomial.btrs_frac",
              ratio(static_cast<double>(replay_stats.btrs),
                    static_cast<double>(replay_stats.btrs + replay_stats.binv)),
              "ratio");
  metrics.set("rng.multinomial_share", ratio(multinomial_s, replica_trial_s),
              "ratio");

  metrics.set("core.chunk_controller.propose_s",
              static_cast<double>(propose_ns) * 1e-9, "s");
  metrics.set("core.chunk_controller.calls",
              static_cast<double>(proposes + rejects), "count");
  metrics.set("core.round_engine.chunk_s", chunk_s, "s");
  metrics.set("core.round_engine.self_s", chunk_s - multinomial_s, "s");
  metrics.set("core.round_engine.attempts", static_cast<double>(chunks),
              "count");
  metrics.set("core.round_engine.rejects", static_cast<double>(rejects),
              "count");
  metrics.set("core.round_engine.accept_ratio",
              ratio(static_cast<double>(chunks - rejects),
                    static_cast<double>(chunks)),
              "ratio");
  metrics.set("core.interactions_per_chunk",
              ratio(static_cast<double>(interactions),
                    static_cast<double>(chunks)),
              "count");
  metrics.set("core.driver_s", static_cast<double>(driver_ns) * 1e-9, "s");

  metrics.set("sim.create_s", create_s, "s");
  metrics.set("sim.create_us",
              ratio(create_s * 1e6, static_cast<double>(creates)), "us");
  // Per-engine time as a share of the total: an engine a workload does
  // not run reads 0, which a time metric must never do.
  double run_total_s = 0.0;
  for (const auto& entry : run_s) run_total_s += entry.second;
  metrics.set("sim.run_s", run_total_s, "s");
  for (const auto& [engine, seconds] : run_s) {
    metrics.set("sim.run_share." + engine, ratio(seconds, run_total_s),
                "ratio");
  }
  metrics.set("sim.serial_pass_s", serial_s, "s");

  metrics.set("pp.configuration_s", config_s, "s");
  metrics.set("pp.degree_class_model_s", topology_s, "s");
  metrics.set("pp.degree_classes",
              ratio(static_cast<double>(classes_total),
                    static_cast<double>(graph_points)),
              "count");

  metrics.set("runner.sweep_ctor_s", quantile(ctor_s, 0.5), "s");
  metrics.set("runner.sweep_wall_s", with_journal.wall_s, "s");
  metrics.set("runner.emit_s", static_cast<double>(with_journal.emit_ns) * 1e-9,
              "s");
  metrics.set("runner.journal_s", with_journal.wall_s - without_journal.wall_s,
              "s");
  metrics.set("runner.read_journal_s",
              static_cast<double>(read_end - read_start) * 1e-9, "s");
  metrics.set("runner.cell_s_p50", quantile(with_journal.cell_s, 0.5), "s");
  metrics.set("runner.cell_s_p90", quantile(with_journal.cell_s, 0.9), "s");
  metrics.set("runner.task_graph.us_per_unit", quantile(us_per_unit, 0.5),
              "us");
  const double cores_s = static_cast<double>(threads) * with_journal.wall_s;
  metrics.set("runner.lost_core_s", cores_s - serial_s, "s");
  metrics.set("runner.parallel_eff", ratio(serial_s, cores_s), "ratio");

  // Tracing overhead: the traced replica against the same trials run
  // untraced through the engine; and the parts-sum checks of the traced
  // trial and of the serial pass.
  metrics.set("trace.overhead_frac",
              ratio(replica_trial_s - engine_trial_s, engine_trial_s),
              "ratio");
  metrics.set("trace.unaccounted_frac",
              ratio(replica_trial_s - replica_parts_s, replica_trial_s),
              "ratio");
  // The serial pass's leaves: configuration, topology, each trial's
  // create and run, and the cell's aggregation.
  std::int64_t pass_parts_ns = 0;
  for (const auto& p : pass.points) {
    pass_parts_ns +=
        (p.topology_end_ns - p.start_ns) + (p.end_ns - p.trials_end_ns);
    for (const auto& t : p.trials) pass_parts_ns += t.end_ns - t.start_ns;
  }
  const double pass_parts_s = static_cast<double>(pass_parts_ns) * 1e-9;
  metrics.set("trace.sweep_unaccounted_frac",
              ratio(serial_s - pass_parts_s, serial_s), "ratio");

  trace.write_json(required(flags, "spans"));

  std::printf("{\"metrics\": %s, \"executions\": %llu, "
              "\"not_converged\": %llu, \"failed_checks\": [",
              metrics.json().c_str(),
              static_cast<unsigned long long>(executions),
              static_cast<unsigned long long>(not_converged));
  bool first = true;
  for (const auto& name : failed_checks) {
    std::printf("%s\"%s\"", first ? "" : ", ", name.c_str());
    first = false;
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "kusdbench_trace: %s\n", error.what());
    return 1;
  }
}
