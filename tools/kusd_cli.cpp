// kusd — command-line front end for the library.
//
// Subcommands:
//   run       one USD run, printed phases and outcome
//   sweep     grid sweep over (engine, n, k, bias) with parallel trials,
//             streamed to a table and optionally CSV / JSONL; supports
//             deterministic sharding (--shard i/N), cell-granular
//             checkpoints (--journal) and crash resume (--resume)
//   merge     validate shard journals (same sweep, complete, gap-free)
//             and concatenate them into the unsharded CSV / JSONL
//   trace     record a trajectory CSV for plotting
//   exact     exact win probability / expected time (small n, k)
//
// Examples:
//   kusd run --n 65536 --k 4 --bias additive --beta 3000 --seed 7
//   kusd sweep --n 1e5,1e6 --k 8,32 --engine skip,batched,gossip
//        --trials 20 --out sweep.csv --json sweep.jsonl
//   kusd sweep --n 1e5 --k 2,4,8 --shard 0/3 --journal shard0.journal
//   kusd merge --inputs shard0.journal,shard1.journal,shard2.journal
//        --out sweep.csv
//   kusd exact --n 12 --k 3 --support 6,4,2
//
// Every flag is one row of kFlags: its value kind, its default in each
// subcommand that accepts it, its range and its help line. One parser
// walks argv against the table, the usage text is generated from it, and
// the contract-sync lint holds docs/sweep.md to it. The rules that tie
// flags together live in runner::validate_point: `run` and `trace` are
// one-point sweeps, so every simulated point is checked by the same code.
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/usd_exact.hpp"
#include "pp/configuration.hpp"
#include "pp/trajectory.hpp"
#include "runner/csv.hpp"
#include "runner/run.hpp"
#include "runner/sweep.hpp"
#include "runner/sweep_service.hpp"
#include "runner/table.hpp"
#include "sim/registry.hpp"

namespace {

using namespace kusd;

enum Command { kRun, kSweep, kMerge, kTrace, kExact, kCommands };
constexpr std::array<const char*, kCommands> kCommandNames = {
    "run", "sweep", "merge", "trace", "exact"};

/// What a flag's value, or each item of a list, must be.
enum class Kind {
  kCount,  ///< a whole number in [lo, hi]; scientific notation ok ("1e6")
  kReal,   ///< a finite number
  kBool,   ///< 1/true/yes/on or 0/false/no/off
  kSpec,   ///< text its subcommand parses, spelled as the help line says
  kPath,   ///< a file name
};
using enum Kind;

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();
constexpr unsigned kSweepList = 1U << kSweep;
constexpr const char* kNo = nullptr;

struct Flag {
  const char* name;
  Kind kind;
  /// Default as typed, per subcommand in Command order: kNo when the
  /// subcommand does not accept the flag, "" when it has no default.
  std::array<const char*, kCommands> defaults;
  /// Bit (1 << Command) per subcommand that reads a comma list.
  unsigned lists;
  const char* help;
  std::uint64_t lo = 0;
  std::uint64_t hi = kMaxCount;
  /// "flag=value" that must hold whenever this flag is given.
  const char* needs = nullptr;
};

// The flag table.  name, kind, defaults in run/sweep/merge/trace/exact,
// list-reading subcommands, help, then the range of a count.
const Flag kFlags[] = {
    {"n", kCount, {"100000", "100000", kNo, "100000", "12"}, kSweepList,
     "population size", 1},
    {"k", kCount, {"8", "8", kNo, "8", "2"}, kSweepList, "number of opinions",
     1, std::uint64_t{1} << 30},
    {"undecided", kCount, {"0", "", kNo, "0", kNo}, 0,
     "agents starting undecided (sweep: one --n, no --ufrac)"},
    {"ufrac", kReal, {kNo, "0", kNo, kNo, kNo}, 0,
     "fraction of agents starting undecided"},
    {"seed", kCount, {"1", "1", kNo, "1", kNo}, 0,
     "seed; every output byte is a function of (flags, seed)"},
    {"bias", kSpec, {"none", "none", kNo, "none", kNo}, 0,
     "bias kind: none|additive|multiplicative"},
    {"beta", kReal, {"n/100", "n/100", kNo, "n/100", kNo}, kSweepList,
     "additive bias in agents", 0, kMaxCount, "bias=additive"},
    {"alpha", kReal, {"2", "2", kNo, "2", kNo}, kSweepList,
     "multiplicative bias, above 1", 0, kMaxCount, "bias=multiplicative"},
    {"engine", kSpec, {"skip", "skip", kNo, kNo, kNo}, kSweepList,
     "registry engine name"},
    {"graph", kSpec, {"complete", "complete", kNo, kNo, kNo}, kSweepList,
     "graph-engine topology: complete|cycle|regular:<d>|er:<p>|er:auto"},
    {"start", kSpec, {kNo, "uniform", kNo, kNo, kNo}, kSweepList,
     "initial support: uniform|geometric:<ratio>"},
    {"budget", kCount, {kNo, "0", kNo, kNo, kNo}, 0,
     "per-trial cap in native time units (0: engine default)"},
    {"trials", kCount, {kNo, "25", kNo, kNo, kNo}, 0,
     "Monte-Carlo trials per grid point", 0, 1'000'000'000},
    {"threads", kCount, {kNo, "0", kNo, kNo, kNo}, 0,
     "worker threads (0: hardware concurrency)", 0, 65536},
    {"chunk", kReal, {kNo, "0.02", kNo, kNo, kNo}, 0,
     "fixed-policy chunk fraction of the batched engines"},
    {"chunk-policy", kSpec, {kNo, "fixed", kNo, kNo, kNo}, 0,
     "chunk policy of the batched engines: fixed|adaptive"},
    {"stripe-width", kCount, {kNo, "8", kNo, kNo, kNo}, 0,
     "trials per work-stealing unit", 0, 1'000'000'000},
    {"shuffle-points", kBool, {kNo, "0", kNo, kNo, kNo}, 0,
     "run points in a shuffled order; output is unchanged"},
    {"shard", kSpec, {kNo, "0/1", kNo, kNo, kNo}, 0,
     "grid block I of N to run: I/N with 0 <= I < N"},
    {"journal", kPath, {kNo, "", kNo, kNo, kNo}, 0,
     "checkpoint every cell to this journal"},
    {"resume", kPath, {kNo, "", kNo, kNo, kNo}, 0,
     "replay this journal's cells and append the rest"},
    {"out", kPath, {kNo, "", "", "kusd_trace.csv", kNo}, 0, "CSV output"},
    {"json", kPath, {kNo, "", "", kNo, kNo}, 0, "JSON-lines output"},
    {"inputs", kPath, {kNo, kNo, "", kNo, kNo}, 1U << kMerge,
     "shard journals to merge"},
    {"support", kCount, {kNo, kNo, kNo, kNo, ""}, 1U << kExact,
     "initial opinion counts, exactly k (default uniform)"},
};

const Flag* find_flag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// "100000 (exact: 12)": the first subcommand's default, then each one
/// that differs; "" when no subcommand has a default.
std::string default_text(const Flag& flag) {
  std::string first;
  std::string extra;
  for (int c = 0; c < kCommands; ++c) {
    if (flag.defaults[c] == nullptr) continue;
    const std::string value =
        *flag.defaults[c] != '\0' ? flag.defaults[c] : "none";
    if (first.empty()) {
      first = value;
    } else if (value != first) {
      extra += (extra.empty() ? " (" : "; ") + std::string(kCommandNames[c]) +
               ": " + value;
    }
  }
  if (!extra.empty()) return first + extra + ")";
  return first == "none" ? "" : first;
}

[[noreturn]] void usage(int exit_code = 2) {
  std::FILE* out = exit_code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: kusd <run|sweep|merge|trace|exact> [--flag value]...\n"
               "  engines: %s\n"
               "  counts take scientific notation (1e6); * marks a comma "
               "list\n",
               sim::Registry::instance().names_joined().c_str());
  for (const Flag& flag : kFlags) {
    std::string commands;
    for (int c = 0; c < kCommands; ++c) {
      if (flag.defaults[c] == nullptr) continue;
      commands += std::string(" ") + kCommandNames[c] +
                  ((flag.lists >> c) & 1U ? "*" : "");
    }
    const std::string fallback = default_text(flag);
    std::fprintf(out, "  --%-15s%-24s %s%s%s\n", flag.name, commands.c_str(),
                 flag.help, fallback.empty() ? "" : "; default ",
                 fallback.c_str());
  }
  std::exit(exit_code);
}

std::vector<std::string> split_list(const std::string& spec) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    if (next > pos) items.push_back(spec.substr(pos, next - pos));
    pos = next + 1;
  }
  return items;
}

std::optional<double> parse_real(const std::string& item) {
  char* end = nullptr;
  const double value = std::strtod(item.c_str(), &end);
  if (end == item.c_str() || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

// A plain decimal integer is read exactly over the whole u64 range; any
// other form goes through a double and is capped at 2^53, beyond which
// the round-trip silently rounds the literal — exactly the quiet size
// drift this parser rejects.
std::optional<std::uint64_t> parse_count(const std::string& item) {
  if (!item.empty() &&
      item.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    const unsigned long long value = std::strtoull(item.c_str(), nullptr, 10);
    if (errno == ERANGE) return std::nullopt;
    return value;
  }
  const auto value = parse_real(item);
  if (!value || !(*value >= 0.0 && *value <= 9007199254740992.0) ||
      *value != std::floor(*value)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*value);
}

std::optional<bool> parse_bool(const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::string bound_text(std::uint64_t x) {
  const int log = std::countr_zero(x);
  if (x >= (std::uint64_t{1} << 20) && x == std::uint64_t{1} << log) {
    return "2^" + std::to_string(log);
  }
  return std::to_string(x);
}

/// Why `value` does not fit `flag` in subcommand `c`, or "".
std::string value_problem(const Flag& flag, Command c,
                          const std::string& value) {
  const std::string name = std::string("--") + flag.name;
  const bool list = ((flag.lists >> c) & 1U) != 0;
  const auto items = list ? split_list(value) : std::vector{value};
  if (items.empty()) return name + " needs at least one value";
  for (const auto& item : items) {
    if (flag.kind == Kind::kCount) {
      const auto count = parse_count(item);
      if (!count) {
        return name + ": count '" + item +
               "' out of range or not an integer";
      }
      if (*count < flag.lo || *count > flag.hi) {
        return flag.hi == kMaxCount
                   ? name + " must be at least " + std::to_string(flag.lo)
                   : name + " must be in [" + std::to_string(flag.lo) +
                         ", " + bound_text(flag.hi) + "]";
      }
    } else if (flag.kind == Kind::kReal && !parse_real(item)) {
      return name + ": '" + item + "' is not a finite number";
    } else if (flag.kind == Kind::kBool && !parse_bool(item)) {
      return name + ": cannot parse boolean '" + item + "'";
    }
  }
  return "";
}

struct Args {
  Command command = kRun;
  std::map<std::string, std::string> given;

  [[nodiscard]] bool has(const std::string& name) const {
    return given.count(name) != 0;
  }
  /// The value given, or the table's default for this subcommand.
  [[nodiscard]] std::string value(const std::string& name) const {
    const auto it = given.find(name);
    if (it != given.end()) return it->second;
    const char* fallback = find_flag(name)->defaults[command];
    KUSD_CHECK_MSG(fallback != nullptr, "kusd: --" + name + " is not a " +
                                            kCommandNames[command] +
                                            " flag");
    return fallback;
  }
  /// The comma list, or the single value, of a flag.
  [[nodiscard]] std::vector<std::string> items(const std::string& name) const {
    if (((find_flag(name)->lists >> command) & 1U) != 0) {
      return split_list(value(name));
    }
    return {value(name)};
  }
  /// Each item through `parse`. The walk checked counts, reals and
  /// bools; a spec item its parser rejects is a usage error naming the
  /// flag.
  template <class Parse>
  [[nodiscard]] auto parsed(const std::string& name, Parse parse) const {
    std::vector<typename decltype(parse(std::string{}))::value_type> out;
    for (const auto& item : items(name)) {
      const auto value = parse(item);
      if (!value) {
        std::fprintf(stderr, "--%s: bad value '%s' (%s)\n", name.c_str(),
                     item.c_str(), find_flag(name)->help);
        usage();
      }
      out.push_back(*value);
    }
    return out;
  }
  [[nodiscard]] std::uint64_t count(const std::string& name) const {
    return parsed(name, parse_count).front();
  }
};

/// Walk argv against the table. Every problem is reported, each naming
/// its flag, before the usage error (exit 2).
Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || (i == 1 && arg == "help")) {
      usage(0);
    }
  }
  Args args;
  const std::string command = argv[1];
  int c = 0;
  while (c < kCommands && command != kCommandNames[c]) ++c;
  if (c == kCommands) {
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    usage();
  }
  args.command = static_cast<Command>(c);
  bool ok = true;
  const auto fail = [&ok](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    ok = false;
  };
  for (int i = 2; i < argc;) {
    const std::string arg = argv[i++];
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected argument '" + arg + "'");
      continue;
    }
    if (i >= argc) {
      fail(arg + " needs a value");
      break;
    }
    const std::string value = argv[i++];
    const Flag* flag = find_flag(arg.substr(2));
    if (flag == nullptr || flag->defaults[c] == nullptr) {
      fail("unknown " + command + " option " + arg);
    } else if (!args.given.emplace(flag->name, value).second) {
      fail(arg + " given twice");
    } else if (const auto problem = value_problem(*flag, args.command, value);
               !problem.empty()) {
      fail(problem);
    }
  }
  for (const auto& [name, value] : args.given) {
    const char* needs = find_flag(name)->needs;
    if (needs == nullptr) continue;
    const std::string rule = needs;
    const std::size_t eq = rule.find('=');
    if (args.value(rule.substr(0, eq)) != rule.substr(eq + 1)) {
      fail("--" + name + " requires --" + rule.substr(0, eq) + " " +
           rule.substr(eq + 1));
    }
  }
  if (!ok) usage();
  return args;
}

std::optional<runner::BiasKind> parse_bias(const std::string& name) {
  for (const auto kind : {runner::BiasKind::kNone, runner::BiasKind::kAdditive,
                          runner::BiasKind::kMultiplicative}) {
    if (name == runner::to_string(kind)) return kind;
  }
  return std::nullopt;
}

/// The flags `run`, `trace` and `sweep` share, as a sweep spec: `run` and
/// `trace` are one-point sweeps.
runner::SweepSpec population_spec(const Args& args) {
  runner::SweepSpec spec;
  spec.ns = args.parsed("n", parse_count);
  spec.ks.clear();
  for (const auto k : args.parsed("k", parse_count)) {
    spec.ks.push_back(static_cast<int>(k));
  }
  if (!args.value("undecided").empty()) {
    spec.undecided = args.count("undecided");
  }
  spec.master_seed = args.count("seed");
  spec.bias_kind = args.parsed("bias", parse_bias).front();
  if (spec.bias_kind == runner::BiasKind::kAdditive) {
    // The table's "n/100": a share of the first population size.
    spec.bias_values =
        args.has("beta") ? args.parsed("beta", parse_real)
                         : std::vector{static_cast<double>(spec.ns.front() /
                                                           100)};
  } else if (spec.bias_kind == runner::BiasKind::kMultiplicative) {
    spec.bias_values = args.parsed("alpha", parse_real);
  }
  if (args.command == kTrace) {
    spec.engines = {"skip"};  // the exact chain records the trajectory
  } else {
    spec.engines = args.items("engine");
    spec.graphs = args.parsed("graph", sim::parse_graph_spec);
  }
  return spec;
}

int cmd_run(const Args& args) {
  const runner::Sweep sweep(population_spec(args));
  const runner::SweepPoint point = sweep.grid().front();
  runner::RunOptions opts;
  opts.engine = point.engine;
  opts.graph = point.graph.value_or(sim::GraphSpec{});
  const auto result = runner::run_usd(sweep.initial_configuration(point),
                                      sweep.spec().master_seed, opts);
  if (!result.converged) {
    std::printf("no consensus within the time cap (%llu native time units, "
                "parallel time %.1f)\n",
                static_cast<unsigned long long>(result.interactions),
                result.parallel_time);
    return 1;
  }
  std::printf("consensus on opinion %d after %llu native time units "
              "(parallel time %.1f)\n",
              result.winner,
              static_cast<unsigned long long>(result.interactions),
              result.parallel_time);
  std::printf("initial plurality %s; winner %s initially significant\n",
              result.plurality_won ? "won" : "lost",
              result.winner_initially_significant ? "was" : "was not");
  const auto& ph = result.phases;
  const auto show = [](const char* name,
                       const std::optional<std::uint64_t>& t) {
    if (t) {
      std::printf("  %-3s %llu\n", name,
                  static_cast<unsigned long long>(*t));
    }
  };
  show("T1", ph.t1);
  show("T2", ph.t2);
  show("T3", ph.t3);
  show("T4", ph.t4);
  show("T5", ph.t5);
  return 0;
}

int cmd_sweep(const Args& args) {
  runner::SweepSpec spec = population_spec(args);
  spec.starts = args.parsed("start", runner::parse_start_profile);
  spec.undecided_fraction = *parse_real(args.value("ufrac"));
  spec.max_time = args.count("budget");
  spec.trials = static_cast<int>(args.count("trials"));
  spec.threads = static_cast<std::size_t>(args.count("threads"));
  spec.batch_chunk_fraction = *parse_real(args.value("chunk"));
  spec.batch_policy =
      args.parsed("chunk-policy", core::parse_chunk_policy).front();
  spec.stripe_width = static_cast<std::size_t>(args.count("stripe-width"));
  spec.shuffle_points = *parse_bool(args.value("shuffle-points"));

  runner::SweepServiceOptions service;
  service.shard = args.parsed("shard", runner::parse_shard).front();
  service.journal_path = args.value("journal");
  service.resume_path = args.value("resume");
  // Fault-injection switch for the CI resume-kill leg: after this many
  // computed cells (each already journaled and flushed), die the way a
  // crashed production run does — no destructors, no buffered goodbye.
  if (const char* trip_env = std::getenv("KUSD_SWEEP_TRIP_CELLS")) {
    const auto trip = parse_count(trip_env);
    if (!trip) {
      std::fprintf(stderr, "KUSD_SWEEP_TRIP_CELLS: not a count '%s'\n",
                   trip_env);
      usage();
    }
    if (*trip > 0) {
      service.after_cell = [trip = *trip](std::size_t computed) {
        if (computed >= trip) std::raise(SIGKILL);
      };
    }
  }

  const runner::Sweep sweep(std::move(spec));
  const std::string csv_path = args.value("out");
  const std::string json_path = args.value("json");
  std::optional<runner::CsvWriter> csv;
  if (!csv_path.empty()) csv.emplace(csv_path, runner::Sweep::csv_header());
  std::FILE* json = nullptr;
  if (!json_path.empty()) {
    json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) throw std::runtime_error("cannot open " + json_path);
  }

  runner::Table table(runner::Sweep::csv_header());
  const auto shard_block =
      runner::shard_range(sweep.grid().size(), service.shard);
  const std::size_t total = shard_block.end - shard_block.begin;
  std::size_t cells = 0;
  runner::run_sweep_service(
      sweep, service, [&](const runner::SweepRowEvent& event) {
        table.add_row(*event.row);
        if (csv) {
          csv->write_row(*event.row);
          csv->flush();
        }
        if (json != nullptr) {
          std::fprintf(json, "%s\n",
                       runner::Sweep::json_line(*event.row).c_str());
          std::fflush(json);
        }
        ++cells;
        // Live progress on stderr; the aligned table needs all rows for
        // its column widths and is printed to stdout at the end.
        if (event.cell == nullptr) {
          std::fprintf(stderr, "[%zu/%zu] cell %zu replayed from journal\n",
                       cells, total, event.index);
          return;
        }
        const runner::SweepCell& cell = *event.cell;
        std::fprintf(stderr, "[%zu/%zu] %s%s%s n=%llu k=%d done in %.2fs\n",
                     cells, total, cell.point.engine.c_str(),
                     cell.point.graph.has_value() ? " " : "",
                     cell.point.graph.has_value()
                         ? sim::to_string(*cell.point.graph).c_str()
                         : "",
                     static_cast<unsigned long long>(cell.point.n),
                     cell.point.k, cell.wall_seconds);
      });
  table.print();
  int rc = 0;
  if (csv && !csv->ok()) {
    // A disk-full/I/O failure mid-sweep must not exit 0 advertising a
    // truncated file as complete output.
    std::fprintf(stderr, "error: writing %s failed\n", csv_path.c_str());
    rc = 1;
  }
  if (json != nullptr && std::fclose(json) != 0) {
    std::fprintf(stderr, "error: writing %s failed\n", json_path.c_str());
    rc = 1;
  }
  std::printf("%zu grid cells x %d trials\n", cells, sweep.spec().trials);
  if (!csv_path.empty()) std::printf("csv: %s\n", csv_path.c_str());
  if (!json_path.empty()) std::printf("jsonl: %s\n", json_path.c_str());
  return rc;
}

int cmd_merge(const Args& args) {
  const auto inputs = args.items("inputs");
  if (inputs.empty()) {
    std::fprintf(stderr, "--inputs must list at least one shard journal\n");
    usage();
  }
  const std::string csv_path = args.value("out");
  const std::string json_path = args.value("json");
  if (csv_path.empty() && json_path.empty()) {
    std::fprintf(stderr, "merge needs --out and/or --json\n");
    usage();
  }

  // Output files are opened lazily on the first validated row:
  // merge_journals validates every journal before emitting anything, so
  // a failed merge leaves no output file behind — not even an empty one.
  std::optional<runner::CsvWriter> csv;
  std::FILE* json = nullptr;
  std::size_t rows = 0;
  runner::merge_journals(
      inputs, [&](std::size_t /*index*/, const std::vector<std::string>& row) {
        if (!csv_path.empty() && !csv) {
          csv.emplace(csv_path, runner::Sweep::csv_header());
        }
        if (!json_path.empty() && json == nullptr) {
          json = std::fopen(json_path.c_str(), "w");
          if (json == nullptr) {
            throw std::runtime_error("cannot open " + json_path);
          }
        }
        if (csv) csv->write_row(row);
        if (json != nullptr) {
          std::fprintf(json, "%s\n", runner::Sweep::json_line(row).c_str());
        }
        ++rows;
      });
  int rc = 0;
  if (csv && !csv->ok()) {
    std::fprintf(stderr, "error: writing %s failed\n", csv_path.c_str());
    rc = 1;
  }
  if (json != nullptr && std::fclose(json) != 0) {
    std::fprintf(stderr, "error: writing %s failed\n", json_path.c_str());
    rc = 1;
  }
  std::printf("merged %zu cells from %zu shard journals\n", rows,
              inputs.size());
  if (!csv_path.empty()) std::printf("csv: %s\n", csv_path.c_str());
  if (!json_path.empty()) std::printf("jsonl: %s\n", json_path.c_str());
  return rc;
}

int cmd_trace(const Args& args) {
  const runner::Sweep sweep(population_spec(args));
  const runner::SweepPoint point = sweep.grid().front();
  const auto x0 = sweep.initial_configuration(point);
  const std::string out = args.value("out");
  const auto engine = sim::Registry::instance().create(
      point.engine, x0, sweep.spec().master_seed);
  pp::Trajectory trajectory;
  engine->run_observed(engine->default_budget(),
                       std::max<pp::Count>(1, x0.n() / 64),
                       [&trajectory](std::uint64_t t,
                                     std::span<const pp::Count> opinions,
                                     pp::Count u) {
                         trajectory.record(t, opinions, u);
                       });
  runner::write_trajectory_csv(trajectory, out);
  std::printf("wrote %zu snapshots to %s (consensus: %s)\n",
              trajectory.size(), out.c_str(),
              engine->is_consensus() ? "yes" : "no");
  return 0;
}

int cmd_exact(const Args& args) {
  const pp::Count n = args.count("n");
  const int k = static_cast<int>(args.count("k"));
  if (n < 2) {
    std::fprintf(stderr, "exact needs --n of at least 2\n");
    usage();
  }
  if (analysis::UsdExactSolver::state_count(n, k) >
      analysis::UsdExactSolver::kMaxStates) {
    std::fprintf(stderr,
                 "--n %llu --k %d exceeds the exact solver's limit of %.0f "
                 "states\n",
                 static_cast<unsigned long long>(n), k,
                 analysis::UsdExactSolver::kMaxStates);
    usage();
  }
  std::vector<pp::Count> support;
  if (!args.has("support")) {
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    support.assign(x0.opinions().begin(), x0.opinions().end());
  } else {
    support = args.parsed("support", parse_count);
    if (static_cast<int>(support.size()) != k) {
      std::fprintf(stderr, "--support must list exactly k values\n");
      usage();
    }
  }
  // The decided agents must number 1..n (the undecided count is implied).
  pp::Count decided = 0;
  bool fits = true;
  for (const pp::Count x : support) {
    fits = fits && x <= n - decided;
    if (fits) decided += x;
  }
  if (!fits || decided == 0) {
    std::fprintf(stderr, "--support %s must sum to between 1 and --n %llu\n",
                 args.value("support").c_str(),
                 static_cast<unsigned long long>(n));
    usage();
  }
  analysis::UsdExactSolver solver(n, k);
  std::printf("exact analysis: n=%llu k=%d (%zu states)\n",
              static_cast<unsigned long long>(n), k, solver.num_states());
  std::printf("expected interactions to consensus: %.3f\n",
              solver.expected_consensus_time(support));
  for (int i = 0; i < k; ++i) {
    std::printf("P[opinion %d wins] = %.6f\n", i,
                solver.win_probability(support, i));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    switch (args.command) {
      case kRun: return cmd_run(args);
      case kSweep: return cmd_sweep(args);
      case kMerge: return cmd_merge(args);
      case kTrace: return cmd_trace(args);
      case kExact: return cmd_exact(args);
      case kCommands: break;
    }
  } catch (const runner::InputError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
