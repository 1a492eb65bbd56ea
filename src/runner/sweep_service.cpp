#include "runner/sweep_service.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <memory>
#include <string_view>
#include <utility>

#include "sim/registry.hpp"
#include "util/check.hpp"

namespace kusd::runner {

namespace {

/// Every service defect throws the repo-wide check error so callers and
/// tests have one exception type to catch; the message is the diagnostic.
[[noreturn]] void fail(const std::string& message) {
  throw util::CheckError(message);
}

// ---------------------------------------------------------------------------
// FNV-1a 64 over a canonical serialization: the digest and the per-row
// checksum share one accumulator so both are stable, documented values.

class Fnv64 {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void u64(std::uint64_t value) {
    unsigned char raw[8];
    for (int i = 0; i < 8; ++i) {
      raw[i] = static_cast<unsigned char>(value >> (8 * i));
    }
    bytes(raw, sizeof raw);
  }
  /// Length-prefixed, so field boundaries can't alias ("ab","c" never
  /// hashes like "a","bc").
  void str(std::string_view text) {
    u64(text.size());
    bytes(text.data(), text.size());
  }
  /// Shortest round-trip spelling — the canonical form of a double.
  void real(double value) {
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    str(std::string_view(buffer, static_cast<std::size_t>(
                                     result.ptr - buffer)));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string to_hex16(std::uint64_t value) {
  char buffer[17];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  return std::string(buffer, 16);
}

std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

std::uint64_t row_checksum(const std::vector<std::string>& row) {
  Fnv64 fnv;
  fnv.u64(row.size());
  for (const auto& field : row) fnv.str(field);
  return fnv.value();
}

// ---------------------------------------------------------------------------
// Minimal strict JSON for the journal's two line shapes: flat objects
// whose values are unsigned integers, strings, or arrays of strings.
// Anything else — and any syntax error — is a loud failure carrying the
// line's context, because a journal defect must never be silently
// skipped.

struct JsonValue {
  enum class Kind { kNumber, kString, kArray };
  Kind kind = Kind::kNumber;
  std::uint64_t number = 0;
  std::string string;
  std::vector<std::string> array;
};

class LineParser {
 public:
  LineParser(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  std::map<std::string, JsonValue> parse_object() {
    std::map<std::string, JsonValue> object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      advance();
    } else {
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        JsonValue value = parse_value();
        if (!object.emplace(std::move(key), std::move(value)).second) {
          fail(context_ + ": duplicate key in JSON object");
        }
        skip_ws();
        const char c = next();
        if (c == '}') break;
        if (c != ',') fail(context_ + ": expected ',' or '}'");
      }
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail(context_ + ": trailing bytes after JSON object");
    }
    return object;
  }

 private:
  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail(context_ + ": truncated JSON line");
    return text_[pos_];
  }
  void advance() { ++pos_; }
  char next() {
    const char c = peek();
    advance();
    return c;
  }
  void expect(char wanted) {
    if (next() != wanted) {
      fail(context_ + ": expected '" + std::string(1, wanted) + '\'');
    }
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(context_ + ": raw control character in JSON string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = next();
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(context_ + ": bad \\u escape");
            }
          }
          // The writer only emits \u00XX for control bytes; anything
          // beyond one byte is not ours.
          if (value > 0xFF) fail(context_ + ": unsupported \\u escape");
          out.push_back(static_cast<char>(value));
          break;
        }
        default:
          fail(context_ + ": bad escape in JSON string");
      }
    }
  }

  JsonValue parse_value() {
    JsonValue value;
    const char c = peek();
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      value.string = parse_string();
      return value;
    }
    if (c == '[') {
      advance();
      value.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        advance();
        return value;
      }
      while (true) {
        skip_ws();
        value.array.push_back(parse_string());
        skip_ws();
        const char sep = next();
        if (sep == ']') return value;
        if (sep != ',') fail(context_ + ": expected ',' or ']'");
      }
    }
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      fail(context_ + ": expected a string, array or unsigned integer");
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    const std::string_view digits = text_.substr(start, pos_ - start);
    const auto result = std::from_chars(
        digits.data(), digits.data() + digits.size(), value.number);
    if (result.ec != std::errc{} ||
        result.ptr != digits.data() + digits.size()) {
      fail(context_ + ": integer out of range");
    }
    return value;
  }

  std::string_view text_;
  std::string context_;
  std::size_t pos_ = 0;
};

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Journal lines.

std::string header_line(const JournalHeader& header) {
  std::string line = "{\"kusd_journal\":1";
  line += ",\"digest\":\"" + to_hex16(header.digest) + '"';
  line += ",\"points_begin\":" + std::to_string(header.points_begin);
  line += ",\"points_end\":" + std::to_string(header.points_end);
  line += ",\"points_total\":" + std::to_string(header.points_total);
  line += ",\"shard_index\":" + std::to_string(header.shard.index);
  line += ",\"shard_count\":" + std::to_string(header.shard.count);
  line += ",\"trials\":" + std::to_string(header.trials);
  line += "}\n";
  return line;
}

std::string cell_line(std::size_t index, const std::vector<std::string>& row) {
  std::string line = "{\"cell\":" + std::to_string(index);
  line += ",\"crc\":\"" + to_hex16(row_checksum(row)) + '"';
  line += ",\"row\":[";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line += ',';
    line += '"' + json_escape(row[i]) + '"';
  }
  line += "]}\n";
  return line;
}

const JsonValue& require(const std::map<std::string, JsonValue>& object,
                         const std::string& key, JsonValue::Kind kind,
                         const std::string& context) {
  const auto it = object.find(key);
  if (it == object.end()) fail(context + ": missing key \"" + key + '"');
  if (it->second.kind != kind) {
    fail(context + ": key \"" + key + "\" has the wrong type");
  }
  return it->second;
}

JournalHeader parse_header(const std::string& line,
                           const std::string& context) {
  auto object = LineParser(line, context).parse_object();
  if (require(object, "kusd_journal", JsonValue::Kind::kNumber, context)
          .number != 1) {
    fail(context + ": unsupported journal version");
  }
  JournalHeader header;
  const auto digest = parse_hex16(
      require(object, "digest", JsonValue::Kind::kString, context).string);
  if (!digest) fail(context + ": malformed digest");
  header.digest = *digest;
  const auto number = [&](const char* key) {
    return require(object, key, JsonValue::Kind::kNumber, context).number;
  };
  header.points_begin = static_cast<std::size_t>(number("points_begin"));
  header.points_end = static_cast<std::size_t>(number("points_end"));
  header.points_total = static_cast<std::size_t>(number("points_total"));
  header.shard.index = static_cast<std::size_t>(number("shard_index"));
  header.shard.count = static_cast<std::size_t>(number("shard_count"));
  const std::uint64_t trials = number("trials");
  if (trials > 1'000'000'000) fail(context + ": trials out of range");
  header.trials = static_cast<int>(trials);

  if (header.shard.count == 0 || header.shard.index >= header.shard.count) {
    fail(context + ": invalid shard coordinates");
  }
  if (header.points_begin > header.points_end ||
      header.points_end > header.points_total) {
    fail(context + ": invalid point range");
  }
  const auto canonical = shard_range(header.points_total, header.shard);
  if (header.points_begin != canonical.begin ||
      header.points_end != canonical.end) {
    fail(context + ": point range does not match the shard block formula");
  }
  return header;
}

/// RAII stdio handle: journals stay closed on every exit path, and
/// write failures surface as exceptions instead of silent truncation.
struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_all(std::FILE* file, const std::string& text,
               const std::string& path) {
  if (std::fwrite(text.data(), 1, text.size(), file) != text.size() ||
      std::fflush(file) != 0) {
    fail("journal: write to " + path + " failed");
  }
}

}  // namespace

std::optional<ShardSpec> parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= text.size()) {
    return std::nullopt;
  }
  const auto parse_part =
      [&](std::size_t begin, std::size_t end) -> std::optional<std::size_t> {
    std::uint64_t value = 0;
    const auto result =
        std::from_chars(text.data() + begin, text.data() + end, value);
    if (result.ec != std::errc{} || result.ptr != text.data() + end) {
      return std::nullopt;
    }
    return static_cast<std::size_t>(value);
  };
  const auto index = parse_part(0, slash);
  const auto count = parse_part(slash + 1, text.size());
  if (!index || !count || *count == 0 || *index >= *count) {
    return std::nullopt;
  }
  return ShardSpec{*index, *count};
}

ShardRange shard_range(std::size_t points_total, const ShardSpec& shard) {
  KUSD_CHECK_MSG(shard.count >= 1 && shard.index < shard.count,
                 "shard: index must satisfy 0 <= index < count");
  return ShardRange{shard.index * points_total / shard.count,
                    (shard.index + 1) * points_total / shard.count};
}

std::uint64_t sweep_digest(const Sweep& sweep) {
  const SweepSpec& spec = sweep.spec();
  Fnv64 fnv;
  fnv.str("kusd-sweep-journal-v1");
  // Output schema: a column change invalidates recorded rows.
  const auto header = Sweep::csv_header();
  fnv.u64(header.size());
  for (const auto& column : header) fnv.str(column);
  // Everything cell bytes are a function of. Scheduling knobs (threads,
  // stripe_width, shuffle_points) and shard coordinates are deliberately
  // absent: they cannot change output, and shards must share a digest.
  fnv.u64(spec.master_seed);
  fnv.u64(static_cast<std::uint64_t>(spec.trials));
  fnv.str(to_string(spec.bias_kind));
  // An --undecided count hashes as the fraction it stands for.
  fnv.real(spec.undecided.has_value()
               ? static_cast<double>(*spec.undecided) /
                     static_cast<double>(spec.ns.front())
               : spec.undecided_fraction);
  fnv.u64(spec.max_time);
  fnv.real(spec.batch_chunk_fraction);
  fnv.u64(static_cast<std::uint64_t>(spec.batch_policy));
  const auto points = sweep.grid();
  fnv.u64(points.size());
  for (const auto& point : points) {
    fnv.str(point.engine);
    fnv.str(point.graph.has_value() ? sim::to_string(*point.graph) : "-");
    fnv.u64(point.n);
    fnv.u64(static_cast<std::uint64_t>(point.k));
    fnv.str(to_string(point.start));
    fnv.real(point.bias);
  }
  // The registry contract of every swept engine: if an engine's caps or
  // capabilities changed since the journal was written, its recorded
  // cells may be unreproducible — refuse to mix them with fresh ones.
  const auto& registry = sim::Registry::instance();
  for (const auto& name : spec.engines) {
    const sim::EngineInfo* info = registry.find(name);
    KUSD_CHECK_MSG(info != nullptr, "digest: unknown engine '" + name + "'");
    fnv.str(name);
    fnv.u64(info->max_n);
    std::uint64_t flags = 0;
    flags |= info->requires_decided_start ? 1U : 0U;
    flags |= info->uses_graph_axis ? 2U : 0U;
    flags |= info->uses_chunk_options ? 4U : 0U;
    flags |= info->aggregated_topology ? 8U : 0U;
    flags |= info->default_budget ? 16U : 0U;
    fnv.u64(flags);
  }
  return fnv.value();
}

Journal read_journal(const std::string& path) {
  const FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) fail("journal: cannot open " + path);
  std::string content;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file.get())) > 0) {
    content.append(buffer, got);
  }
  if (std::ferror(file.get()) != 0) fail("journal: cannot read " + path);
  if (content.empty()) fail("journal: " + path + " is empty (no header)");
  if (content.back() != '\n') {
    fail("journal: " + path + " ends mid-line (truncated write)");
  }

  Journal journal;
  const std::size_t schema_width = Sweep::csv_header().size();
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    const std::string context =
        "journal: " + path + ':' + std::to_string(line_number);
    if (line.empty()) fail(context + ": empty line");
    if (line_number == 1) {
      journal.header = parse_header(line, context);
      continue;
    }
    auto object = LineParser(line, context).parse_object();
    const auto index = static_cast<std::size_t>(
        require(object, "cell", JsonValue::Kind::kNumber, context).number);
    if (index < journal.header.points_begin ||
        index >= journal.header.points_end) {
      fail(context + ": cell index outside the journal's shard range");
    }
    const auto crc = parse_hex16(
        require(object, "crc", JsonValue::Kind::kString, context).string);
    if (!crc) fail(context + ": malformed crc");
    auto row =
        require(object, "row", JsonValue::Kind::kArray, context).array;
    if (row.size() != schema_width) {
      fail(context + ": row width does not match the output schema");
    }
    if (row_checksum(row) != *crc) {
      fail(context + ": row checksum mismatch (corrupt journal line)");
    }
    if (!journal.cells.emplace(index, std::move(row)).second) {
      fail(context + ": duplicate cell index");
    }
  }
  return journal;
}

void run_sweep_service(
    const Sweep& sweep, const SweepServiceOptions& options,
    const std::function<void(const SweepRowEvent&)>& on_row) {
  KUSD_CHECK_MSG(
      options.shard.count >= 1 && options.shard.index < options.shard.count,
      "sweep service: invalid shard (want 0 <= index < count)");
  const bool resuming = !options.resume_path.empty();
  if (resuming && !options.journal_path.empty() &&
      options.journal_path != options.resume_path) {
    throw InputError("--resume appends to the resumed journal; --journal "
                     "must be absent or name the same file");
  }

  const std::size_t points_total = sweep.grid().size();
  const ShardRange range = shard_range(points_total, options.shard);
  JournalHeader header;
  header.digest = sweep_digest(sweep);
  header.points_begin = range.begin;
  header.points_end = range.end;
  header.points_total = points_total;
  header.shard = options.shard;
  header.trials = sweep.spec().trials;

  std::map<std::size_t, std::vector<std::string>> replayed;
  if (resuming) {
    Journal journal = read_journal(options.resume_path);
    if (journal.header.digest != header.digest) {
      fail("resume: journal digest " + to_hex16(journal.header.digest) +
           " does not match this sweep (" + to_hex16(header.digest) +
           ") — the grid, seed, schema or engine contract changed");
    }
    if (journal.header.shard != header.shard ||
        journal.header.points_total != header.points_total ||
        journal.header.trials != header.trials) {
      fail("resume: journal was written by a different shard of the sweep");
    }
    replayed = std::move(journal.cells);
  }

  const std::string journal_path =
      resuming ? options.resume_path : options.journal_path;
  FilePtr journal;
  if (!journal_path.empty()) {
    journal.reset(std::fopen(journal_path.c_str(), resuming ? "ab" : "wb"));
    if (journal == nullptr) fail("journal: cannot open " + journal_path);
    if (!resuming) write_all(journal.get(), header_line(header), journal_path);
  }

  std::vector<std::size_t> todo;
  todo.reserve(range.end - range.begin - replayed.size());
  for (std::size_t i = range.begin; i < range.end; ++i) {
    if (replayed.count(i) == 0) todo.push_back(i);
  }

  // Computed cells arrive in increasing grid order (run_selected), so
  // interleaving is one forward walk over the replayed map: flush every
  // recorded row below the next computed index, emit the computed row,
  // repeat, then drain the tail.
  auto next_replay = replayed.cbegin();
  const auto replay_below = [&](std::size_t bound) {
    while (next_replay != replayed.cend() && next_replay->first < bound) {
      SweepRowEvent event;
      event.index = next_replay->first;
      event.row = &next_replay->second;
      on_row(event);
      ++next_replay;
    }
  };

  std::size_t computed = 0;
  sweep.run_selected(todo, [&](const SweepCell& cell) {
    replay_below(cell.point.index);
    const auto row = Sweep::csv_row(cell);
    if (journal != nullptr) {
      // Flushed before the row reaches the consumer: anything observed
      // downstream is covered by the journal, so a kill after this line
      // loses no emitted cell.
      write_all(journal.get(), cell_line(cell.point.index, row),
                journal_path);
    }
    SweepRowEvent event;
    event.index = cell.point.index;
    event.row = &row;
    event.cell = &cell;
    on_row(event);
    ++computed;
    if (options.after_cell) options.after_cell(computed);
  });
  replay_below(range.end);
}

void merge_journals(
    const std::vector<std::string>& journal_paths,
    const std::function<void(std::size_t index,
                             const std::vector<std::string>& row)>& on_row) {
  KUSD_CHECK_MSG(!journal_paths.empty(), "merge: no journals given");
  std::vector<Journal> journals;
  journals.reserve(journal_paths.size());
  for (const auto& path : journal_paths) {
    journals.push_back(read_journal(path));
  }

  const JournalHeader& first = journals.front().header;
  for (std::size_t i = 0; i < journals.size(); ++i) {
    const JournalHeader& header = journals[i].header;
    if (header.digest != first.digest) {
      fail("merge: " + journal_paths[i] + " has digest " +
           to_hex16(header.digest) + " but " + journal_paths.front() +
           " has " + to_hex16(first.digest) +
           " — the journals are from different sweeps");
    }
    if (header.points_total != first.points_total ||
        header.trials != first.trials ||
        header.shard.count != first.shard.count) {
      fail("merge: " + journal_paths[i] +
           " disagrees with the other journals on grid size, trials or "
           "shard count");
    }
    // A journal being merged must be finished: every cell of its range
    // present (read_journal already rejected out-of-range/duplicates).
    if (journals[i].cells.size() !=
        header.points_end - header.points_begin) {
      fail("merge: " + journal_paths[i] + " is incomplete (" +
           std::to_string(journals[i].cells.size()) + " of " +
           std::to_string(header.points_end - header.points_begin) +
           " cells) — resume it to completion first");
    }
  }
  if (journals.size() != first.shard.count) {
    fail("merge: got " + std::to_string(journals.size()) +
         " journals for a " + std::to_string(first.shard.count) +
         "-way shard set (a shard journal is missing or duplicated)");
  }

  // Sort by block start; the blocks must tile [0, points_total) exactly.
  std::vector<const Journal*> ordered;
  ordered.reserve(journals.size());
  for (const auto& journal : journals) ordered.push_back(&journal);
  std::sort(ordered.begin(), ordered.end(),
            [](const Journal* a, const Journal* b) {
              return a->header.points_begin < b->header.points_begin;
            });
  std::size_t expected_begin = 0;
  for (const Journal* journal : ordered) {
    if (journal->header.points_begin < expected_begin) {
      fail("merge: shard ranges overlap (shard " +
           std::to_string(journal->header.shard.index) +
           " begins inside the previous shard's block)");
    }
    if (journal->header.points_begin > expected_begin) {
      fail("merge: shard coverage has a gap before point " +
           std::to_string(journal->header.points_begin));
    }
    expected_begin = journal->header.points_end;
  }
  if (expected_begin != first.points_total) {
    fail("merge: shard coverage stops at point " +
         std::to_string(expected_begin) + " of " +
         std::to_string(first.points_total));
  }

  // Only now — everything validated — emit, in grid order.
  for (const Journal* journal : ordered) {
    for (const auto& [index, row] : journal->cells) {
      on_row(index, row);
    }
  }
}

}  // namespace kusd::runner
