// Shared helpers for the bench binaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pp/configuration.hpp"
#include "runner/scale.hpp"
#include "runner/table.hpp"

namespace kusd::bench {

/// Minimal machine-readable result emitter: accumulates an ordered flat
/// JSON object and writes it to `path` (the BENCH_*.json convention — see
/// README "Bench methodology"). Values are emitted verbatim, so callers
/// pass numbers as numbers and pre-quoted strings via add_string.
class JsonResult {
 public:
  void add(const std::string& key, double value) {
    std::ostringstream os;
    os << value;
    fields_.emplace_back(key, os.str());
  }
  void add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add_bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void add_string(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    fields_.emplace_back(key, quoted + "\"");
  }
  /// A pre-rendered JSON value (array or object) under `key`.
  void add_raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }

  /// Write `{ "k": v, ... }` to `path`; returns false (with a stderr note)
  /// on I/O failure so benches can exit non-zero instead of advertising a
  /// missing artifact.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok) std::fprintf(stderr, "error writing %s\n", path.c_str());
    return ok;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Median and quartiles of repeated measurements (linear interpolation
/// between order statistics). Reported instead of a minimum so a
/// result carries its own spread.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

[[nodiscard]] inline Spread spread_of(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&samples](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

#ifndef KUSD_BENCH_CXX_FLAGS
#define KUSD_BENCH_CXX_FLAGS ""
#endif
#ifndef KUSD_BENCH_BUILD_TYPE
#define KUSD_BENCH_BUILD_TYPE ""
#endif
#ifndef KUSD_BENCH_SOURCE_DIR
#define KUSD_BENCH_SOURCE_DIR "."
#endif

/// Where a result was measured: CPU model, logical CPUs, compiler, build
/// flags and the source commit (suffixed "-dirty" when the
/// tree had uncommitted changes; empty outside a git checkout).
inline void add_provenance(JsonResult& json) {
  std::string cpu;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string sha;
  const std::string git = std::string("git -C \"") + KUSD_BENCH_SOURCE_DIR +
                          "\" describe --always --dirty --abbrev=40 "
                          "2>/dev/null";
  if (std::FILE* pipe = popen(git.c_str(), "r")) {
    char buf[96] = {};
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) sha = buf;
    pclose(pipe);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
      sha.pop_back();
    }
  }
  json.add_string("host_cpu", cpu);
  json.add("host_nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  json.add_string("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.add_string("compiler", std::string("gcc ") + __VERSION__);
#else
  json.add_string("compiler", "unknown");
#endif
  json.add_string("build_type", KUSD_BENCH_BUILD_TYPE);
  json.add_string("cxx_flags", KUSD_BENCH_CXX_FLAGS);
  json.add_string("git_sha", sha);
}

/// Print the standard experiment banner (id, paper artifact, scale knob).
inline void banner(const char* experiment_id, const char* artifact,
                   const char* claim) {
  std::printf("=== %s — %s ===\n", experiment_id, artifact);
  std::printf("%s\n", claim);
  std::printf("(REPRO_SCALE=%.2f; set REPRO_SCALE to rescale sizes/trials)\n\n",
              runner::repro_scale());
}

/// n log n with natural log, as a double.
inline double n_log_n(pp::Count n) {
  const double dn = static_cast<double>(n);
  return dn * std::log(dn);
}

/// The paper's additive-bias magnitude c * sqrt(n log n).
inline pp::Count additive_beta(pp::Count n, double c) {
  return static_cast<pp::Count>(c * std::sqrt(n_log_n(n)));
}

}  // namespace kusd::bench
