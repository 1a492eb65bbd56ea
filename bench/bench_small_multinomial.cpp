// Crossover of Rng::multinomial_into's two exact forms.
//
// multinomial_into draws a short multinomial (few trials per category)
// as n categorical draws from a Vose alias table, and a long one as
// sequential conditional binomials. The switch is the one constant
// rng::kAliasTrialsPerCategory. This bench is its evidence: for every
// (m, K) shape the many-cell sweep grid produces, it times both forms
// on the same weights in the same run, interleaved rep by rep, and
// reports the median and IQR of ns per call for each, their ratio, and
// per K the largest m at which the alias form is still faster.
//
// Shapes: K = 2k + 1 tau-leap event families and K = k or k + 1
// sync/gossip partner categories for k in {2, 3, 4, 6, 8, 12, 16} (the
// many-cell grid), plus the ref_point (65) and graph_er (313) widths; m
// from a single exact step past the crossover. Weights follow a mid-run
// tau-leap state: uneven productive families and one no-op category
// holding ~40% of the mass.
//
// Results land in BENCH_small_multinomial.json with host provenance.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rng/binomial.hpp"
#include "rng/rng.hpp"
#include "runner/scale.hpp"
#include "util/stopwatch.hpp"

using namespace kusd;

namespace {

std::vector<double> tau_leap_weights(std::size_t categories) {
  std::vector<double> w(categories);
  double productive = 0.0;
  for (std::size_t j = 0; j + 1 < categories; ++j) {
    w[j] = 1.0 + 0.8 * std::sin(static_cast<double>(3 * j + 1));
    productive += w[j];
  }
  w.back() = categories > 1 ? 0.67 * productive : 1.0;
  return w;
}

using Form = void (*)(rng::Rng&, std::uint64_t, std::span<const double>,
                      std::span<std::uint64_t>);

/// ns per call of `form` over `calls` calls; the checksum keeps the
/// draws live.
double ns_per_call(Form form, rng::Rng& rng, std::uint64_t m,
                   const std::vector<double>& weights, int calls,
                   std::uint64_t& checksum) {
  std::vector<std::uint64_t> out(weights.size());
  util::Stopwatch watch;
  for (int c = 0; c < calls; ++c) {
    form(rng, m, weights, out);
    checksum += out.front();
  }
  return watch.seconds() * 1e9 / calls;
}

}  // namespace

int main() {
  bench::banner("small-m multinomial",
                "crossover of multinomial_into's alias and chain forms",
                "Alias-table draws beat conditional binomials while m is "
                "small next to K; the switch sits at m <= "
                "kAliasTrialsPerCategory * K.");
  const double scale = runner::repro_scale();
  const int reps = std::max(3, static_cast<int>(std::lround(15 * scale)));
  // Each timed block runs ~0.2-2 ms at full scale.
  const double work = std::max(0.02, scale);

  std::set<std::size_t> ks;
  for (const std::size_t k : {2, 3, 4, 6, 8, 12, 16}) {
    ks.insert(2 * k + 1);
    ks.insert(k + 1);
    ks.insert(k);
  }
  ks.insert(65);
  ks.insert(313);
  const std::vector<std::uint64_t> ms = {1,   2,   5,    10,   20,  40,
                                         80,  160, 400,  1000, 2500, 6000};

  runner::Table table({"K", "m", "m/K", "alias ns", "alias IQR", "chain ns",
                       "chain IQR", "chain/alias", "form used"});
  std::ostringstream cells;
  std::ostringstream crossover;
  cells << "[";
  crossover << "{";
  std::uint64_t checksum = 0;
  bool first_cell = true;
  for (const std::size_t k_cat : ks) {
    const std::vector<double> weights = tau_leap_weights(k_cat);
    std::uint64_t last_alias_win = 0;
    // The fixed grid plus the two sizes either side of the switch.
    std::set<std::uint64_t> shape_ms(ms.begin(), ms.end());
    shape_ms.insert(rng::kAliasTrialsPerCategory * k_cat);
    shape_ms.insert(rng::kAliasTrialsPerCategory * k_cat + 1);
    for (const std::uint64_t m : shape_ms) {
      // ~20k alias draws per block regardless of shape.
      const int calls = std::max(
          4, static_cast<int>(work * 2e4 / static_cast<double>(m + k_cat)));
      rng::Rng alias_rng(rng::stream_seed(2026, m * 1000 + k_cat));
      rng::Rng chain_rng(rng::stream_seed(2027, m * 1000 + k_cat));
      std::vector<double> alias_ns, chain_ns;
      // Warm-up: grows the alias scratch and faults in the code.
      ns_per_call(&rng::multinomial_alias_into, alias_rng, m, weights, calls,
                  checksum);
      ns_per_call(&rng::multinomial_chain_into, chain_rng, m, weights, calls,
                  checksum);
      for (int rep = 0; rep < reps; ++rep) {
        alias_ns.push_back(ns_per_call(&rng::multinomial_alias_into,
                                       alias_rng, m, weights, calls,
                                       checksum));
        chain_ns.push_back(ns_per_call(&rng::multinomial_chain_into,
                                       chain_rng, m, weights, calls,
                                       checksum));
      }
      const bench::Spread alias = bench::spread_of(alias_ns);
      const bench::Spread chain = bench::spread_of(chain_ns);
      const double ratio = chain.median / alias.median;
      const bool uses_alias = rng::multinomial_uses_alias(m, k_cat);
      if (alias.median < chain.median) last_alias_win = m;
      const double per_cat =
          static_cast<double>(m) / static_cast<double>(k_cat);
      table.add_row({std::to_string(k_cat), std::to_string(m),
                     runner::fmt(per_cat, 2), runner::fmt(alias.median, 1),
                     runner::fmt(alias.iqr(), 1), runner::fmt(chain.median, 1),
                     runner::fmt(chain.iqr(), 1), runner::fmt(ratio, 2),
                     uses_alias ? "alias" : "chain"});
      cells << (first_cell ? "" : ",") << "\n    {\"K\": " << k_cat
            << ", \"m\": " << m << ", \"alias_ns_median\": " << alias.median
            << ", \"alias_ns_iqr\": " << alias.iqr()
            << ", \"chain_ns_median\": " << chain.median
            << ", \"chain_ns_iqr\": " << chain.iqr()
            << ", \"chain_over_alias\": " << ratio << ", \"form_used\": \""
            << (uses_alias ? "alias" : "chain") << "\"}";
      first_cell = false;
    }
    // Reported, never gated: the crossover is host-dependent.
    crossover << (k_cat == *ks.begin() ? "" : ", ") << "\"" << k_cat
              << "\": " << last_alias_win;
  }
  cells << "\n  ]";
  crossover << "}";
  table.print();
  std::printf("largest m with the alias form faster, per K: %s\n",
              crossover.str().c_str());
  std::printf("switch: alias when m <= %llu * K (checksum %llu)\n",
              static_cast<unsigned long long>(rng::kAliasTrialsPerCategory),
              static_cast<unsigned long long>(checksum));

  bench::JsonResult json;
  json.add_string("experiment", "small_multinomial");
  json.add("repro_scale", scale);
  json.add("reps", reps);
  json.add("alias_trials_per_category", rng::kAliasTrialsPerCategory);
  bench::add_provenance(json);
  json.add_raw("largest_m_alias_faster", crossover.str());
  json.add_raw("cells", cells.str());
  return json.write("BENCH_small_multinomial.json") ? 0 : 1;
}
