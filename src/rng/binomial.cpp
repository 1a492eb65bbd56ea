#include "rng/binomial.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "rng/binomial_detail.hpp"
#include "rng/binomial_lanes.hpp"
#include "rng/simd.hpp"
#include "rng/uniform_block.hpp"
#include "util/check.hpp"

namespace kusd::rng {

namespace {


/// Within-call memo of the last reduced (n, p) setup. The lockstep kernel
/// calls the batch with one event family's — frequently identical —
/// parameters across hundreds of trials, and the sweep's trial-inner
/// loops repeat (n, p) run-length-wise, so recomputing the sqrt/exp
/// setup per draw was pure waste. Correctness-neutral: the setup is a
/// pure function of (n, p), pinned by the bit-identity tests.
struct SetupCache {
  std::uint64_t n = 0;
  double p = -1.0;  // impossible reduced p: never matches
  bool is_btrs = false;
  detail::BinvSetup binv{};
  detail::BtrsSetup btrs{};
};

/// One reduced draw (validated p <= 0.5, degenerate cases already
/// resolved by the caller) through the memoized scalar samplers.
template <typename Uniforms>
std::uint64_t reduced_draw(Uniforms& uniforms, std::uint64_t n, double p,
                           SetupCache& cache) {
  if (n != cache.n || p != cache.p) {
    cache.n = n;
    cache.p = p;
    cache.is_btrs = static_cast<double>(n) * p >= detail::kBtrsCutoff;
    if (cache.is_btrs) {
      cache.btrs = detail::btrs_setup(n, p);
    } else {
      cache.binv = detail::binv_setup(n, p);
    }
  }
  return cache.is_btrs ? detail::btrs(uniforms, cache.btrs, n)
                       : detail::binv(uniforms, cache.binv, n);
}

/// BTRS lane kernel of the active tier, or nullptr when the build or the
/// tier is scalar-only.
using LanesFn = void (*)(const detail::LaneBatchView&);
LanesFn btrs_lanes_fn() {
#if defined(KUSD_SIMD_ENABLED)
  switch (simd::active_tier()) {
    case simd::Tier::kAvx2:
      return &detail::btrs_lanes_avx2;
    case simd::Tier::kSse2:
      return &detail::btrs_lanes_sse2;
    case simd::Tier::kScalar:
      break;
  }
#endif
  return nullptr;
}

struct BatchScratch {
  std::vector<std::size_t> btrs_index;
  std::vector<Rng*> lane_rngs;
  std::vector<std::uint64_t> lane_ns;
  std::vector<double> lane_ps;
  std::vector<std::uint64_t> lane_outs;
  std::vector<Rng*> pointers;  // contiguous-overload adapter
};

BatchScratch& scratch() {
  // One scratch per thread: binomial_batch runs concurrently from
  // independent sweep tasks, and each call fully consumes what it wrote,
  // so thread-local reuse is safe and keeps the hot path allocation-free
  // after warmup.
  thread_local BatchScratch scratch;
  return scratch;
}

/// Cohort pass over one batch: degenerate draws resolve inline (no
/// stream consumption), BINV draws run through the memoized scalar
/// sampler (cheap, and their inversion loop is too data-dependent to
/// lane-batch profitably), and BTRS draws — the sqrt/div/log-heavy
/// cohort — gather into the lane kernel of the active SIMD tier.
void batch_draw(std::span<Rng* const> rngs, std::span<const std::uint64_t> ns,
                std::span<const double> ps, std::span<std::uint64_t> out) {
  BatchScratch& sc = scratch();
  const LanesFn lanes = btrs_lanes_fn();
  sc.btrs_index.clear();
  SetupCache cache;
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    const double p = ps[i];
    KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
    const std::uint64_t n = ns[i];
    if (n == 0 || p == 0.0) {
      out[i] = 0;
      continue;
    }
    if (p == 1.0) {
      out[i] = n;
      continue;
    }
    const double reduced = p > 0.5 ? 1.0 - p : p;
    if (lanes != nullptr &&
        static_cast<double>(n) * reduced >= detail::kBtrsCutoff) {
      sc.btrs_index.push_back(i);
      continue;
    }
    const std::uint64_t draw = reduced_draw(*rngs[i], n, reduced, cache);
    out[i] = p > 0.5 ? n - draw : draw;
  }
  if (sc.btrs_index.empty()) return;
  sc.lane_rngs.clear();
  sc.lane_ns.clear();
  sc.lane_ps.clear();
  for (const std::size_t i : sc.btrs_index) {
    sc.lane_rngs.push_back(rngs[i]);
    sc.lane_ns.push_back(ns[i]);
    sc.lane_ps.push_back(ps[i] > 0.5 ? 1.0 - ps[i] : ps[i]);
  }
  sc.lane_outs.assign(sc.btrs_index.size(), 0);
  const detail::LaneBatchView view{sc.lane_rngs.data(), sc.lane_ns.data(),
                                   sc.lane_ps.data(), sc.lane_outs.data(),
                                   sc.btrs_index.size()};
  lanes(view);
  for (std::size_t j = 0; j < sc.btrs_index.size(); ++j) {
    const std::size_t i = sc.btrs_index[j];
    out[i] = ps[i] > 0.5 ? ns[i] - sc.lane_outs[j] : sc.lane_outs[j];
  }
}

/// One column of a Vose alias table: a uniform column index keeps its
/// own category, pick[0], when the top 63 bits of the draw's low word
/// fall below `threshold` (a probability in units of 2^-63) and takes
/// its alias, pick[1], otherwise. Both are indices into the caller's
/// weight vector, and only positive-weight categories are ever stored.
/// The pick is an indexed load, not a branch: keep-or-alias is a coin
/// flip the branch predictor cannot learn.
struct AliasColumn {
  std::uint64_t threshold = 0;
  std::array<std::uint32_t, 2> pick{};
};

struct AliasScratch {
  std::vector<AliasColumn> columns;
  std::vector<double> scaled;
  std::vector<std::uint32_t> work;  // under-full stack | over-full stack
};

AliasScratch& alias_scratch() {
  // Per thread for the same reason as BatchScratch: concurrent sweep
  // tasks draw at once, and a call consumes its table before returning.
  // The vectors only ever grow, so after warm-up no call allocates.
  thread_local AliasScratch scratch;
  return scratch;
}

/// Chain form of multinomial_into on validated, zero-filled `out`:
/// sequential conditional binomials in array order, the last category
/// taking the exact remainder.
void multinomial_chain(Rng& rng, std::uint64_t n,
                       std::span<const double> weights, double total,
                       std::span<std::uint64_t> out) {
  double remaining_weight = total;
  std::uint64_t remaining = n;
  for (std::size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    if (remaining_weight <= 0.0) break;
    const double p = std::min(1.0, weights[i] / remaining_weight);
    KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
    const std::uint64_t draw = detail::binomial_draw(rng, remaining, p);
    out[i] = draw;
    remaining -= draw;
    remaining_weight -= weights[i];
  }
  if (!weights.empty()) out.back() += remaining;
}

/// Alias form of multinomial_into on validated, zero-filled `out`: Vose's
/// table over the positive weights, then n categorical draws of one
/// 64-bit word each (column = high word of word * columns, keep-or-alias
/// from the low word).
void multinomial_alias(Rng& rng, std::uint64_t n,
                       std::span<const double> weights, double total,
                       std::span<std::uint64_t> out) {
  if (n == 0 || weights.empty()) return;
  if (total <= 0.0) {
    out.back() += n;  // all-zero weights: the chain's remainder rule
    return;
  }
  AliasScratch& sc = alias_scratch();
  if (sc.columns.size() < weights.size()) {
    sc.columns.resize(weights.size());
    sc.scaled.resize(weights.size());
    sc.work.resize(weights.size());
  }
  AliasColumn* table = sc.columns.data();
  double* scaled = sc.scaled.data();
  std::uint32_t columns = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      table[columns].pick[0] = static_cast<std::uint32_t>(i);
      scaled[columns] = weights[i];
      ++columns;
    }
  }
  if (columns == 1) {
    out[table[0].pick[0]] = n;  // certain outcome: no randomness
    return;
  }
  // Vose's stable pairing: each under-full column is topped up from one
  // over-full column, whose excess is recomputed as (big + small) - 1,
  // never below zero. Columns left over at the end are full up to
  // rounding and keep their own category. The two stacks share one
  // array: under-full grows up from the front, over-full down from the
  // back.
  constexpr std::uint64_t kFull = std::uint64_t{1} << 63;
  std::uint32_t* work = sc.work.data();
  const double scale = static_cast<double>(columns) / total;
  std::size_t small = 0;
  std::size_t large = columns;
  for (std::uint32_t j = 0; j < columns; ++j) {
    scaled[j] *= scale;
    if (scaled[j] < 1.0) {
      work[small++] = j;
    } else {
      work[--large] = j;
    }
  }
  while (small > 0 && large < columns) {
    const std::uint32_t lo = work[--small];
    const std::uint32_t hi = work[large++];
    table[lo].threshold = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(scaled[lo] * 0x1p63));
    table[lo].pick[1] = table[hi].pick[0];
    scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0;
    if (scaled[hi] < 1.0) {
      work[small++] = hi;
    } else {
      work[--large] = hi;
    }
  }
  const auto fill = [table](std::uint32_t j) {
    table[j].threshold = kFull;
    table[j].pick[1] = table[j].pick[0];
  };
  while (small > 0) fill(work[--small]);
  while (large < columns) fill(work[large++]);

  // A local copy keeps the stream state in registers: stores through
  // `out` could otherwise alias it and force a reload every draw.
  Rng local = rng;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto wide =
        static_cast<unsigned __int128>(local.next_u64()) * columns;
    const AliasColumn& column = table[static_cast<std::size_t>(wide >> 64)];
    const auto low = static_cast<std::uint64_t>(wide) >> 1;
    ++out[column.pick[low >= column.threshold ? 1 : 0]];
  }
  rng = local;
}

/// multinomial_into's shared preamble: checks the spans, zero-fills
/// `out` and returns the weight total (summed front to back).
double multinomial_prepare(std::span<const double> weights,
                           std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(out.size() == weights.size(),
                 "multinomial output size must match the weight count");
  std::fill(out.begin(), out.end(), 0);
  double total = 0.0;
  for (double w : weights) {
    KUSD_CHECK_MSG(w >= 0.0, "multinomial weight must be non-negative");
    total += w;
  }
  return total;
}

}  // namespace

// Rng's multinomial lives here rather than in rng.cpp so both forms
// compile with this unit's sampler flags and the chain inlines
// detail::binomial_draw: the tau-leap engines spend most of a trial in
// this call, one per chunk.
void Rng::multinomial_into(std::uint64_t n, std::span<const double> weights,
                           std::span<std::uint64_t> out) {
  const double total = multinomial_prepare(weights, out);
  if (multinomial_uses_alias(n, weights.size())) {
    multinomial_alias(*this, n, weights, total, out);
  } else {
    multinomial_chain(*this, n, weights, total, out);
  }
}

void multinomial_chain_into(Rng& rng, std::uint64_t n,
                            std::span<const double> weights,
                            std::span<std::uint64_t> out) {
  multinomial_chain(rng, n, weights, multinomial_prepare(weights, out), out);
}

void multinomial_alias_into(Rng& rng, std::uint64_t n,
                            std::span<const double> weights,
                            std::span<std::uint64_t> out) {
  multinomial_alias(rng, n, weights, multinomial_prepare(weights, out), out);
}

double log_factorial(std::uint64_t k) {
  return detail::log_factorial(k);
}

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
  return detail::binomial_draw(rng, n, p);
}

void binomial_batch(std::span<Rng* const> rngs,
                    std::span<const std::uint64_t> ns,
                    std::span<const double> ps,
                    std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(rngs.size() == ns.size() && ns.size() == ps.size() &&
                     ps.size() == out.size(),
                 "binomial_batch: span lengths must match");
  batch_draw(rngs, ns, ps, out);
}

void binomial_batch(std::span<Rng> rngs, std::span<const std::uint64_t> ns,
                    std::span<const double> ps,
                    std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(rngs.size() == ns.size() && ns.size() == ps.size() &&
                     ps.size() == out.size(),
                 "binomial_batch: span lengths must match");
  BatchScratch& sc = scratch();
  sc.pointers.clear();
  for (Rng& rng : rngs) sc.pointers.push_back(&rng);
  batch_draw(sc.pointers, ns, ps, out);
}

void binomial_batch(PhiloxUniformStream& uniforms,
                    std::span<const std::uint64_t> ns,
                    std::span<const double> ps,
                    std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(ns.size() == ps.size() && ps.size() == out.size(),
                 "binomial_batch: span lengths must match");
  SetupCache cache;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const double p = ps[i];
    KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
    const std::uint64_t n = ns[i];
    if (n == 0 || p == 0.0) {
      out[i] = 0;
      continue;
    }
    if (p == 1.0) {
      out[i] = n;
      continue;
    }
    const double reduced = p > 0.5 ? 1.0 - p : p;
    const std::uint64_t draw = reduced_draw(uniforms, n, reduced, cache);
    out[i] = p > 0.5 ? n - draw : draw;
  }
}

}  // namespace kusd::rng
