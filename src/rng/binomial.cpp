#include "rng/binomial.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "rng/binomial_detail.hpp"
#include "util/check.hpp"

namespace kusd::rng {

namespace {

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
  // One scratch per thread: concurrent sweep tasks draw at once, and a
  // call consumes its table before returning.
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

}  // namespace kusd::rng
