#include "core/chunk_controller.hpp"

#include <algorithm>
#include <cmath>

#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "util/check.hpp"

namespace kusd::core {

const char* to_string(ChunkPolicy policy) {
  switch (policy) {
    case ChunkPolicy::kFixed: return "fixed";
    case ChunkPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<ChunkPolicy> parse_chunk_policy(const std::string& name) {
  if (name == "fixed") return ChunkPolicy::kFixed;
  if (name == "adaptive") return ChunkPolicy::kAdaptive;
  return std::nullopt;
}

ChunkController::ChunkController(const ChunkOptions& options, pp::Count n)
    : options_(options), n_(n) {
  KUSD_CHECK_MSG(options.chunk_fraction > 0.0 && options.chunk_fraction <= 1.0,
                 "chunk_fraction must be in (0, 1]");
  const auto& a = options.adaptive;
  KUSD_CHECK_MSG(a.drift_tolerance > 0.0 && a.drift_tolerance <= 1.0,
                 "drift_tolerance must be in (0, 1]");
  KUSD_CHECK_MSG(a.min_fraction >= 0.0 && a.min_fraction <= a.max_fraction &&
                     a.max_fraction <= 1.0,
                 "need 0 <= min_fraction <= max_fraction <= 1");
  KUSD_CHECK_MSG(a.grow_factor > 1.0, "grow_factor must exceed 1");
  KUSD_CHECK_MSG(a.trend_alpha >= 0.0 && a.trend_alpha < 1.0,
                 "trend_alpha must be in [0, 1)");

  const double dn = static_cast<double>(n);
  fixed_chunk_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(options.chunk_fraction * dn)));
  min_chunk_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(a.min_fraction * dn)));
  max_chunk_ = std::max<std::uint64_t>(
      min_chunk_,
      static_cast<std::uint64_t>(std::llround(a.max_fraction * dn)));
  last_ = min_chunk_;
}

std::uint64_t ChunkController::propose(std::span<const pp::Count> opinions,
                                       pp::Count undecided) {
  return propose_classes(opinions, {&undecided, 1}, kUnitClass);
}

std::uint64_t ChunkController::propose_classes(
    std::span<const pp::Count> opinions, std::span<const pp::Count> undecided,
    std::span<const double> weights) {
  if (options_.policy == ChunkPolicy::kFixed) return fixed_chunk_;
  const std::size_t classes = undecided.size();
  const std::size_t k = opinions.size() / classes;
  events_.resize(2 * classes * k + 1);
  rate_scratch_.resize(2 * k);
  // Per-interaction moments of every count at the frozen configuration,
  // read off the chain's event weights (probabilities times W^2): count
  // (c, j) gains on adopt(c, j) and loses on flip(c, j); the undecided
  // count of class c gains on every flip in c and loses on every adopt.
  // The admissible chunk is the largest m keeping both m*|mu| (drift) and
  // m*sigma2 (fluctuation variance) within the tolerance band of every
  // count, i.e. the standard tau-selection bound, in O(classes * k).
  const double total_weight = class_event_weights(opinions, undecided,
                                                  weights, events_,
                                                  rate_scratch_);
  if (total_weight <= 0.0) return finalize_bound(1.0);
  const double inv_w2 = 1.0 / (total_weight * total_weight);
  const double tol = options_.adaptive.drift_tolerance;
  const std::size_t flip0 = classes * k;

  double bound = static_cast<double>(max_chunk_);
  for (std::size_t c = 0; c < classes; ++c) {
    double adopts = 0.0, flips = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double adopt = events_[c * k + j];
      const double flip = events_[flip0 + c * k + j];
      adopts += adopt;
      flips += flip;
      const pp::Count count = opinions[c * k + j];
      if (count == 0) continue;
      apply_band(static_cast<double>(count), adopt * inv_w2, flip * inv_w2,
                 tol, bound);
    }
    apply_band(static_cast<double>(undecided[c]), flips * inv_w2,
               adopts * inv_w2, tol, bound);
  }
  return finalize_bound(bound);
}

void ChunkController::apply_band(double count, double gain, double loss,
                                 double tol, double& bound) {
  const double band = std::max(tol * count, 1.0);
  const double drift = std::abs(gain - loss);
  if (drift > 0.0) bound = std::min(bound, band / drift);
  const double sigma2 = gain + loss;
  if (sigma2 > 0.0) bound = std::min(bound, band * band / sigma2);
}

std::uint64_t ChunkController::finalize_bound(double bound) {
  // PI-style lookahead: smooth the bound's step-to-step change with an
  // EWMA and, while the bound is falling, pre-shrink by the predicted
  // next-step drop. Anticipation only tightens (a rising trend never
  // extends the hard error cap) and is floored at a quarter of the raw
  // bound, so one noisy estimate cannot collapse the schedule.
  const double tau_bound = bound;
  if (options_.adaptive.trend_alpha > 0.0) {
    if (has_previous_tau_bound_) {
      const double alpha = options_.adaptive.trend_alpha;
      trend_ = (1.0 - alpha) * trend_ +
               alpha * (tau_bound - previous_tau_bound_);
      if (trend_ < 0.0) {
        bound = std::max({tau_bound + trend_, 0.25 * tau_bound, 1.0});
      }
    }
    previous_tau_bound_ = tau_bound;
    has_previous_tau_bound_ = true;
  }

  auto target = static_cast<std::uint64_t>(
      std::clamp(std::floor(bound), 1.0, static_cast<double>(max_chunk_)));
  // Geometric rate limit on growth; shrinking takes effect immediately
  // (the error bound is a hard cap, the baseline only damps growth).
  const auto grow_cap = static_cast<std::uint64_t>(std::min(
      static_cast<double>(max_chunk_),
      std::max(1.0, static_cast<double>(last_) *
                        options_.adaptive.grow_factor)));
  target = std::min(target, grow_cap);
  target = std::clamp(target, std::max<std::uint64_t>(1, min_chunk_),
                      max_chunk_);
  last_ = target;
  return target;
}

void ChunkController::on_reject() {
  if (options_.policy == ChunkPolicy::kFixed) return;
  last_ = std::max<std::uint64_t>(std::max<std::uint64_t>(1, min_chunk_),
                                  last_ / 2);
}

}  // namespace kusd::core
