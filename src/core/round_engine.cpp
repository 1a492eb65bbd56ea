#include "core/round_engine.hpp"

#include <algorithm>

#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

double class_event_weights(std::span<const pp::Count> opinions,
                           std::span<const pp::Count> undecided,
                           std::span<const double> weights,
                           std::span<double> events,
                           std::span<double> scratch) {
  const std::size_t classes = undecided.size();
  KUSD_DCHECK(classes >= 1 && weights.size() == classes &&
              opinions.size() % classes == 0);
  const std::size_t k = opinions.size() / classes;
  KUSD_DCHECK(events.size() == 2 * classes * k + 1 && scratch.size() >= 2 * k);
  // weighted[j] = X_j = sum_c w_c x_cj; others[j] = sum_c w_c (d_c - x_cj),
  // the weight of the decided initiators that do not hold j.
  double* const weighted = scratch.data();
  double* const others = scratch.data() + k;
  double total = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const pp::Count* const x = opinions.data() + c * k;
    pp::Count decided = 0;
    for (std::size_t j = 0; j < k; ++j) decided += x[j];
    const double wc = weights[c];
    total += wc * static_cast<double>(decided + undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      const double wx = wc * static_cast<double>(x[j]);
      const double wo = wc * static_cast<double>(decided - x[j]);
      weighted[j] = c == 0 ? wx : weighted[j] + wx;
      others[j] = c == 0 ? wo : others[j] + wo;
    }
  }
  double* const adopt = events.data();
  double* const flip = events.data() + classes * k;
  double productive = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const double wc = weights[c];
    const double wu = wc * static_cast<double>(undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      adopt[c * k + j] = wu * weighted[j];
      flip[c * k + j] =
          wc * static_cast<double>(opinions[c * k + j]) * others[j];
      productive += adopt[c * k + j] + flip[c * k + j];
    }
  }
  events[2 * classes * k] = std::max(0.0, total * total - productive);
  return total;
}

RoundEngine::RoundEngine(int k, int classes) : k_(k), classes_(classes) {
  KUSD_CHECK_MSG(k >= 1, "round engine needs at least one opinion");
  KUSD_CHECK_MSG(classes >= 1, "round engine needs at least one class");
  weights_.resize(2 * static_cast<std::size_t>(k) *
                      static_cast<std::size_t>(classes) +
                  1);
  events_.resize(weights_.size());
  rate_scratch_.resize(2 * static_cast<std::size_t>(k));
  undecided_after_.resize(static_cast<std::size_t>(classes));
}

pp::Count RoundEngine::decided_step(std::span<const pp::Count> opinions,
                                    pp::Count undecided,
                                    bool keep_on_undecided,
                                    std::span<pp::Count> next,
                                    rng::Rng& rng) {
  const std::size_t k = opinions.size();
  KUSD_DCHECK(k == static_cast<std::size_t>(k_) && next.size() == k);
  KUSD_DCHECK(next.data() != opinions.data());
  // Partner-sampling weights: the pre-round state distribution. With no
  // undecided agents the slot is omitted entirely — a trailing zero-weight
  // bucket would absorb the multinomial's exact-remainder treatment of the
  // last real opinion and let floating-point error leak agents into it.
  for (std::size_t j = 0; j < k; ++j) {
    weights_[j] = static_cast<double>(opinions[j]);
  }
  const bool with_undecided = undecided > 0;
  if (with_undecided) weights_[k] = static_cast<double>(undecided);
  const std::span<const double> w(weights_.data(),
                                  with_undecided ? k + 1 : k);

  pp::Count became_undecided = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (opinions[i] == 0) continue;
    const std::span<std::uint64_t> partners(events_.data(), w.size());
    rng.multinomial_into(opinions[i], w, partners);
    pp::Count stay = partners[i];
    if (keep_on_undecided && with_undecided) stay += partners[k];
    next[i] += stay;
    became_undecided += opinions[i] - stay;
  }
  return became_undecided;
}

pp::Count RoundEngine::adoption_step(std::span<const pp::Count> partners,
                                     pp::Count partner_undecided,
                                     pp::Count undecided,
                                     std::span<pp::Count> next,
                                     rng::Rng& rng) {
  const std::size_t k = partners.size();
  KUSD_DCHECK(k == static_cast<std::size_t>(k_) && next.size() == k);
  if (undecided == 0) return 0;
  // Copy the weights before touching `next` so partners may alias next.
  // As in decided_step, a zero partner-undecided slot is omitted so the
  // last real opinion keeps the exact multinomial remainder.
  for (std::size_t j = 0; j < k; ++j) {
    weights_[j] = static_cast<double>(partners[j]);
  }
  const bool with_undecided = partner_undecided > 0;
  if (with_undecided) weights_[k] = static_cast<double>(partner_undecided);
  const std::size_t categories = with_undecided ? k + 1 : k;
  const std::span<std::uint64_t> sampled(events_.data(), categories);
  rng.multinomial_into(
      undecided, std::span<const double>(weights_.data(), categories),
      sampled);
  for (std::size_t j = 0; j < k; ++j) next[j] += sampled[j];
  return with_undecided ? sampled[k] : 0;
}

bool RoundEngine::try_async_chunk(std::span<pp::Count> opinions,
                                  pp::Count& undecided, pp::Count /*n*/,
                                  std::uint64_t m, rng::Rng& rng) {
  return try_async_class_chunk(opinions, {&undecided, 1}, kUnitClass, m, rng);
}

bool RoundEngine::try_async_class_chunk(std::span<pp::Count> opinions,
                                        std::span<pp::Count> undecided,
                                        std::span<const double> weights,
                                        std::uint64_t m, rng::Rng& rng) {
  const std::size_t k = static_cast<std::size_t>(k_);
  const std::size_t classes = static_cast<std::size_t>(classes_);
  KUSD_DCHECK(opinions.size() == k * classes);
  KUSD_DCHECK(undecided.size() == classes && weights.size() == classes);
  if (class_event_weights(opinions, undecided, weights, weights_,
                          rate_scratch_) <= 0.0) {
    return false;  // no interacting vertices at all
  }
  rng.multinomial_into(m, weights_, events_);

  // Validate before committing: a frozen-rate draw can overshoot a
  // per-class count.
  const std::uint64_t* const adopt = events_.data();
  const std::uint64_t* const flip = events_.data() + classes * k;
  std::uint64_t decided_after = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    std::uint64_t adopted = 0, flipped = 0;
    for (std::size_t i = c * k; i < (c + 1) * k; ++i) {
      if (opinions[i] + adopt[i] < flip[i]) return false;
      adopted += adopt[i];
      flipped += flip[i];
      decided_after += opinions[i] + adopt[i] - flip[i];
    }
    if (undecided[c] + flipped < adopted) return false;
    undecided_after_[c] = undecided[c] + flipped - adopted;
  }
  // The exact chain preserves decided >= 1 globally (a flip needs a
  // differently-decided initiator); reject a draw that would leave the
  // absorbing all-undecided state.
  if (decided_after == 0) return false;
  for (std::size_t i = 0; i < classes * k; ++i) {
    opinions[i] = opinions[i] + adopt[i] - flip[i];
  }
  for (std::size_t c = 0; c < classes; ++c) undecided[c] = undecided_after_[c];
  return true;
}

}  // namespace kusd::core
