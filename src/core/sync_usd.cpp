#include "core/sync_usd.hpp"

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

SyncUsd::SyncUsd(const pp::Configuration& initial, rng::Rng rng)
    : opinions_(initial.opinions().begin(), initial.opinions().end()),
      n_(initial.n()),
      engine_(initial.k()),
      rng_(rng) {
  KUSD_CHECK_MSG(initial.undecided() == 0,
                 "the synchronized variant starts fully decided");
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

std::uint64_t SyncUsd::super_round() {
  KUSD_DCHECK(!winner_.has_value());
  const std::size_t k = opinions_.size();

  // Phase A: one USD round over a fully decided population. An agent of
  // opinion i keeps it iff the sampled partner shares it. In the (for
  // non-trivial n astronomically unlikely) event that every agent becomes
  // undecided, the round is re-run: the idealized synchronized process is
  // only defined conditioned on at least one decided survivor.
  std::vector<pp::Count> next(k, 0);
  pp::Count undecided = 0;
  do {
    next.assign(k, 0);
    undecided = engine_.decided_step(opinions_, /*undecided=*/0,
                                     /*keep_on_undecided=*/false, next, rng_);
    ++total_rounds_;
  } while (undecided == n_);

  // Phase B: undecided agents repeatedly sample until they land on a
  // decided agent, one synchronous sub-round per attempt. Partners are the
  // current (partially re-adopted) counts, so `next` aliases both roles.
  std::uint64_t sub_rounds = 0;
  while (undecided > 0) {
    undecided = engine_.adoption_step(next, undecided, undecided, next, rng_);
    ++sub_rounds;
    ++total_rounds_;
  }

  opinions_ = std::move(next);
  ++super_rounds_;
  for (std::size_t i = 0; i < k; ++i) {
    if (opinions_[i] == n_) winner_ = static_cast<int>(i);
  }
  return sub_rounds;
}

void SyncUsd::advance(std::uint64_t budget) {
  const std::uint64_t target = saturating_add(super_rounds_, budget);
  while (!is_consensus() && super_rounds_ < target) super_round();
}

}  // namespace kusd::core
