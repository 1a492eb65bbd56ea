#include "gossip/gossip_usd.hpp"

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::gossip {

GossipUsd::GossipUsd(const pp::Configuration& initial, rng::Rng rng)
    : opinions_(initial.opinions().begin(), initial.opinions().end()),
      undecided_(initial.undecided()),
      n_(initial.n()),
      engine_(initial.k()),
      rng_(rng) {
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

void GossipUsd::round() {
  KUSD_DCHECK(!winner_.has_value());
  const std::size_t k = opinions_.size();
  std::vector<pp::Count> next(k, 0);

  // Decided agents of opinion i: keep i iff the partner is undecided or of
  // the same opinion; otherwise become undecided. Undecided agents: adopt
  // the partner's opinion if decided. Both half-rounds sample partners from
  // the pre-round configuration.
  pp::Count next_undecided = engine_.decided_step(
      opinions_, undecided_, /*keep_on_undecided=*/true, next, rng_);
  next_undecided +=
      engine_.adoption_step(opinions_, undecided_, undecided_, next, rng_);

  opinions_ = std::move(next);
  undecided_ = next_undecided;
  ++rounds_;
  for (std::size_t i = 0; i < k; ++i) {
    if (opinions_[i] == n_) winner_ = static_cast<int>(i);
  }
}

void GossipUsd::advance(std::uint64_t budget) {
  const std::uint64_t target = core::saturating_add(rounds_, budget);
  while (!is_consensus() && rounds_ < target) round();
}

}  // namespace kusd::gossip
