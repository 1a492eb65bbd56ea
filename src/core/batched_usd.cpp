#include "core/batched_usd.hpp"

#include <algorithm>

#include "core/budget.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

BatchedUsdSimulator::BatchedUsdSimulator(const pp::Configuration& initial,
                                         rng::Rng rng, ChunkOptions options)
    : opinions_(initial.opinions().begin(), initial.opinions().end()),
      undecided_(initial.undecided()),
      n_(initial.n()),
      controller_(options, initial.n()),
      engine_(initial.k()),
      rng_(rng) {
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

void BatchedUsdSimulator::step(std::uint64_t max_length) {
  KUSD_DCHECK(!winner_.has_value());
  KUSD_DCHECK(max_length >= 1);
  std::uint64_t m =
      std::min(controller_.propose(opinions_, undecided_), max_length);
  // A frozen-rate draw can overshoot a count; halve and redraw. m == 1
  // realizes exactly one interaction-chain event and always succeeds.
  while (true) {
    ++chunks_;
    if (engine_.try_async_chunk(opinions_, undecided_, n_, m, rng_)) break;
    controller_.on_reject();
    m = std::max<std::uint64_t>(1, m / 2);
  }
  interactions_ += m;
  for (std::size_t i = 0; i < opinions_.size(); ++i) {
    if (opinions_[i] == n_) winner_ = static_cast<int>(i);
  }
}

void BatchedUsdSimulator::advance(std::uint64_t budget) {
  const std::uint64_t target = saturating_add(interactions_, budget);
  while (!is_consensus() && interactions_ < target) {
    step(target - interactions_);
  }
}

std::uint64_t BatchedUsdSimulator::default_budget() const {
  return default_interaction_cap(n_, k());
}

std::uint64_t BatchedUsdSimulator::default_observe_interval() const {
  return std::max<std::uint64_t>(1, n_ / 8);
}

}  // namespace kusd::core
