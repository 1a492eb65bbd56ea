#include "core/usd.hpp"

#include <algorithm>

#include "core/budget.hpp"
#include "pp/configuration.hpp"
#include "pp/protocol.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

UsdProtocol::UsdProtocol(int k) : k_(k) {
  KUSD_CHECK_MSG(k >= 1, "need at least one opinion");
}

pp::PairTransition UsdProtocol::apply(int responder, int initiator) const {
  KUSD_DCHECK(responder >= 0 && responder <= k_);
  KUSD_DCHECK(initiator >= 0 && initiator <= k_);
  const int undecided = k_;
  if (responder != undecided && initiator != undecided &&
      responder != initiator) {
    return {undecided, initiator};  // (q, q') -> (bot, q')
  }
  if (responder == undecided && initiator != undecided) {
    return {initiator, initiator};  // (bot, q') -> (q', q')
  }
  return {responder, initiator};  // unproductive
}

namespace {
std::uint64_t square(pp::Count c) {
  return static_cast<std::uint64_t>(c) * static_cast<std::uint64_t>(c);
}
}  // namespace

UsdSimulator::UsdSimulator(const pp::Configuration& initial, rng::Rng rng,
                           StepMode mode)
    : opinions_(initial.opinions()),
      undecided_(initial.undecided()),
      n_(initial.n()),
      rng_(rng),
      mode_(mode) {
  KUSD_CHECK_MSG(n_ < (std::uint64_t{1} << 32),
                 "population must fit in 32 bits (n^2 must fit in 64)");
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  sum_squares_ = 0;
  for (pp::Count c : initial.opinions()) sum_squares_ += square(c);
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

pp::Configuration UsdSimulator::configuration() const {
  return pp::Configuration(
      std::vector<pp::Count>(opinions_.counts().begin(),
                             opinions_.counts().end()),
      undecided_);
}

template <StepMode Mode, typename Backend>
void UsdSimulator::run_events(Backend& opinions, const std::uint64_t target) {
  // The hot state lives in locals for the loop (stores into the urn's
  // counts could otherwise alias the members) and is written back once.
  rng::Rng rng = rng_;
  std::uint64_t interactions = interactions_;
  pp::Count undecided = undecided_;
  std::uint64_t sum_squares = sum_squares_;
  const pp::Count n = n_;
  const double n_squared = static_cast<double>(n) * static_cast<double>(n);

  // Undecided responder adopts `opinion`; true iff that made consensus.
  const auto adopt = [&](std::size_t opinion) {
    const pp::Count support = opinions.count(opinion);
    sum_squares += 2 * support + 1;
    opinions.add(opinion, +1);
    --undecided;
    if (support + 1 != n) return false;
    winner_ = static_cast<int>(opinion);
    return true;
  };
  // Responder of `opinion` becomes undecided.
  const auto flip = [&](std::size_t opinion) {
    sum_squares -= 2 * opinions.count(opinion) - 1;
    opinions.add(opinion, -1);
    ++undecided;
  };

  while (interactions < target) {
    if constexpr (Mode == StepMode::kEveryInteraction) {
      // Sample responder and initiator as uniform agents (with
      // replacement): position < undecided means the undecided state,
      // otherwise the decided position maps to an opinion through the urn.
      const std::uint64_t r = rng.bounded(n);
      const std::uint64_t i = rng.bounded(n);
      ++interactions;
      if (i < undecided) continue;  // initiator undecided: never productive
      const std::size_t initiator = opinions.find(i - undecided);
      if (r < undecided) {
        if (adopt(initiator)) break;
        continue;
      }
      const std::size_t responder = opinions.find(r - undecided);
      if (responder != initiator) flip(responder);
    } else {
      const std::uint64_t decided = n - undecided;
      // Weights of the two productive event families, in units of
      // n^2 * prob:
      //   adopt: undecided responder, decided initiator  -> u * (n - u)
      //   flip:  decided responder, differently-decided initiator
      //          -> (n - u)^2 - r2   (Observation 6)
      const std::uint64_t w_adopt = undecided * decided;
      const std::uint64_t w_flip = decided * decided - sum_squares;
      const std::uint64_t w = w_adopt + w_flip;
      KUSD_DCHECK(w > 0);  // only zero at consensus or all-undecided
      const double q = static_cast<double>(w) / n_squared;
      // Skip the (geometric) run of unproductive interactions, then
      // realize one productive interaction from the conditional law.
      interactions += rng.geometric_failures(q) + 1;
      if (rng.bounded(w) < w_adopt) {
        if (adopt(opinions.sample(rng))) break;
      } else {
        // (responder, initiator) ~ x_j * x_l conditioned on j != l:
        // rejection on the joint sample keeps the marginals exact.
        std::size_t j = 0;
        std::size_t l = 0;
        do {
          j = opinions.sample(rng);
          l = opinions.sample(rng);
        } while (j == l);
        flip(j);
      }
    }
  }

  rng_ = rng;
  interactions_ = interactions;
  undecided_ = undecided;
  sum_squares_ = sum_squares;
}

void UsdSimulator::step() {
  KUSD_DCHECK(!winner_.has_value());
  advance(1);
}

void UsdSimulator::advance(std::uint64_t budget) {
  if (is_consensus()) return;
  const std::uint64_t target = saturating_add(interactions_, budget);
  opinions_.visit([this, target](auto& opinions) {
    if (mode_ == StepMode::kSkipUnproductive) {
      run_events<StepMode::kSkipUnproductive>(opinions, target);
    } else {
      run_events<StepMode::kEveryInteraction>(opinions, target);
    }
  });
}

std::uint64_t UsdSimulator::default_budget() const {
  return default_interaction_cap(n_, k());
}

std::uint64_t UsdSimulator::default_observe_interval() const {
  return std::max<std::uint64_t>(1, n_ / 8);
}

}  // namespace kusd::core
