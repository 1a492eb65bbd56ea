#include "core/dynamics.hpp"

#include <algorithm>

#include "core/budget.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

int VoterDynamics::update(int /*self*/, std::span<const int> sampled,
                          rng::Rng& /*rng*/) const {
  return sampled[0];
}

int TwoChoicesDynamics::update(int self, std::span<const int> sampled,
                               rng::Rng& /*rng*/) const {
  return sampled[0] == sampled[1] ? sampled[0] : self;
}

JMajorityDynamics::JMajorityDynamics(int j) : j_(j) {
  KUSD_CHECK_MSG(j >= 1, "sample size must be positive");
  name_ = std::to_string(j) + "-Majority";
}

int JMajorityDynamics::update(int /*self*/, std::span<const int> sampled,
                              rng::Rng& rng) const {
  // Find the mode of the sample; ties broken uniformly among tied opinions.
  // The sample is tiny (j <= ~16), so sort a local copy.
  std::vector<int> s(sampled.begin(), sampled.end());
  std::sort(s.begin(), s.end());
  int best_count = 0;
  int num_tied = 0;
  int choice = s[0];
  for (std::size_t i = 0; i < s.size();) {
    std::size_t jj = i;
    while (jj < s.size() && s[jj] == s[i]) ++jj;
    const int count = static_cast<int>(jj - i);
    if (count > best_count) {
      best_count = count;
      num_tied = 1;
      choice = s[i];
    } else if (count == best_count) {
      ++num_tied;
      // Reservoir tie-break: pick this opinion with probability 1/num_tied.
      if (rng.bounded(static_cast<std::uint64_t>(num_tied)) == 0) {
        choice = s[i];
      }
    }
    i = jj;
  }
  return choice;
}

int MedianRuleDynamics::update(int self, std::span<const int> sampled,
                               rng::Rng& /*rng*/) const {
  int a = self, b = sampled[0], c = sampled[1];
  // Median of three.
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return b;
}

DynamicsScheduler::DynamicsScheduler(const SamplingDynamics& dynamics,
                                     const pp::Configuration& initial,
                                     rng::Rng rng)
    : dynamics_(dynamics),
      opinions_(initial.opinions()),
      n_(initial.n()),
      rng_(rng),
      sample_buffer_(static_cast<std::size_t>(dynamics.sample_size())) {
  KUSD_CHECK_MSG(initial.undecided() == 0,
                 "sampling dynamics have no undecided state");
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

void DynamicsScheduler::step() {
  KUSD_DCHECK(!winner_.has_value());
  const int self = static_cast<int>(opinions_.sample(rng_));
  for (auto& s : sample_buffer_) {
    s = static_cast<int>(opinions_.sample(rng_));
  }
  const int next = dynamics_.update(self, sample_buffer_, rng_);
  ++activations_;
  if (next != self) {
    opinions_.move(static_cast<std::size_t>(self),
                   static_cast<std::size_t>(next));
    if (opinions_.count(static_cast<std::size_t>(next)) == n_) {
      winner_ = next;
    }
  }
}

void DynamicsScheduler::advance(std::uint64_t budget) {
  const std::uint64_t target = saturating_add(activations_, budget);
  while (!is_consensus() && activations_ < target) step();
}

std::uint64_t DynamicsScheduler::default_budget() const {
  const double n = static_cast<double>(n_);
  return saturating_cap(10.0 * n * n);
}

std::uint64_t DynamicsScheduler::default_observe_interval() const {
  return std::max<std::uint64_t>(1, n_ / 8);
}

}  // namespace kusd::core
