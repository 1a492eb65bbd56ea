#include "core/batched_usd.hpp"

#include <algorithm>
#include <utility>

#include "core/budget.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

BatchedUsdSimulator::BatchedUsdSimulator(const pp::Configuration& initial,
                                         rng::Rng rng, ChunkOptions options)
    : BatchedUsdSimulator(
          initial, pp::DegreeClassModel({pp::DegreeClass{1.0, initial.n()}}),
          rng, options) {}

BatchedUsdSimulator::BatchedUsdSimulator(const pp::Configuration& initial,
                                         pp::DegreeClassModel model,
                                         rng::Rng rng, ChunkOptions options)
    : n_(initial.n()),
      model_(std::move(model)),
      totals_(initial.opinions().begin(), initial.opinions().end()),
      undecided_(initial.undecided()),
      controller_(options, initial.n()),
      engine_(initial.k(), static_cast<int>(model_.num_classes())),
      rng_(rng) {
  KUSD_CHECK_MSG(model_.num_vertices() == n_,
                 "degree model covers the wrong number of vertices");
  KUSD_CHECK_MSG(model_.total_degree() > 0.0,
                 "degree model has no interacting vertices");
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");

  const std::size_t k = totals_.size();
  const std::size_t classes = model_.num_classes();
  for (const auto& c : model_.classes()) class_weights_.push_back(c.degree);
  class_counts_.assign(classes * k, 0);
  class_undecided_.assign(classes, 0);
  if (classes == 1) {
    std::copy(totals_.begin(), totals_.end(), class_counts_.begin());
    class_undecided_[0] = undecided_;
  } else {
    std::vector<double> sizes;
    for (const auto& c : model_.classes()) {
      sizes.push_back(static_cast<double>(c.size));
    }
    for (std::size_t j = 0; j < k; ++j) {
      const auto split = rng_.multinomial(totals_[j], sizes);
      for (std::size_t c = 0; c < classes; ++c) {
        class_counts_[c * k + j] = split[c];
      }
    }
    const auto split = rng_.multinomial(undecided_, sizes);
    std::copy(split.begin(), split.end(), class_undecided_.begin());
  }
  refresh_totals();
}

void BatchedUsdSimulator::step(std::uint64_t max_length) {
  KUSD_DCHECK(!winner_.has_value());
  KUSD_DCHECK(max_length >= 1);
  std::uint64_t m = std::min(
      controller_.propose_classes(class_counts_, class_undecided_,
                                  class_weights_),
      max_length);
  // A frozen-rate draw can overshoot a count; halve and redraw. m == 1
  // realizes exactly one event of the chain and always succeeds, so
  // near-consensus states fall back to the exact per-interaction limit.
  while (true) {
    ++chunks_;
    if (engine_.try_async_class_chunk(class_counts_, class_undecided_,
                                      class_weights_, m, rng_)) {
      break;
    }
    controller_.on_reject();
    m = std::max<std::uint64_t>(1, m / 2);
  }
  interactions_ += m;
  refresh_totals();
}

void BatchedUsdSimulator::refresh_totals() {
  const std::size_t k = totals_.size();
  const std::size_t classes = class_undecided_.size();
  undecided_ = class_undecided_[0];
  for (std::size_t j = 0; j < k; ++j) totals_[j] = class_counts_[j];
  for (std::size_t c = 1; c < classes; ++c) {
    undecided_ += class_undecided_[c];
    for (std::size_t j = 0; j < k; ++j) {
      totals_[j] += class_counts_[c * k + j];
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (totals_[j] == n_) winner_ = static_cast<int>(j);
  }
}

void BatchedUsdSimulator::advance(std::uint64_t budget) {
  const std::uint64_t target = saturating_add(interactions_, budget);
  while (!winner_.has_value() && interactions_ < target) {
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
