#include "urn/urn.hpp"


#include "rng/rng.hpp"
namespace kusd::urn {

Urn::Urn(std::span<const std::uint64_t> counts) {
  if (counts.size() > kLinearThreshold) {
    fenwick_.emplace(counts);
  } else {
    linear_.emplace(counts);
  }
}

std::size_t Urn::size() const {
  return fenwick_ ? fenwick_->size() : linear_->size();
}

std::uint64_t Urn::total() const {
  return fenwick_ ? fenwick_->total() : linear_->total();
}

std::uint64_t Urn::count(std::size_t i) const {
  return fenwick_ ? fenwick_->count(i) : linear_->count(i);
}

std::span<const std::uint64_t> Urn::counts() const {
  return fenwick_ ? fenwick_->counts() : linear_->counts();
}

void Urn::add(std::size_t i, std::int64_t delta) {
  if (fenwick_) {
    fenwick_->add(i, delta);
  } else {
    linear_->add(i, delta);
  }
}

std::size_t Urn::sample(rng::Rng& rng) const {
  return fenwick_ ? fenwick_->sample(rng) : linear_->sample(rng);
}

std::size_t Urn::find(std::uint64_t r) const {
  return fenwick_ ? fenwick_->find(r) : linear_->find(r);
}

}  // namespace kusd::urn
