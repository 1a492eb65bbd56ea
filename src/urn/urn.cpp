#include "urn/urn.hpp"

namespace kusd::urn {

namespace {
std::variant<LinearUrn, FenwickUrn> make_backend(
    std::span<const std::uint64_t> counts) {
  if (counts.size() > kLinearThreshold) return FenwickUrn(counts);
  return LinearUrn(counts);
}
}  // namespace

Urn::Urn(std::span<const std::uint64_t> counts)
    : backend_(make_backend(counts)) {}

}  // namespace kusd::urn
