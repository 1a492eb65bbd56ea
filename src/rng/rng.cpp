#include "rng/rng.hpp"

#include <cmath>

#include "rng/binomial.hpp"

namespace kusd::rng {

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  return rng::binomial(*this, n, p);
}

std::vector<std::uint64_t> Rng::multinomial(std::uint64_t n,
                                            std::span<const double> weights) {
  std::vector<std::uint64_t> out(weights.size(), 0);
  multinomial_into(n, weights, out);
  return out;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

}  // namespace kusd::rng
