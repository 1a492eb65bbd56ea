#include "rng/rng.hpp"

#include <cmath>

#include "rng/binomial.hpp"
#include "util/check.hpp"

namespace kusd::rng {

std::uint64_t Rng::bounded(std::uint64_t bound) {
  KUSD_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::geometric_failures(double p) {
  KUSD_CHECK_MSG(p > 0.0 && p <= 1.0, "geometric parameter out of range");
  if (p == 1.0) return 0;
  // Inversion: floor(log(U) / log(1-p)), U in (0,1].
  double u = 1.0 - uniform01();  // (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

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
