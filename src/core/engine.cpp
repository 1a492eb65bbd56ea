#include "core/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace kusd::core {

bool Engine::run_to_consensus(std::uint64_t max_native) {
  while (!is_consensus() && elapsed() < max_native) {
    advance(max_native - elapsed());
  }
  return is_consensus();
}

bool Engine::run_observed(std::uint64_t max_native, std::uint64_t interval,
                          const Observer& observer) {
  KUSD_CHECK_MSG(interval > 0, "observer interval must be positive");
  observer(elapsed(), counts(), undecided());
  // Boundaries saturate rather than wrap: under a saturated default
  // budget (n * T near 2^64) a wrapped boundary would never pass the
  // clock again and the catch-up loop below would spin forever.
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t next = saturating_add(elapsed(), interval);
  while (!is_consensus() && elapsed() < max_native) {
    // Advancing to the boundary (not the cap) lets exact engines land on
    // it; coarse-stepping engines overshoot by at most one step, and the
    // catch-up loop below re-aligns `next` either way.
    advance(std::min(next, max_native) - elapsed());
    if (elapsed() >= next) {
      observer(elapsed(), counts(), undecided());
      do {
        next = saturating_add(next, interval);
      } while (next <= elapsed() && next != kNever);
    }
  }
  observer(elapsed(), counts(), undecided());
  return is_consensus();
}

}  // namespace kusd::core
