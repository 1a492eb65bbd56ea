// In-repo binomial sampler: BINV inversion + BTRS transformed rejection.
//
// Replaces std::binomial_distribution for three reasons:
//
//  * Speed. The tau-leap engines draw one conditional binomial per event
//    family per chunk (all but the shortest chunks, which
//    Rng::multinomial_into draws from an alias table), each with a
//    fresh (n, p); libstdc++'s sampler re-runs its lgamma-heavy
//    parameter setup on every construction, which dominates the whole
//    hot loop (~200 ns/draw at n = 1e8). BINV
//    costs a handful of multiplies for small means and BTRS (Hörmann,
//    "The generation of binomial random variates", 1993) accepts ~86% of
//    candidates with two uniforms and a few flops each.
//  * Thread cleanliness. glibc's lgamma() writes the process-global
//    `signgam` (POSIX mandates it), so concurrent trials drawing
//    binomials race on it — the one historical tsan suppression in this
//    tree. log_factorial below is a table + Stirling tail and calls no
//    libm function with hidden global state.
//  * Stream portability. The standard library's binomial algorithm is
//    unspecified, so seeded runs were only reproducible within one
//    standard library. This sampler consumes the Rng stream identically
//    everywhere.
//
// All samplers are exact-distribution (rejection, not approximation); the
// only inexactness is ~1e-12 relative error in the log-pmf used by BTRS's
// accept test, far below KS detectability (pinned by tests/test_rng.cpp).
//
// BTRS's own squeeze settles ~86% of candidates; the rest reach the
// accept test (detail::btrs_accept), which first tries BTPE's log-bound
// squeeze (Kachitvichyanukul & Schmeiser 1988, step 5.3): for
// j = |k - m| < npq/2 - 1, ln(pmf(k)/pmf(m)) lies within rho of
// -j^2/(2 npq), so one log of the candidate's hat ratio settles almost
// every miss. Only a candidate inside that band, widened by a margin,
// runs the exact test (a product of up to 64 pmf ratios near the mode,
// four log-factorials beyond). The margin bounds the floating-point error
// of both the squeeze and the exact test: 1e-12 (1 + j), plus
// 64 eps n ln n where the exact test cancels log-factorials of size
// n ln n. So the squeeze only ever decides the way the exact test would,
// and every draw, stream position and output byte is what the sampler
// produced before the squeeze existed.
#pragma once

#include <cstdint>
#include <span>

#include "rng/rng.hpp"

namespace kusd::rng {

/// ln(k!) with no lgamma: correctly-rounded literal table for small k,
/// Stirling series (two correction terms) beyond it, with the in-repo
/// log (detail::log_pos) so the value is a pure function of k on every
/// platform. Max relative error ~1e-13.
[[nodiscard]] double log_factorial(std::uint64_t k);

/// One Binomial(n, p) sample from `rng`'s stream; p in [0, 1]. The edge
/// cases n == 0, p == 0 (returns 0) and p == 1 (returns n) consume no
/// randomness, so callers skipping degenerate draws keep the same stream
/// position either way. p > 0.5 is served by reflection
/// (n - Binomial(n, 1 - p)).
[[nodiscard]] std::uint64_t binomial(Rng& rng, std::uint64_t n, double p);

/// The two exact forms behind Rng::multinomial_into, callable on their
/// own so bench_small_multinomial and the tests can run both on the same
/// inputs. Same preconditions and output contract as multinomial_into;
/// only the draws and the stream consumption differ.
void multinomial_chain_into(Rng& rng, std::uint64_t n,
                            std::span<const double> weights,
                            std::span<std::uint64_t> out);
void multinomial_alias_into(Rng& rng, std::uint64_t n,
                            std::span<const double> weights,
                            std::span<std::uint64_t> out);

}  // namespace kusd::rng
