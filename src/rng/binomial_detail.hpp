// The BINV/BTRS sampler arithmetic behind the scalar sampler
// (rng::binomial) and the multinomial chain (Rng::multinomial_into).
//
// Everything here is the single source of truth for the sampler's
// floating-point expressions, so every caller draws bit-identically and
// one set of tests pins them all. The setup structs hold the per-(n, p)
// constants, computed once per draw in a fixed evaluation order.
//
// `Uniforms` in the templated samplers is anything with a uniform01()
// returning doubles in [0, 1) (rng::Rng).
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "rng/binomial.hpp"

namespace kusd::rng::detail {

// BINV gives up after this many inversion steps and restarts with a fresh
// uniform: with np < 10 the region beyond is ~1e-60 probability, but a
// floating-point-underflowed pmf recurrence could otherwise spin to n.
inline constexpr std::uint64_t kBinvCutoff = 110;

// A squeeze-missing BTRS candidate within this distance of the mode runs
// the accept test in the linear domain (a short product of pmf ratios, no
// libm at all) instead of the log domain. pmf(m +- 64)/pmf(m) is at most
// ~exp(-64^2 / (2 * spq^2)) — far above double underflow for every spq
// this branch sees — and 64 terms of 1-2 ulp each keep the product's
// relative error ~1e-14, the same order as the log path.
inline constexpr double kNearModeWindow = 64.0;

// The np threshold splitting BINV (below) from BTRS (above).
inline constexpr double kBtrsCutoff = 10.0;

/// ln(1 - p) without a libm call for small p: the Mercator series
/// truncated after p^5 has absolute error < p^6/6, so for p <= 1e-4 the
/// error in n * ln(q) stays below 1e-12 even at n = 1e8 — far inside the
/// sampler's documented log-domain tolerance. Matters because the
/// tau-leap draws mostly tiny per-family probabilities, making this the
/// common BINV setup path.
inline double log1m(double p) {
  if (p > 1e-4) return std::log1p(-p);
  const double p2 = p * p;
  return -(p + p2 * (0.5 + p * (1.0 / 3.0)) +
           p2 * p2 * (0.25 + p * 0.2));
}

/// exp(z) for |z| < 0.09 via a degree-7 Taylor polynomial: the truncation
/// error z^8/8! is below 1e-13 on that interval, matching libm's accuracy
/// for this use. Over half the tau-leap's BINV setups land here (tiny
/// family probabilities make n * ln(q) nearly zero), so skipping the
/// out-of-line exp call is a measurable share of the whole draw.
inline double exp_small(double z) {
  double acc = 1.0 / 5040.0;
  acc = acc * z + 1.0 / 720.0;
  acc = acc * z + 1.0 / 120.0;
  acc = acc * z + 1.0 / 24.0;
  acc = acc * z + 1.0 / 6.0;
  acc = acc * z + 0.5;
  acc = acc * z + 1.0;
  return acc * z + 1.0;
}

/// Per-(n, p) constants of the BINV inversion (p <= 0.5, np < 10): a pure
/// function of (n, p).
struct BinvSetup {
  double s = 0.0;
  double a = 0.0;
  double r0 = 0.0;  // q^n
};

inline BinvSetup binv_setup(std::uint64_t n, double p) {
  const double q = 1.0 - p;
  BinvSetup setup;
  setup.s = p / q;
  setup.a = (static_cast<double>(n) + 1.0) * setup.s;
  const double z = static_cast<double>(n) * log1m(p);
  setup.r0 = z > -0.09 ? exp_small(z) : std::exp(z);
  return setup;
}

/// Inversion by sequential search for small means (np < 10, p <= 0.5).
template <typename Uniforms>
std::uint64_t binv(Uniforms& uniforms, const BinvSetup& setup,
                   std::uint64_t n) {
  for (;;) {
    double u = uniforms.uniform01();
    double r = setup.r0;
    std::uint64_t x = 0;
    while (u > r) {
      if (x >= n) return n;  // all remaining mass sits at x = n
      u -= r;
      ++x;
      if (x > kBinvCutoff) break;
      r *= setup.a / static_cast<double>(x) - setup.s;
    }
    if (x <= kBinvCutoff) return x;
  }
}

// fdlibm's split of ln(2): kLn2Hi carries 32 significand bits, so
// e * kLn2Hi is exact for every exponent |e| <= 1074.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kSqrt2 = 1.4142135623730951;

/// ln(x) for x in [0, inf) without libm: exponent peel-off via the bit
/// pattern, then the atanh series on the mantissa centered at 1,
///   ln(m) = 2 atanh(s) = 2s (1 + s^2/3 + s^4/5 + ...),
/// with m in [sqrt2/2, sqrt2] so |s| <= 0.1716 and the truncated tail
/// s^20/21 is below 3e-16 relative. Total error ~2 ulp — the same order
/// as a libm log, but with one fixed, exactly-specified operation
/// sequence: every accept decision downstream of this function is
/// identical on every platform and libm version, which a vendor log
/// (accurate but not correctly rounded) cannot promise. Every operation
/// is an IEEE-754 basic op.
inline double log_pos(double x) {
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  int e = static_cast<int>(bits >> 52) - 1023;
  if (e == -1023) {  // subnormal: renormalize first
    bits = std::bit_cast<std::uint64_t>(x * 0x1.0p54);
    e = static_cast<int>(bits >> 52) - 1023 - 54;
  }
  // Branchless range reduction to [sqrt2/2, sqrt2]: with the exponent
  // pinned, m > sqrt2 is an integer compare of mantissa fields, and
  // halving is an exponent-field decrement (grafting 0x3FE instead of
  // 0x3FF). A conditional `m *= 0.5` here is a 50/50 data-dependent
  // branch that mispredicts on half of all calls — and the accept test
  // makes up to six log_pos calls back to back.
  const std::uint64_t mant = bits & 0x000FFFFFFFFFFFFFULL;
  const bool big = mant > (std::bit_cast<std::uint64_t>(kSqrt2) &
                           0x000FFFFFFFFFFFFFULL);
  e += static_cast<int>(big);
  const double m = std::bit_cast<double>(
      mant | (big ? 0x3FE0000000000000ULL : 0x3FF0000000000000ULL));
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  // Estrin evaluation of sum z^k / (2k + 3), k = 0..9: same accuracy as
  // Horner but ~30 cycles of dependency depth instead of ~90 — the
  // accept test's log calls sit on the draw's critical path.
  const double z2 = z * z;
  const double z4 = z2 * z2;
  const double p0 = 1.0 / 3.0 + (1.0 / 5.0) * z;
  const double p1 = 1.0 / 7.0 + (1.0 / 9.0) * z;
  const double p2 = 1.0 / 11.0 + (1.0 / 13.0) * z;
  const double p3 = 1.0 / 15.0 + (1.0 / 17.0) * z;
  const double p4 = 1.0 / 19.0 + (1.0 / 21.0) * z;
  const double poly = (p0 + p1 * z2) + z4 * ((p2 + p3 * z2) + z4 * p4);
  const double de = static_cast<double>(e);
  return de * kLn2Hi + ((2.0 * s) * (z * poly) + (de * kLn2Lo + 2.0 * s));
}

inline constexpr double kHalfLogTwoPi =
    0.91893853320467274178;  // ln(2*pi)/2

// Exact-table size for log_factorial: large enough that the Stirling
// tail's worst case (k = kLogFactorialTableSize) is deep inside its
// accuracy regime.
inline constexpr std::size_t kLogFactorialTableSize = 128;

// ln(k!) for k < kLogFactorialTableSize, each entry the correctly-rounded
// double of the exact value (integer k! through 50-digit decimal ln). A
// literal table rather than a libm accumulation at startup: long-double
// log differs across platforms (x87 80-bit vs IEEE quad vs plain
// double), and a last-ulp table difference would make BTRS accept
// decisions — and so whole draw streams — platform-dependent.
inline constexpr std::array<double, kLogFactorialTableSize>
    kLogFactorialTable = {
      0x0.0p+0, 0x0.0p+0, 0x1.62e42fefa39efp-1, 0x1.cab0bfa2a2002p+0,
      0x1.96ca77c922cf9p+1, 0x1.326643c4479c9p+2, 0x1.a51273acf01cap+2, 0x1.10ce1f32dcc30p+3,
      0x1.5358e82fcb70dp+3, 0x1.99a8921a7f7cfp+3, 0x1.e357590954d15p+3, 0x1.180973f3a8d74p+4,
      0x1.3fcba16d50143p+4, 0x1.68d5a9c3b32cep+4, 0x1.930f3df162a42p+4, 0x1.be636a63fd346p+4,
      0x1.eabff061f1a84p+4, 0x1.0c0a63f2f353ap+5, 0x1.2329df2d5ee52p+5, 0x1.3ab8153363985p+5,
      0x1.52af57aed77bep+5, 0x1.6b0a8643472a9p+5, 0x1.83c4faba84f06p+5, 0x1.9cda78b856a45p+5,
      0x1.b6472034e8d14p+5, 0x1.d007622cd65e7p+5, 0x1.ea17f717c6794p+5, 0x1.023aeb67e4fefp+6,
      0x1.0f8f18d330240p+6, 0x1.1d07353917231p+6, 0x1.2aa208b59d0e5p+6, 0x1.385e6fd9e5a40p+6,
      0x1.463b59b942084p+6, 0x1.5437c633ace4ap+6, 0x1.6252c474896bap+6, 0x1.708b719e11658p+6,
      0x1.7ee0f79b26758p+6, 0x1.8d528c1243d96p+6, 0x1.9bdf6f75257a3p+6, 0x1.aa86ec2969812p+6,
      0x1.b94855c702ba2p+6, 0x1.c8230869ca105p+6, 0x1.d7166813e12eep+6, 0x1.e621e01eeba4fp+6,
      0x1.f544e2ba69cf1p+6, 0x1.023f743addd9fp+7, 0x1.09e7b7ea41ea9p+7, 0x1.119afe762626bp+7,
      0x1.19590c853a559p+7, 0x1.2121a930c6ec3p+7, 0x1.28f49ddeb1f31p+7, 0x1.30d1b61e86335p+7,
      0x1.38b8bf8931ddbp+7, 0x1.40a989a33a6cdp+7, 0x1.48a3e5c12af19p+7, 0x1.50a7a6ee08711p+7,
      0x1.58b4a1d39da73p+7, 0x1.60caaca474746p+7, 0x1.68e99f0757979p+7, 0x1.711152043b2c4p+7,
      0x1.79419ff26dc59p+7, 0x1.817a6467f6fb9p+7, 0x1.89bb7c2a0aea1p+7, 0x1.9204c51e7c761p+7,
      0x1.9a561e3e1a4bdp+7, 0x1.a2af6787e4609p+7, 0x1.ab1081f509726p+7, 0x1.b3794f6d9d7afp+7,
      0x1.bbe9b2bdfb621p+7, 0x1.c4618f8cc56f7p+7, 0x1.cce0ca5179100p+7, 0x1.d567484b8b7b6p+7,
      0x1.ddf4ef7a05a70p+7, 0x1.e689a69396befp+7, 0x1.ef2554ff15148p+7, 0x1.f7c7e2cc66183p+7,
      0x1.00389c56e3462p+8, 0x1.04909ff8b652bp+8, 0x1.08ebf13dbf263p+8, 0x1.0d4a85602b129p+8,
      0x1.11ac51df8932ap+8, 0x1.16114c7e34736p+8, 0x1.1a796b3ede1acp+8, 0x1.1ee4a46236d3ep+8,
      0x1.2352ee64b46d5p+8, 0x1.27c43ffc72962p+8, 0x1.2c3890172d057p+8, 0x1.30afd5d851956p+8,
      0x1.352a089728f1bp+8, 0x1.39a71fdd14947p+8, 0x1.3e271363e0df7p+8, 0x1.42a9db142a36ap+8,
      0x1.472f6f03d410cp+8, 0x1.4bb7c77491066p+8, 0x1.5042dcd27af64p+8, 0x1.54d0a7b2ba658p+8,
      0x1.596120d23c4ecp+8, 0x1.5df4411475a1cp+8, 0x1.628a018233bedp+8, 0x1.67225b4879462p+8,
      0x1.6bbd47b7669b6p+8, 0x1.705ac0412d89fp+8, 0x1.74fabe790f7bep+8, 0x1.799d3c1265c0ep+8,
      0x1.7e4232dfb367dp+8, 0x1.82e99cd1c0368p+8, 0x1.879373f6bc4fep+8, 0x1.8c3fb2796c21cp+8,
      0x1.90ee52a05c35fp+8, 0x1.959f4ecd1c8b3p+8, 0x1.9a52a17b831ccp+8, 0x1.9f084540f545ep+8,
      0x1.a3c034cbb7b2cp+8, 0x1.a87a6ae24493ap+8, 0x1.ad36e262a7cc0p+8, 0x1.b1f59641e0db5p+8,
      0x1.b6b6818b4a3ebp+8, 0x1.bb799f600610ap+8, 0x1.c03eeaf66facdp+8, 0x1.c5065f9992226p+8,
      0x1.c9cff8a8a340dp+8, 0x1.ce9bb196830eap+8, 0x1.d36985e93f7b8p+8, 0x1.d83971399c213p+8,
      0x1.dd0b6f329dea4p+8, 0x1.e1df7b911a74cp+8, 0x1.e6b592234b0c9p+8, 0x1.eb8daec863182p+8,
};

/// Inline body of rng::log_factorial (see binomial.hpp for the
/// contract). Lives here so btrs_exact_accept inlines it.
inline double log_factorial(std::uint64_t k) {
  if (k < kLogFactorialTableSize) return kLogFactorialTable[k];
  const double dk = static_cast<double>(k);
  const double inv = 1.0 / dk;
  const double inv2 = inv * inv;
  return (dk + 0.5) * log_pos(dk) - dk + kHalfLogTwoPi +
         inv * (1.0 / 12.0 - inv2 / 360.0);
}

/// Per-(n, p) constants of Hörmann's BTRS sampler (p <= 0.5, np >= 10),
/// in the exact evaluation order of the original scalar sampler.
struct BtrsSetup {
  double dn = 0.0;
  double spq = 0.0;
  double b = 0.0;
  double a = 0.0;
  double c = 0.0;
  double v_r = 0.0;
  double m = 0.0;
  double ratio = 0.0;
};

inline BtrsSetup btrs_setup(std::uint64_t n, double p) {
  BtrsSetup setup;
  setup.dn = static_cast<double>(n);
  const double q = 1.0 - p;
  setup.spq = std::sqrt(setup.dn * p * q);
  setup.b = 1.15 + 2.53 * setup.spq;
  setup.a = -0.0873 + 0.0248 * setup.b + 0.01 * p;
  setup.c = setup.dn * p + 0.5;
  setup.v_r = 0.92 - 4.2 / setup.b;
  setup.m = std::floor((setup.dn + 1.0) * p);
  setup.ratio = p / q;
  return setup;
}

/// The log-domain accept constants, computed lazily on the first
/// far-from-mode squeeze miss of a draw and cached across that draw's
/// candidates — each is a libm call that would otherwise dominate the
/// whole draw under the tau-leap's fresh-(n, p)-per-call access pattern.
struct BtrsSlowTerms {
  double alpha = 0.0;
  double log_ratio = 0.0;
  double h = 0.0;
  bool ready = false;
};

/// Outcome of the log-bound squeeze: settled either way, or left to the
/// exact test.
enum class Squeeze { kAccept, kReject, kUndecided };

/// Upper bound on ln(dn) for dn >= 1 from the exponent field alone:
/// dn < 2^(e+1) gives ln(dn) < (e + 1) ln 2, with no libm call.
inline double log_upper(double dn) {
  const auto e = static_cast<int>(std::bit_cast<std::uint64_t>(dn) >> 52) -
                 1022;  // unbiased exponent + 1
  return static_cast<double>(e) * 0.6931471805599453;
}

/// Additive slack that keeps the squeeze's decisions identical to the
/// exact test's. The exact test is not exact: it decides on a computed
/// ln(pmf(k)/pmf(m)) whose error the squeeze must not undercut. With
/// eps = 2^-52 and j = |k - m|:
///  * j-proportional terms, shared by both tests: ln(p/q) through the
///    rounded p/q and log_pos (~1e2 eps per unit of j, |ln(p/q)| < 45
///    for np >= 10 at n < 2^64), the near-mode product (~5 eps per
///    factor, at most 64 factors), the squeeze's own t and rho (~10 eps
///    relative, both below j) and a mode m = floor((dn + 1) p) that
///    rounding can move across an integer (~2 eps per unit of j). All of
///    it sits far below 1e-12 * (1 + j).
///  * the log-factorial test alone: ln m! + ln(n-m)! - ln k! - ln(n-k)!
///    cancels four terms of size up to n ln n, each carrying a few eps
///    of relative error (Stirling body, log_pos, the rounding of n - k to
///    a double above 2^53) plus the sums' roundings: ~14 eps n ln n in
///    all, taken at 64 eps n ln n. At n = 2.5e7 this is 6e-6; at 1e12 it
///    reaches 0.4, where the squeeze mostly defers to the exact test.
/// The near-mode product never touches a log-factorial, so it skips the
/// n ln n term and keeps the squeeze's band tight at large n.
inline double btrs_squeeze_margin(double dn, double j, bool near_mode) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double linear = 1e-12 * (1.0 + j);
  return near_mode ? linear : linear + 64.0 * kEps * dn * log_upper(dn);
}

/// BTPE's log-bound squeeze (Kachitvichyanukul & Schmeiser, CACM 31(2),
/// 1988, step 5.3): for j = |k - m| < npq/2 - 1,
///   |ln(pmf(k)/pmf(m)) + j^2/(2 npq)| <= rho,
///   rho = (j/npq) ((j (j/3 + 0.625) + 1/6)/npq + 0.5),
/// so one log of the candidate's hat ratio settles almost every
/// squeeze-miss candidate without the product or the four log-factorials.
/// Widened on both sides by btrs_squeeze_margin, it only ever decides
/// where the exact test would decide the same way. Consumes no randomness.
inline Squeeze btrs_squeeze(const BtrsSetup& setup, double v, double us,
                            double kd) {
  const double npq = setup.spq * setup.spq;
  const double j = std::abs(kd - setup.m);
  if (j >= 0.5 * npq - 1.0) return Squeeze::kUndecided;
  const double inv_npq = 1.0 / npq;
  const double rho = (j * inv_npq) *
                     ((j * (j * (1.0 / 3.0) + 0.625) + 1.0 / 6.0) * inv_npq +
                      0.5);
  const double t = -(j * j) * (0.5 * inv_npq);
  const double alpha = (2.83 + 5.1 / setup.b) * setup.spq;
  const double lhs = log_pos(v * alpha / (setup.a / (us * us) + setup.b));
  const double slack =
      rho + btrs_squeeze_margin(setup.dn, j, j <= kNearModeWindow);
  if (lhs < t - slack) return Squeeze::kAccept;
  if (lhs > t + slack) return Squeeze::kReject;
  return Squeeze::kUndecided;
}

/// The exact squeeze-miss accept test: compares v against the exact pmf
/// ratio — multiplicatively when the candidate is near the mode (the
/// common miss at small spq, where the squeeze is weakest), in the log
/// domain otherwise. Consumes no randomness.
inline bool btrs_exact_accept(const BtrsSetup& setup, std::uint64_t n,
                              double v, double us, double kd,
                              BtrsSlowTerms& slow) {
  const auto k = static_cast<std::uint64_t>(kd);
  if (std::abs(kd - setup.m) <= kNearModeWindow) {
    // Accept iff v * alpha / (a/us^2 + b) <= pmf(k)/pmf(m); build the
    // ratio as a running product of one-step pmf ratios
    //   pmf(i)/pmf(i-1) = ((n - i + 1)/i) * p/q.
    double f = 1.0;
    if (kd > setup.m) {
      for (double i = setup.m + 1.0; i <= kd; i += 1.0) {
        f *= (setup.dn - i + 1.0) / i * setup.ratio;
      }
    } else {
      for (double i = kd + 1.0; i <= setup.m; i += 1.0) {
        f *= i / ((setup.dn - i + 1.0) * setup.ratio);
      }
    }
    const double alpha_lin = (2.83 + 5.1 / setup.b) * setup.spq;
    return v * alpha_lin <= f * (setup.a / (us * us) + setup.b);
  }
  if (!slow.ready) {
    slow.alpha = (2.83 + 5.1 / setup.b) * setup.spq;
    slow.log_ratio = log_pos(setup.ratio);
    slow.h = log_factorial(static_cast<std::uint64_t>(setup.m)) +
             log_factorial(n - static_cast<std::uint64_t>(setup.m));
    slow.ready = true;
  }
  const double lhs =
      log_pos(v * slow.alpha / (setup.a / (us * us) + setup.b));
  const double rhs = slow.h - log_factorial(k) - log_factorial(n - k) +
                     (kd - setup.m) * slow.log_ratio;
  return lhs <= rhs;
}

/// Squeeze-miss accept test: the log-bound squeeze first, the exact test
/// for the few candidates it leaves undecided. Since the squeeze only
/// ever agrees with the exact test, every draw is bit-identical to the
/// sampler before the squeeze existed.
inline bool btrs_accept(const BtrsSetup& setup, std::uint64_t n, double v,
                        double us, double kd, BtrsSlowTerms& slow) {
  switch (btrs_squeeze(setup, v, us, kd)) {
    case Squeeze::kAccept:
      return true;
    case Squeeze::kReject:
      return false;
    case Squeeze::kUndecided:
      break;
  }
  return btrs_exact_accept(setup, n, v, us, kd, slow);
}

/// Hörmann's BTRS transformed-rejection sampler (np >= 10, p <= 0.5):
/// ~86% of candidate pairs accept via the squeeze. Two uniforms per
/// candidate.
template <typename Uniforms>
std::uint64_t btrs(Uniforms& uniforms, const BtrsSetup& setup,
                   std::uint64_t n) {
  BtrsSlowTerms slow;
  for (;;) {
    const double u = uniforms.uniform01() - 0.5;
    const double v = uniforms.uniform01();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * setup.a / us + setup.b) * u + setup.c);
    if (kd < 0.0 || kd > setup.dn) continue;
    if (us >= 0.07 && v <= setup.v_r) return static_cast<std::uint64_t>(kd);
    if (btrs_accept(setup, n, v, us, kd, slow)) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

/// Full Binomial(n, p) draw from any uniform01 source: degenerate cases,
/// reflection for p > 0.5, and the BINV/BTRS split — the one draw path
/// every caller goes through. p must already be validated into
/// [0, 1] by the caller.
template <typename Uniforms>
std::uint64_t binomial_draw(Uniforms& uniforms, std::uint64_t n, double p) {
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const bool reflect = p > 0.5;
  const double ps = reflect ? 1.0 - p : p;
  std::uint64_t draw = 0;
  if (static_cast<double>(n) * ps < kBtrsCutoff) {
    const BinvSetup setup = binv_setup(n, ps);
    draw = binv(uniforms, setup, n);
  } else {
    const BtrsSetup setup = btrs_setup(n, ps);
    draw = btrs(uniforms, setup, n);
  }
  return reflect ? n - draw : draw;
}

}  // namespace kusd::rng::detail
