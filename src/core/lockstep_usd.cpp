#include "core/lockstep_usd.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "pp/configuration.hpp"
#include "rng/binomial.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

namespace {
/// counter_hi domain of the shared schedule's Philox stream: a fixed
/// nonzero tag so the keystream can never collide with other
/// uniform_block users keyed by the same seed at counter_hi 0.
constexpr std::uint64_t kSharedStreamDomain = 0x6b7573644c534b44ULL;
}  // namespace

LockstepRoundEngine::LockstepRoundEngine(const pp::Configuration& initial,
                                         std::span<const std::uint64_t> seeds,
                                         LockstepOptions options)
    : k_(initial.k()), n_(initial.n()), schedule_(options.schedule) {
  KUSD_CHECK_MSG(!seeds.empty(), "lockstep engine needs at least one trial");
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  const std::size_t trial_count = seeds.size();
  const auto k = static_cast<std::size_t>(k_);
  counts_.reserve(trial_count * k);
  undecided_.reserve(trial_count);
  // The initial winner scan matches BatchedUsdSimulator's constructor: a
  // configuration already at consensus finishes with zero interactions.
  int initial_winner = -1;
  for (int i = 0; i < k_; ++i) {
    if (initial.opinion(i) == n_) initial_winner = i;
  }
  if (schedule_ == LockstepSchedule::kShared) {
    // One controller, one stream, for the whole batch. The per-trial Rng
    // and controller arrays stay empty: every draw under this schedule
    // comes from the shared counter-based stream.
    shared_controller_.emplace(options.chunk, n_);
    shared_stream_.emplace(seeds[0], kSharedStreamDomain);
    shared_grow_cap_.assign(trial_count,
                            std::numeric_limits<double>::infinity());
    shared_grow_factor_ = options.chunk.adaptive.grow_factor;
  } else {
    rngs_.reserve(trial_count);
    controllers_.reserve(trial_count);
  }
  for (std::size_t t = 0; t < trial_count; ++t) {
    counts_.insert(counts_.end(), initial.opinions().begin(),
                   initial.opinions().end());
    undecided_.push_back(initial.undecided());
    if (schedule_ != LockstepSchedule::kShared) {
      rngs_.emplace_back(seeds[t]);
      controllers_.emplace_back(options.chunk, n_);
    }
  }
  interactions_.assign(trial_count, 0);
  chunks_.assign(trial_count, 0);
  winner_.assign(trial_count, initial_winner);
}

std::size_t LockstepRoundEngine::unfinished() const {
  std::size_t open = 0;
  for (const int w : winner_) open += w < 0 ? 1 : 0;
  return open;
}

void LockstepRoundEngine::advance_all(std::uint64_t target) {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t fam = 2 * k + 1;
  const std::size_t trial_count = trials();

  active_.clear();
  for (std::size_t t = 0; t < trial_count; ++t) {
    if (winner_[t] < 0 && interactions_[t] < target) {
      active_.push_back(static_cast<std::uint32_t>(t));
    }
  }
  if (active_.empty()) return;
  pending_retry_.assign(trial_count, 0);
  m_.resize(trial_count);
  remaining_.resize(trial_count);
  remaining_weight_.resize(trial_count);
  weights_.resize(trial_count * fam);
  events_.resize(trial_count * fam);

  const double total_pairs =
      static_cast<double>(n_) * static_cast<double>(n_);
  while (!active_.empty()) {
    // 1. Chunk proposals. A trial whose last draw was rejected keeps its
    //    halved length instead (the scalar engine's halve-and-redraw loop
    //    calls propose once per committed chunk, not per attempt). Under
    //    the shared schedule the one controller proposes a single length
    //    per pass from the MINIMUM admissible per-trial bound. The
    //    minimum — not a pooled/mean configuration — because the tau band
    //    must hold for each trial individually: trials drifting toward
    //    different winners average into a fictitious contested state
    //    whose huge flip rate pins a mean-configuration proposal at a
    //    handful of interactions while every real trial would admit
    //    chunks of order tol * n.
    if (schedule_ == LockstepSchedule::kShared) {
      double bound = std::numeric_limits<double>::infinity();
      std::uint64_t fresh = 0;
      for (const std::uint32_t t : active_) {
        if (pending_retry_[t] != 0) continue;
        ++fresh;
        bound = std::min(
            bound, shared_controller_->raw_bound(counts(t), undecided_[t]));
      }
      if (fresh > 0) {
        const std::uint64_t shared_m =
            shared_controller_->propose_from_bound(bound);
        for (const std::uint32_t t : active_) {
          if (pending_retry_[t] != 0) continue;
          std::uint64_t m = std::min(shared_m, target - interactions_[t]);
          // A trial recovering from a rejection re-approaches the shared
          // length geometrically (see shared_grow_cap_): without this
          // cap a trial whose admissible chunk sits below the shared
          // proposal would re-reject the full length every pass, paying
          // log2(m) halving retries per tiny commit.
          if (shared_grow_cap_[t] < static_cast<double>(m)) {
            m = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(shared_grow_cap_[t]));
          }
          m_[t] = m;
        }
      }
    } else {
      for (const std::uint32_t t : active_) {
        if (pending_retry_[t] != 0) continue;
        m_[t] = std::min(controllers_[t].propose(counts(t), undecided_[t]),
                         target - interactions_[t]);
      }
    }

    // 2. Frozen event weights, replicating RoundEngine::try_async_chunk's
    //    layout and arithmetic per trial: adopt j at [j], flip j at
    //    [k + j], no-op last. The remaining-weight accumulator mirrors
    //    Rng::multinomial_into's front-to-back sum so the conditional
    //    probabilities below are bit-identical to the scalar path.
    for (const std::uint32_t t : active_) {
      double* w = &weights_[t * fam];
      const pp::Count* x = &counts_[t * k];
      const pp::Count decided = n_ - undecided_[t];
      const double du = static_cast<double>(undecided_[t]);
      double productive = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const double xj = static_cast<double>(x[j]);
        w[j] = du * xj;
        w[k + j] = xj * static_cast<double>(decided - x[j]);
        productive += w[j] + w[k + j];
      }
      w[2 * k] = std::max(0.0, total_pairs - productive);
      // A short per-trial chunk takes multinomial_into's alias form,
      // which has no family-outer split: draw it whole from the trial's
      // own stream now. remaining_ = 0 keeps it out of phase 3.
      if (schedule_ != LockstepSchedule::kShared &&
          rng::multinomial_uses_alias(m_[t], fam)) {
        rngs_[t].multinomial_into(
            m_[t], std::span<const double>(w, fam),
            std::span<std::uint64_t>(&events_[t * fam], fam));
        remaining_[t] = 0;
        continue;
      }
      double rw = 0.0;
      for (std::size_t f = 0; f < fam; ++f) rw += w[f];
      remaining_weight_[t] = rw;
      remaining_[t] = m_[t];
      std::fill(&events_[t * fam], &events_[t * fam] + fam, 0);
    }

    // 3. The sequential-conditional multinomial, family-outer and
    //    trial-inner: each family's draws for every live trial whose
    //    chunk takes the chain form go through one binomial_batch call.
    //    Per trial the family order (and thus its stream consumption) is
    //    exactly multinomial_into's; the interleaved draws of other
    //    trials touch other streams only.
    for (std::size_t f = 0; f + 1 < fam; ++f) {
      batch_rngs_.clear();
      batch_ns_.clear();
      batch_ps_.clear();
      batch_trials_.clear();
      for (const std::uint32_t t : active_) {
        if (remaining_[t] == 0 || remaining_weight_[t] <= 0.0) continue;
        if (schedule_ != LockstepSchedule::kShared) {
          batch_rngs_.push_back(&rngs_[t]);
        }
        batch_ns_.push_back(remaining_[t]);
        batch_ps_.push_back(
            std::min(1.0, weights_[t * fam + f] / remaining_weight_[t]));
        batch_trials_.push_back(t);
      }
      batch_out_.resize(batch_trials_.size());
      if (schedule_ == LockstepSchedule::kShared) {
        rng::binomial_batch(*shared_stream_, batch_ns_, batch_ps_,
                            batch_out_);
      } else {
        rng::binomial_batch(std::span<rng::Rng* const>(batch_rngs_),
                            batch_ns_, batch_ps_, batch_out_);
      }
      for (std::size_t i = 0; i < batch_trials_.size(); ++i) {
        const std::uint32_t t = batch_trials_[i];
        events_[t * fam + f] = batch_out_[i];
        remaining_[t] -= batch_out_[i];
        remaining_weight_[t] -= weights_[t * fam + f];
      }
    }
    for (const std::uint32_t t : active_) {
      events_[t * fam + 2 * k] += remaining_[t];
    }

    // 4. Validate and commit (or reject) each trial exactly as
    //    try_async_chunk does, then compact the active list in place:
    //    finished and target-reached trials are masked out.
    std::size_t write = 0;
    std::uint64_t fresh_count = 0;
    std::uint64_t fresh_rejects = 0;
    for (const std::uint32_t t : active_) {
      ++chunks_[t];
      // pending_retry_[t] still holds its phase-1 value here: this pass
      // took the shared proposal iff the trial entered it fresh.
      const bool fresh = pending_retry_[t] == 0;
      if (fresh) ++fresh_count;
      const std::uint64_t* e = &events_[t * fam];
      pp::Count* x = &counts_[t * k];
      std::uint64_t adopted = 0;
      std::uint64_t flipped = 0;
      bool ok = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (x[j] + e[j] < e[k + j]) {
          ok = false;
          break;
        }
        adopted += e[j];
        flipped += e[k + j];
      }
      if (ok && undecided_[t] + flipped < adopted) ok = false;
      // A draw flipping every decided agent would reach the absorbing
      // all-undecided state the exact chain cannot enter.
      if (ok && undecided_[t] + flipped - adopted ==
                    static_cast<std::uint64_t>(n_)) {
        ok = false;
      }
      if (!ok) {
        // Halving stays per trial under both schedules; the shared
        // controller hears on_reject only when a majority of the fresh
        // trials rejected this pass (below). With T trials an any-reject
        // rule would fire ~T times as often as a single trial's and pin
        // the shared proposal at its floor; a lone outlier's overshoot
        // is already absorbed by its own halved retry.
        m_[t] = std::max<std::uint64_t>(1, m_[t] / 2);
        if (schedule_ == LockstepSchedule::kShared) {
          if (fresh) ++fresh_rejects;
          shared_grow_cap_[t] = static_cast<double>(m_[t]);
        } else {
          controllers_[t].on_reject();
        }
        pending_retry_[t] = 1;
        active_[write++] = t;
        continue;
      }
      for (std::size_t j = 0; j < k; ++j) {
        x[j] += e[j];
        x[j] -= e[k + j];
      }
      undecided_[t] += flipped;
      undecided_[t] -= adopted;
      interactions_[t] += m_[t];
      pending_retry_[t] = 0;
      // Geometric recovery toward the uncapped shared proposal; +inf
      // stays +inf, so never-rejected trials pay nothing here.
      if (schedule_ == LockstepSchedule::kShared) {
        shared_grow_cap_[t] *= shared_grow_factor_;
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (x[j] == n_) winner_[t] = static_cast<int>(j);
      }
      if (winner_[t] < 0 && interactions_[t] < target) {
        active_[write++] = t;
      }
    }
    active_.resize(write);
    if (shared_controller_ && fresh_rejects * 2 > fresh_count) {
      shared_controller_->on_reject();
    }
  }
}

}  // namespace kusd::core
