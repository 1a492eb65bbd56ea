// E10 — engineering ablation (google-benchmark): throughput of the
// simulation engines and the design choices DESIGN.md calls out:
//   * plain vs skip-unproductive stepping, one step() at a time and
//     through advance()'s event loop,
//   * linear vs Fenwick urn,
//   * count-based vs agent-based scheduling,
//   * gossip-model round cost.
//
// items_processed counts *simulated interactions*, so the skip engine's
// advantage (many interactions per productive step) shows up directly in
// items_per_second.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "pp/scheduler.hpp"
#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace {

using namespace kusd;

// Step a UsdSimulator for the benchmark loop, transparently restarting
// (outside the timed region) whenever consensus is reached.
class UsdStepper {
 public:
  UsdStepper(pp::Configuration x0, core::StepMode mode)
      : x0_(std::move(x0)), mode_(mode), sim_(make()) {}

  void step(benchmark::State& state) {
    if (sim_.is_consensus()) {
      state.PauseTiming();
      interactions_done_ += sim_.interactions();
      sim_ = make();
      state.ResumeTiming();
    }
    sim_.step();
  }

  [[nodiscard]] std::int64_t interactions() const {
    return static_cast<std::int64_t>(interactions_done_ +
                                     sim_.interactions());
  }

 private:
  core::UsdSimulator make() {
    return core::UsdSimulator(x0_, rng::Rng(++seed_), mode_);
  }

  pp::Configuration x0_;
  core::StepMode mode_;
  std::uint64_t seed_ = 0;
  std::uint64_t interactions_done_ = 0;
  core::UsdSimulator sim_;
};

void BM_UsdPlainStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  UsdStepper stepper(pp::Configuration::uniform(100000, k, 25000),
                     core::StepMode::kEveryInteraction);
  for (auto _ : state) stepper.step(state);
  state.SetItemsProcessed(stepper.interactions());
}
BENCHMARK(BM_UsdPlainStep)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

void BM_UsdSkipStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  UsdStepper stepper(pp::Configuration::uniform(100000, k, 25000),
                     core::StepMode::kSkipUnproductive);
  for (auto _ : state) stepper.step(state);
  state.SetItemsProcessed(stepper.interactions());
}
BENCHMARK(BM_UsdSkipStep)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

// advance() over a fixed budget of 2n interactions from the same start and
// seed each iteration: the loop run_to_consensus/run_observed drive, as
// opposed to the one-event step() above. per_event divides the time by
// the productive events in that budget (each moves the undecided count by
// one), counted once up front by replaying the same seed through step().
void advance_bench(benchmark::State& state, core::StepMode mode) {
  const auto k = static_cast<int>(state.range(0));
  const auto x0 = pp::Configuration::uniform(100000, k, 25000);
  const std::uint64_t budget = 2 * x0.n();
  std::uint64_t events = 0;
  core::UsdSimulator replay(x0, rng::Rng(1), mode);
  while (!replay.is_consensus() && replay.interactions() < budget) {
    const pp::Count before = replay.undecided();
    replay.step();
    if (replay.undecided() != before) ++events;
  }
  std::uint64_t interactions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::UsdSimulator sim(x0, rng::Rng(1), mode);
    state.ResumeTiming();
    sim.advance(budget);
    benchmark::DoNotOptimize(sim.undecided());
    interactions += sim.interactions();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(interactions));
  // An inverted rate: seconds per event, printed with an SI prefix (ns).
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_UsdPlainAdvance(benchmark::State& state) {
  advance_bench(state, core::StepMode::kEveryInteraction);
}
BENCHMARK(BM_UsdPlainAdvance)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

void BM_UsdSkipAdvance(benchmark::State& state) {
  advance_bench(state, core::StepMode::kSkipUnproductive);
}
BENCHMARK(BM_UsdSkipAdvance)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

// The urn engine crossover behind urn::kLinearThreshold: one sample plus
// one +1/-1 update per iteration (the USD's per-interaction urn work) on
// LinearUrn vs FenwickUrn, at a k below and above the threshold.
template <typename UrnT>
void BM_UrnEngine(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> counts(k, 1000);
  UrnT urn(counts);
  rng::Rng rng(1);
  std::int64_t delta = -1;
  for (auto _ : state) {
    // Alternate -1/+1 on the sampled category: the total stays within one
    // of its start, so the weights never drift far from uniform.
    urn.add(urn.sample(rng), delta);
    delta = -delta;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_UrnEngine, urn::LinearUrn)->Arg(16)->Arg(256);
BENCHMARK_TEMPLATE(BM_UrnEngine, urn::FenwickUrn)->Arg(16)->Arg(256);

void BM_AgentScheduler(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  core::UsdProtocol usd(k);
  const auto counts =
      pp::Configuration::uniform(100000, k, 25000).state_counts();
  pp::AgentScheduler sched(usd, counts, rng::Rng(1));
  for (auto _ : state) sched.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sched.steps()));
}
BENCHMARK(BM_AgentScheduler)->Arg(2)->Arg(16)->Arg(128);

void BM_CountScheduler(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  core::UsdProtocol usd(k);
  const auto counts =
      pp::Configuration::uniform(100000, k, 25000).state_counts();
  pp::CountScheduler sched(usd, counts, rng::Rng(1));
  for (auto _ : state) sched.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sched.steps()));
}
BENCHMARK(BM_CountScheduler)->Arg(2)->Arg(16)->Arg(128);

void BM_GossipRound(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const auto x0 = pp::Configuration::uniform(1u << 20, k, 0);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  gossip::GossipUsd g(x0, rng::Rng(++seed));
  for (auto _ : state) {
    if (g.is_consensus()) {
      state.PauseTiming();
      rounds += g.rounds();
      g = gossip::GossipUsd(x0, rng::Rng(++seed));
      state.ResumeTiming();
    }
    g.round();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((rounds + g.rounds()) * (1u << 20)));
}
BENCHMARK(BM_GossipRound)->Arg(2)->Arg(16)->Arg(64);

}  // namespace
