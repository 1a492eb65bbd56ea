// Urn: category counts with weighted sampling.
//
// The population protocol schedulers never look at individual agents; the
// configuration is a vector of counts per state, and picking a uniformly
// random agent is sampling a category proportionally to its count. Two
// interchangeable backends are provided:
//
//  * LinearUrn  — O(k) scan per sample; fastest for small k (cache-friendly).
//  * FenwickUrn — O(log k) per sample and per update; wins for large k.
//
// Urn holds one of them in a std::variant, picked at construction by
// kLinearThreshold (chosen from the ablation in bench_throughput). Its
// forwarding members are inline but still branch on the backend per call;
// a hot loop calls visit() once and runs on the concrete backend instead
// (core::UsdSimulator::advance does).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "rng/rng.hpp"
#include "urn/fenwick.hpp"
#include "util/check.hpp"

namespace kusd::urn {

/// O(k)-sampling urn backed by a plain count array.
class LinearUrn {
 public:
  explicit LinearUrn(std::span<const std::uint64_t> counts)
      : counts_(counts.begin(), counts.end()) {
    total_ = 0;
    for (auto c : counts_) total_ += c;
  }

  [[nodiscard]] std::size_t size() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return counts_;
  }

  void add(std::size_t i, std::int64_t delta) {
    KUSD_DCHECK(delta >= 0 ||
                counts_[i] >= static_cast<std::uint64_t>(-delta));
    counts_[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[i]) + delta);
    total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) +
                                        delta);
  }

  /// Sample a category proportionally to its count.
  [[nodiscard]] std::size_t sample(rng::Rng& rng) const {
    return find(rng.bounded(total_));
  }

  /// Category owning position r, for r in [0, total()).
  [[nodiscard]] std::size_t find(std::uint64_t r) const {
    KUSD_DCHECK(r < total_);
    for (std::size_t i = 0;; ++i) {
      if (r < counts_[i]) return i;
      r -= counts_[i];
    }
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// O(log k)-sampling urn backed by a Fenwick tree. Keeps a mirror count
/// array so count() is O(1).
class FenwickUrn {
 public:
  explicit FenwickUrn(std::span<const std::uint64_t> counts)
      : counts_(counts.begin(), counts.end()), tree_(counts) {}

  [[nodiscard]] std::size_t size() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return tree_.total(); }
  [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return counts_;
  }

  void add(std::size_t i, std::int64_t delta) {
    KUSD_DCHECK(delta >= 0 ||
                counts_[i] >= static_cast<std::uint64_t>(-delta));
    counts_[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[i]) + delta);
    tree_.add(i, delta);
  }

  [[nodiscard]] std::size_t sample(rng::Rng& rng) const {
    KUSD_DCHECK(total() > 0);
    return tree_.find(rng.bounded(total()));
  }

  [[nodiscard]] std::size_t find(std::uint64_t r) const {
    return tree_.find(r);
  }

 private:
  std::vector<std::uint64_t> counts_;
  Fenwick tree_;
};

/// Engine crossover (categories): LinearUrn up to this many, FenwickUrn
/// above. Chosen from bench_throughput (BM_UrnEngine).
inline constexpr std::size_t kLinearThreshold = 64;

/// Polymorphic-by-value urn: holds a LinearUrn or a FenwickUrn, picked at
/// construction by kLinearThreshold.
class Urn {
 public:
  explicit Urn(std::span<const std::uint64_t> counts);

  /// Call `f` with the concrete backend (LinearUrn& or FenwickUrn&).
  template <typename F>
  decltype(auto) visit(F&& f) {
    return std::visit(std::forward<F>(f), backend_);
  }
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), backend_);
  }

  [[nodiscard]] std::size_t size() const {
    return visit([](const auto& u) { return u.size(); });
  }
  [[nodiscard]] std::uint64_t total() const {
    return visit([](const auto& u) { return u.total(); });
  }
  [[nodiscard]] std::uint64_t count(std::size_t i) const {
    return visit([i](const auto& u) { return u.count(i); });
  }
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return visit([](const auto& u) { return u.counts(); });
  }
  [[nodiscard]] bool uses_fenwick() const {
    return std::holds_alternative<FenwickUrn>(backend_);
  }

  void add(std::size_t i, std::int64_t delta) {
    visit([i, delta](auto& u) { u.add(i, delta); });
  }
  [[nodiscard]] std::size_t sample(rng::Rng& rng) const {
    return visit([&rng](const auto& u) { return u.sample(rng); });
  }
  [[nodiscard]] std::size_t find(std::uint64_t r) const {
    return visit([r](const auto& u) { return u.find(r); });
  }

  /// Move one unit from category `from` to category `to`.
  void move(std::size_t from, std::size_t to) {
    if (from == to) return;
    visit([from, to](auto& u) {
      u.add(from, -1);
      u.add(to, +1);
    });
  }

 private:
  std::variant<LinearUrn, FenwickUrn> backend_;
};

}  // namespace kusd::urn
