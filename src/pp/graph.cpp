#include "pp/graph.hpp"

#include <algorithm>
#include <queue>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::pp {

InteractionGraph::InteractionGraph(
    std::uint32_t n,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges)
    : n_(n), edges_(std::move(edges)) {
  KUSD_CHECK_MSG(n >= 2, "a graph needs at least two vertices");
  KUSD_CHECK_MSG(!edges_.empty(), "a graph needs at least one edge");
}

InteractionGraph::InteractionGraph(std::uint32_t n) : n_(n), complete_(true) {
  KUSD_CHECK_MSG(n >= 2, "a graph needs at least two vertices");
}

InteractionGraph InteractionGraph::complete(std::uint32_t n) {
  return InteractionGraph(n);
}

std::pair<std::uint32_t, std::uint32_t> InteractionGraph::edge(
    std::size_t i) const {
  if (!complete_) return edges_[i];
  // Linear index over the upper triangle: row u covers indices
  // [u*n - u*(u+1)/2, ...) of length n - 1 - u.
  std::uint32_t u = 0;
  std::uint64_t rem = i;
  while (rem >= static_cast<std::uint64_t>(n_ - 1 - u)) {
    rem -= n_ - 1 - u;
    ++u;
  }
  return {u, static_cast<std::uint32_t>(u + 1 + rem)};
}

InteractionGraph InteractionGraph::cycle(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return InteractionGraph(n, std::move(edges));
}

InteractionGraph InteractionGraph::random_regular(std::uint32_t n, int d,
                                                  rng::Rng& rng) {
  KUSD_CHECK_MSG(d >= 1 && static_cast<std::uint32_t>(d) < n,
                 "degree out of range");
  KUSD_CHECK_MSG((static_cast<std::uint64_t>(n) * d) % 2 == 0,
                 "n * d must be even");
  // Configuration model with retry on collisions; drop residual
  // self-loops / multi-edges (degree error is O(d^2/n)).
  std::vector<std::uint32_t> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (int i = 0; i < d; ++i) stubs.push_back(v);
  }
  // One reused pair list per attempt; sorting and de-duplicating it gives
  // the last attempt's edges in (u, v) order.
  constexpr int kAttempts = 50;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(stubs.size() / 2);
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    edges.clear();
    rng.shuffle(std::span<std::uint32_t>(stubs));
    bool clean = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      std::uint32_t u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        clean = false;
        continue;
      }
      if (u > v) std::swap(u, v);
      edges.emplace_back(u, v);
    }
    // A self-loop already rejects this pairing; only the last attempt's
    // edges are kept, so sort only when they may be.
    if (!clean && attempt + 1 < kAttempts) continue;
    std::sort(edges.begin(), edges.end());
    const auto last = std::unique(edges.begin(), edges.end());
    if (last != edges.end()) clean = false;
    edges.erase(last, edges.end());
    if (clean) break;  // otherwise keep the de-duplicated edge list
  }
  return InteractionGraph(n, std::move(edges));
}

namespace {
// The next candidate edge index after `idx` and a geometric gap: idx + 1 +
// gap, saturating at the uint64 max (a saturated gap is past every edge).
std::uint64_t next_edge_index(std::uint64_t idx, std::uint64_t gap) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  return gap >= kMax - idx ? kMax : idx + 1 + gap;
}
}  // namespace

InteractionGraph InteractionGraph::erdos_renyi(std::uint32_t n, double p,
                                               rng::Rng& rng) {
  KUSD_CHECK_MSG(p > 0.0 && p <= 1.0, "edge probability out of range");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  // Geometric skipping over the (n choose 2) potential edges.
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = p < 1.0 ? rng.geometric_failures(p) : 0;
  // Map linear index -> (u, v), u < v: row u covers indices
  // [row_start, row_start + n-1-u). Indices only grow, so the row and its
  // start carry over from one edge to the next: O(n + #edges) in all.
  std::uint32_t u = 0;
  std::uint64_t row_start = 0;
  while (idx < total) {
    while (idx - row_start >= static_cast<std::uint64_t>(n - 1 - u)) {
      row_start += n - 1 - u;
      ++u;
    }
    const auto v = static_cast<std::uint32_t>(u + 1 + (idx - row_start));
    edges.emplace_back(u, v);
    idx = next_edge_index(idx, p < 1.0 ? rng.geometric_failures(p) : 0);
  }
  KUSD_CHECK_MSG(!edges.empty(), "G(n,p) came out empty; increase p");
  return InteractionGraph(n, std::move(edges));
}

std::pair<std::uint32_t, std::uint32_t> InteractionGraph::sample_pair(
    rng::Rng& rng) const {
  if (complete_) {
    // Uniform ordered pair of distinct vertices — identical in law to
    // edge-then-orientation, without touching an edge list.
    const auto u = static_cast<std::uint32_t>(rng.bounded(n_));
    auto v = static_cast<std::uint32_t>(rng.bounded(n_ - 1));
    if (v >= u) ++v;
    return {u, v};
  }
  const auto& e = edges_[static_cast<std::size_t>(rng.bounded(
      static_cast<std::uint64_t>(edges_.size())))];
  return rng.bernoulli(0.5) ? std::make_pair(e.first, e.second)
                            : std::make_pair(e.second, e.first);
}

bool InteractionGraph::is_connected() const {
  if (complete_) return true;
  std::vector<std::vector<std::uint32_t>> adj(n_);
  for (const auto& [u, v] : edges_) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<bool> seen(n_, false);
  std::queue<std::uint32_t> frontier;
  frontier.push(0);
  seen[0] = true;
  std::uint32_t visited = 1;
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    for (std::uint32_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        frontier.push(v);
      }
    }
  }
  return visited == n_;
}

}  // namespace kusd::pp
