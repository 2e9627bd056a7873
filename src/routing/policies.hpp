// Routing policies for the synchronous router.
//
//  * GreedyPolicy  -- forward along a BFS shortest path; ties broken by a
//                     per-packet hash so load spreads over equal-length paths.
//  * ValiantPolicy -- two-phase randomized routing: first to a uniformly
//                     random intermediate node, then to the destination.
//                     Destroys adversarial correlation in the demand pattern;
//                     the classic online technique for h-h routing that
//                     Section 2 invokes for simulating the complete network.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/routing/router.hpp"
#include "src/topology/graph.hpp"
#include "src/util/rng.hpp"

namespace upn {

/// Shortest-path distances and minimizer port sets, shared by policies.
///
/// A host that is `make_butterfly(d)` node for node is served in closed
/// form.  The constructor checks that structurally in O(m): the node count
/// is (d+1)*2^d and every sorted adjacency row is the builder's straight /
/// cross row.  Wrapped, faulted or relabelled butterflies fail the check.
/// Every other graph gets lazily built per-destination BFS rows and, for
/// n <= 8192 and degree <= 8, a per-destination minimizer-mask row.
class DistanceOracle {
 public:
  explicit DistanceOracle(const Graph& graph);

  /// Length of a shortest at -> dst path.  Both ids must be graph nodes.
  [[nodiscard]] std::uint32_t distance(NodeId at, NodeId dst);

  /// d when the graph was recognised as make_butterfly(d), else 0.
  [[nodiscard]] std::uint32_t butterfly_dimension() const noexcept { return bf_dim_; }

 private:
  friend std::uint32_t greedy_next_port(const Graph& graph, DistanceOracle& oracle, NodeId at,
                                        NodeId target, std::uint32_t salt);

  /// Distance vector from every node to `dst` (BFS, cached).  The cache is
  /// indexed directly by destination -- one hot next_hop call per packet hop
  /// lands here, so the lookup must be a load, not a hash probe.
  [[nodiscard]] const std::vector<std::uint16_t>& to(NodeId dst) {
    if (dst < cache_.size() && !cache_[dst].empty()) return cache_[dst];
    return compute(dst);
  }

  /// Per-node bitmask of the ports (neighbor ranks) minimizing the distance
  /// to `dst`: bit p of `minimizer_masks(dst)[at]` is set iff neighbors(at)[p]
  /// lies on a shortest at->dst path.  One byte encodes the whole greedy
  /// choice set, so the hot next_hop path costs a single load instead of a
  /// gather over the distance row.  The table is one flat n*n array with a
  /// byte of built-flags per destination -- no per-row vector headers to
  /// chase.  nullptr when a degree exceeds 8 or the graph is too large.
  [[nodiscard]] const std::uint8_t* minimizer_masks(NodeId dst) {
    if (!masks_) return nullptr;
    if (mask_built_.empty() || mask_built_[dst] == 0) static_cast<void>(compute(dst));
    return mask_flat_.data() + static_cast<std::size_t>(dst) * graph_->num_nodes();
  }

  /// The butterfly counterpart of minimizer_masks(dst)[at], in the same
  /// neighbor-rank order.  Only valid when bf_dim_ != 0.
  [[nodiscard]] std::uint32_t butterfly_mask(NodeId at, NodeId dst) const noexcept;

  [[nodiscard]] const std::vector<std::uint16_t>& compute(NodeId dst);

  const Graph* graph_;
  bool masks_;  ///< port masks fit u8 and the flat table fits memory
  std::vector<std::vector<std::uint16_t>> cache_;  // by dst; empty = unbuilt
  std::vector<std::uint8_t> mask_flat_;   // n*n, row dst = masks toward dst
  std::vector<std::uint8_t> mask_built_;  // by dst; 1 = row of mask_flat_ valid
  std::uint32_t bf_dim_ = 0;              // d of a recognised butterfly, else 0
  // Recognised butterfly only: canonical minimizer masks indexed by
  // (level(at), level(dst), row(at) XOR row(dst)); see butterfly_mask.
  std::vector<std::uint8_t> bf_masks_;
};

class GreedyPolicy final : public RoutingPolicy {
 public:
  explicit GreedyPolicy(const Graph& graph) : oracle_(graph) {}

  [[nodiscard]] NodeId next_hop(const Graph& graph, NodeId at, const Packet& packet) override;
  [[nodiscard]] std::string name() const override { return "greedy"; }

  /// The policy's distance oracle, exposed so the router's devirtualized
  /// fast path can call greedy_next_port() without the virtual dispatch.
  [[nodiscard]] DistanceOracle& oracle() noexcept { return oracle_; }

 private:
  DistanceOracle oracle_;
};

class ValiantPolicy final : public RoutingPolicy {
 public:
  ValiantPolicy(const Graph& graph, std::uint64_t seed) : oracle_(graph), rng_(seed) {}

  /// Assigns every packet a uniform random intermediate node.
  void prepare(const Graph& graph, std::vector<Packet>& packets) override;
  [[nodiscard]] NodeId next_hop(const Graph& graph, NodeId at, const Packet& packet) override;
  [[nodiscard]] std::string name() const override { return "valiant"; }

  /// See GreedyPolicy::oracle().
  [[nodiscard]] DistanceOracle& oracle() noexcept { return oracle_; }

 private:
  DistanceOracle oracle_;
  Rng rng_;
};

/// Shared helper: the neighbor of `at` that minimizes distance to `target`,
/// with hash-based tie-breaking among equally good neighbors.
[[nodiscard]] NodeId greedy_next_hop(const Graph& graph, DistanceOracle& oracle, NodeId at,
                                     NodeId target, std::uint32_t salt);

/// Port-index variant of greedy_next_hop: returns p such that
/// graph.neighbors(at)[p] == greedy_next_hop(...).  Graphs are simple (no
/// parallel edges), so the chosen neighbor's port is unique and the caller
/// can derive its directed-link slot without re-scanning the adjacency row.
[[nodiscard]] std::uint32_t greedy_next_port(const Graph& graph, DistanceOracle& oracle,
                                             NodeId at, NodeId target, std::uint32_t salt);

}  // namespace upn
