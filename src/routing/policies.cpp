#include "src/routing/policies.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "src/obs/obs.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/properties.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

constexpr std::uint32_t kMaxButterflyDimension = 25;  // make_butterfly's limit

/// d when `graph` equals make_butterfly(d) node for node, else 0.  O(m): the
/// builder's sorted row at (l, r) is its down pair (level l-1, rows r and
/// r ^ 2^(l-1)) then its up pair (level l+1, rows r and r ^ 2^l).
std::uint32_t recognize_butterfly(const Graph& graph) {
  const std::uint32_t n = graph.num_nodes();
  std::uint32_t d = 1;
  while (d < kMaxButterflyDimension && (static_cast<std::uint64_t>(d + 1) << d) < n) ++d;
  if ((static_cast<std::uint64_t>(d + 1) << d) != n) return 0;
  const ButterflyLayout layout{d, /*wrapped=*/false};
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t level = layout.level_of(v);
    const std::uint32_t row = layout.row_of(v);
    NodeId expected[4];
    std::uint32_t count = 0;
    auto add_pair = [&](std::uint32_t other_level, std::uint32_t bit) {
      const NodeId straight = layout.id(other_level, row);
      const NodeId cross = layout.id(other_level, row ^ bit);
      expected[count++] = std::min(straight, cross);
      expected[count++] = std::max(straight, cross);
    };
    if (level > 0) add_pair(level - 1, 1u << (level - 1));
    if (level < d) add_pair(level + 1, 1u << level);
    const auto nbrs = graph.neighbors(v);
    if (nbrs.size() != count || !std::equal(nbrs.begin(), nbrs.end(), expected)) return 0;
  }
  return d;
}

/// Butterfly distance between (la, ra) and (lb, rb).  Every differing row
/// bit k needs a cross edge between levels k and k+1, so a shortest walk
/// covers levels lo..hi: it runs from la to one end of that span, across
/// to the other end, and back to lb.
std::uint32_t butterfly_distance(std::uint32_t la, std::uint32_t ra, std::uint32_t lb,
                                 std::uint32_t rb) noexcept {
  const std::uint32_t diff = ra ^ rb;
  if (diff == 0) return la > lb ? la - lb : lb - la;
  const auto low_bit = static_cast<std::uint32_t>(std::countr_zero(diff));
  const auto high_end = static_cast<std::uint32_t>(std::bit_width(diff));
  const std::uint32_t lo = std::min({la, lb, low_bit});
  const std::uint32_t hi = std::max({la, lb, high_end});
  return (hi - lo) + std::min((la - lo) + (hi - lb), (hi - la) + (lb - lo));
}

/// Swaps bits `pos` and `pos + 1` of `mask` when `flip` is 1 (flip in {0, 1}).
constexpr std::uint32_t swap_pair(std::uint32_t mask, std::uint32_t pos,
                                  std::uint32_t flip) noexcept {
  const std::uint32_t t = ((mask >> pos) ^ (mask >> (pos + 1))) & flip;
  return mask ^ ((t << pos) | (t << (pos + 1)));
}

}  // namespace

DistanceOracle::DistanceOracle(const Graph& graph)
    : graph_(&graph),
      masks_(graph.num_nodes() > 0 && graph.num_nodes() <= 8192 && graph.max_degree() <= 8) {
  UPN_OBS_SPAN("routing.oracle.build");
  bf_dim_ = recognize_butterfly(graph);
  if (bf_dim_ == 0) return;
  masks_ = false;
  // The row-XOR map (l, r) -> (l, r ^ c) is an automorphism that keeps
  // straight edges straight and cross edges cross.  So the minimizer set,
  // named as {down-straight, down-cross, up-straight, up-cross}, depends
  // only on (level(at), level(dst), row(at) ^ row(dst)): compute it with
  // dst's row at 0.  Present pairs are packed from bit 0, straight before
  // cross, so a level-0 node's up pair sits in bits 0-1.
  const std::uint32_t d = bf_dim_;
  const std::uint32_t rows = 1u << d;
  bf_masks_.resize(static_cast<std::size_t>(d + 1) * (d + 1) * rows);
  std::size_t index = 0;
  for (std::uint32_t la = 0; la <= d; ++la) {
    for (std::uint32_t lb = 0; lb <= d; ++lb) {
      for (std::uint32_t x = 0; x < rows; ++x) {
        std::uint32_t dist[4];
        std::uint32_t count = 0;
        if (la > 0) {
          dist[count++] = butterfly_distance(la - 1, x, lb, 0);
          dist[count++] = butterfly_distance(la - 1, x ^ (1u << (la - 1)), lb, 0);
        }
        if (la < d) {
          dist[count++] = butterfly_distance(la + 1, x, lb, 0);
          dist[count++] = butterfly_distance(la + 1, x ^ (1u << la), lb, 0);
        }
        const std::uint32_t best = *std::min_element(dist, dist + count);
        std::uint32_t bits = 0;
        for (std::uint32_t p = 0; p < count; ++p) bits |= (dist[p] == best ? 1u : 0u) << p;
        // count <= 4, so the mask fits u8:
        bf_masks_[index++] = static_cast<std::uint8_t>(bits);  // upn-lint-allow(narrowing-cast)
      }
    }
  }
}

std::uint32_t DistanceOracle::distance(NodeId at, NodeId dst) {
  const std::uint32_t n = graph_->num_nodes();
  UPN_REQUIRE(at < n && dst < n, "DistanceOracle::distance: node ids must be < n");
  if (bf_dim_ == 0) return to(dst)[at];
  const std::uint32_t rows_mask = (1u << bf_dim_) - 1;
  return butterfly_distance(at >> bf_dim_, at & rows_mask, dst >> bf_dim_, dst & rows_mask);
}

std::uint32_t DistanceOracle::butterfly_mask(NodeId at, NodeId dst) const noexcept {
  const std::uint32_t d = bf_dim_;
  const std::uint32_t rows_mask = (1u << d) - 1;
  const std::uint32_t la = at >> d;
  const std::uint32_t ra = at & rows_mask;
  const std::uint32_t lb = dst >> d;
  const std::uint32_t rb = dst & rows_mask;
  const std::uint32_t canonical =
      bf_masks_[((static_cast<std::size_t>(la) * (d + 1) + lb) << d) | (ra ^ rb)];
  // In the sorted row a pair's cross neighbor comes first exactly when at's
  // row has that pair's bit set.  Bits 0-1 hold the down pair (row bit
  // la-1), or at level 0 the up pair (row bit 0).  Bits 2-3 hold a middle
  // level's up pair (row bit la); at levels 0 and d they are empty, so that
  // swap is a no-op.
  const std::uint32_t first_bit = la == 0 ? 0 : la - 1;
  return swap_pair(swap_pair(canonical, 0, (ra >> first_bit) & 1u), 2, (ra >> la) & 1u);
}

const std::vector<std::uint16_t>& DistanceOracle::compute(NodeId dst) {
  UPN_OBS_SPAN("routing.oracle.build");
  const std::size_t n = graph_->num_nodes();
  if (cache_.size() <= dst) {
    cache_.resize(n);
    if (masks_) {
      mask_flat_.resize(n * n);
      mask_built_.resize(n, 0);
    }
  }
  const auto wide = bfs_distances(*graph_, dst);
  std::vector<std::uint16_t> narrow(wide.size());
  for (std::size_t v = 0; v < wide.size(); ++v) {
    if (wide[v] == kUnreachable) {
      throw std::invalid_argument{"DistanceOracle: graph must be connected"};
    }
    UPN_REQUIRE(wide[v] <= std::numeric_limits<std::uint16_t>::max());
    narrow[v] = static_cast<std::uint16_t>(wide[v]);
  }
  if (masks_ && mask_built_[dst] == 0) {
    std::uint8_t* mask = mask_flat_.data() + static_cast<std::size_t>(dst) * n;
    for (NodeId at = 0; at < wide.size(); ++at) {
      const auto nbrs = graph_->neighbors(at);
      std::uint16_t best = std::numeric_limits<std::uint16_t>::max();
      for (const NodeId u : nbrs) best = std::min(best, narrow[u]);
      std::uint8_t bits = 0;
      for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
        // p < degree <= 8, so the bit fits u8:
        if (narrow[nbrs[p]] == best) bits |= static_cast<std::uint8_t>(1u << p);  // upn-lint-allow(narrowing-cast)
      }
      mask[at] = bits;
    }
    mask_built_[dst] = 1;
  }
  cache_[dst] = std::move(narrow);
  return cache_[dst];
}

std::uint32_t greedy_next_port(const Graph& graph, DistanceOracle& oracle, NodeId at,
                               NodeId target, std::uint32_t salt) {
  // upn-contract-waive(per-hop hot path; node bounds are the router's placement invariant, and an empty minimizer set throws below)
  const auto nbrs = graph.neighbors(at);
  // Fast path: a minimizer mask names the minimizer set in neighbor-rank
  // order -- closed form on a butterfly, one byte of the oracle's mask table
  // otherwise -- replacing the distance-row gather below.  Both paths choose
  // the identical port.
  std::uint32_t mask = 0;
  if (oracle.bf_dim_ != 0) {
    mask = oracle.butterfly_mask(at, target);
  } else if (const std::uint8_t* masks = oracle.minimizer_masks(target)) {
    mask = masks[at];
  } else {
    const auto& dist = oracle.to(target);
    std::uint16_t best = std::numeric_limits<std::uint16_t>::max();
    std::uint32_t count = 0;
    std::uint32_t first = 0;
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      if (dist[nbrs[p]] < best) {
        best = dist[nbrs[p]];
        count = 1;
        first = p;
      } else if (dist[nbrs[p]] == best) {
        ++count;
      }
    }
    // Unique minimizer: hash % 1 == 0 always selects it, so skip the hash
    // and the second scan on this (most common) path.
    if (count == 1) return first;
    // Pick the (hash % count)-th minimizer: deterministic per packet, but
    // different packets spread across the tied shortest-path neighbors.
    const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
    std::uint32_t skip = static_cast<std::uint32_t>(hash % count);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      if (dist[nbrs[p]] == best) {
        if (skip == 0) return p;
        --skip;
      }
    }
    throw std::logic_error{"greedy_next_hop: no neighbor found"};
  }
  const auto count = static_cast<std::uint32_t>(std::popcount(mask));
  if (count == 1) return static_cast<std::uint32_t>(std::countr_zero(mask));
  if (count > 1) {
    const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
    // hash % count, but tie counts are tiny and usually powers of two
    // (butterfly/hypercube), where a mask beats the 64-bit division.
    const std::uint32_t skip =
        std::has_single_bit(count) ? static_cast<std::uint32_t>(hash & (count - 1))
                                   : static_cast<std::uint32_t>(hash % count);
    std::uint32_t m = mask;
    for (std::uint32_t c = skip; c > 0; --c) m &= m - 1;
    return static_cast<std::uint32_t>(std::countr_zero(m));
  }
  throw std::logic_error{"greedy_next_hop: no neighbor found"};
}

NodeId greedy_next_hop(const Graph& graph, DistanceOracle& oracle, NodeId at, NodeId target,
                       std::uint32_t salt) {
  return graph.neighbors(at)[greedy_next_port(graph, oracle, at, target, salt)];
}

NodeId GreedyPolicy::next_hop(const Graph& graph, NodeId at, const Packet& packet) {
  return greedy_next_hop(graph, oracle_, at, packet.current_target(), packet.id);
}

void ValiantPolicy::prepare(const Graph& graph, std::vector<Packet>& packets) {
  for (Packet& p : packets) {
    p.via = static_cast<NodeId>(rng_.below(graph.num_nodes()));
    p.phase = 0;
  }
}

NodeId ValiantPolicy::next_hop(const Graph& graph, NodeId at, const Packet& packet) {
  return greedy_next_hop(graph, oracle_, at, packet.current_target(), packet.id);
}

}  // namespace upn
