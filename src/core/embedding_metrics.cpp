#include "src/core/embedding_metrics.hpp"

#include <map>

#include "src/core/embedding.hpp"
#include "src/routing/policies.hpp"

namespace upn {

EmbeddingMetrics analyze_embedding(const Graph& guest, const Graph& host,
                                   const std::vector<NodeId>& embedding) {
  validate_embedding(embedding, guest.num_nodes(), host.num_nodes(), "analyze_embedding");
  EmbeddingMetrics metrics;
  metrics.load = embedding_load(embedding, host.num_nodes());

  DistanceOracle oracle{host};
  // Edge congestion accumulated over canonical directed-edge keys.  Ordered
  // map so any future per-edge emission iterates deterministically.
  std::map<std::uint64_t, std::uint32_t> edge_load;
  auto edge_key = [](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };

  std::uint64_t edges = 0;
  std::uint64_t dilation_sum = 0;
  for (NodeId u = 0; u < guest.num_nodes(); ++u) {
    for (const NodeId v : guest.neighbors(u)) {
      if (v < u) continue;  // each guest edge once
      ++edges;
      NodeId at = embedding[u];
      const NodeId target = embedding[v];
      const std::uint32_t distance = oracle.distance(at, target);
      metrics.dilation = std::max(metrics.dilation, distance);
      dilation_sum += distance;
      metrics.total_path_length += distance;
      // Walk one deterministic shortest path, salting ties by the edge id.
      const auto salt = static_cast<std::uint32_t>(edges);
      while (at != target) {
        const NodeId next = greedy_next_hop(host, oracle, at, target, salt);
        ++edge_load[edge_key(at, next)];
        at = next;
      }
    }
  }
  metrics.avg_dilation =
      edges == 0 ? 0.0 : static_cast<double>(dilation_sum) / static_cast<double>(edges);
  std::uint64_t congestion_sum = 0;
  for (const auto& [key, count] : edge_load) {
    metrics.congestion = std::max(metrics.congestion, count);
    congestion_sum += count;
  }
  metrics.avg_congestion = edge_load.empty()
                               ? 0.0
                               : static_cast<double>(congestion_sum) /
                                     static_cast<double>(edge_load.size());
  return metrics;
}

}  // namespace upn
