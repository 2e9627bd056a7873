// Embedding quality metrics: load, dilation, congestion.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/embedding_metrics.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(EmbeddingMetrics, IdentityEmbeddingOnSameTopology) {
  const Graph torus = make_torus(4, 4);
  std::vector<NodeId> identity(16);
  for (NodeId v = 0; v < 16; ++v) identity[v] = v;
  const EmbeddingMetrics metrics = analyze_embedding(torus, torus, identity);
  EXPECT_EQ(metrics.load, 1u);
  EXPECT_EQ(metrics.dilation, 1u);        // every guest edge is a host edge
  EXPECT_EQ(metrics.congestion, 1u);      // one path per edge
  EXPECT_DOUBLE_EQ(metrics.avg_dilation, 1.0);
  EXPECT_EQ(metrics.slowdown_lower_bound(), 1u);
}

TEST(EmbeddingMetrics, AllOnOneHostNode) {
  const Graph guest = make_cycle(8);
  const Graph host = make_path(3);
  const EmbeddingMetrics metrics = analyze_embedding(guest, host, std::vector<NodeId>(8, 1));
  EXPECT_EQ(metrics.load, 8u);
  EXPECT_EQ(metrics.dilation, 0u);  // all edges internal
  EXPECT_EQ(metrics.congestion, 0u);
  EXPECT_EQ(metrics.slowdown_lower_bound(), 8u);
}

TEST(EmbeddingMetrics, CycleOnPathHasKnownDilation) {
  // Embed C_6 on P_6 in order: edge (0,5) stretches across the whole path.
  const Graph guest = make_cycle(6);
  const Graph host = make_path(6);
  std::vector<NodeId> order(6);
  for (NodeId v = 0; v < 6; ++v) order[v] = v;
  const EmbeddingMetrics metrics = analyze_embedding(guest, host, order);
  EXPECT_EQ(metrics.dilation, 5u);
  // Every path edge carries the long edge plus the local edge: congestion 2.
  EXPECT_EQ(metrics.congestion, 2u);
  EXPECT_EQ(metrics.slowdown_lower_bound(), 5u);
}

TEST(EmbeddingMetrics, MeshOnButterflyDilationIsLogarithmic) {
  Rng rng{3};
  const Graph guest = make_mesh(8, 8);
  const Graph host = make_butterfly(3);  // 32 nodes
  const auto embedding = make_random_embedding(64, 32, rng);
  const EmbeddingMetrics metrics = analyze_embedding(guest, host, embedding);
  EXPECT_EQ(metrics.load, 2u);
  EXPECT_GE(metrics.dilation, 2u);
  EXPECT_LE(metrics.dilation, 8u);  // ~diameter of butterfly(3)
  EXPECT_GT(metrics.congestion, 0u);
}

TEST(EmbeddingMetrics, CongestionGrowsWithLoad) {
  Rng rng{4};
  const Graph host = make_butterfly(2);
  const Graph guest_small = make_random_regular(24, 4, rng);
  const Graph guest_large = make_random_regular(96, 4, rng);
  const auto m_small = analyze_embedding(
      guest_small, host, make_random_embedding(24, host.num_nodes(), rng));
  const auto m_large = analyze_embedding(
      guest_large, host, make_random_embedding(96, host.num_nodes(), rng));
  EXPECT_GT(m_large.congestion, m_small.congestion);
  EXPECT_GT(m_large.total_path_length, m_small.total_path_length);
}

TEST(EmbeddingMetrics, RejectsSizeMismatch) {
  const Graph guest = make_cycle(4);
  const Graph host = make_path(2);
  EXPECT_THROW((void)analyze_embedding(guest, host, std::vector<NodeId>(3, 0)),
               std::invalid_argument);
}

TEST(EmbeddingMetrics, RejectsOutOfRangeTarget) {
  // A target >= m must throw before any distance lookup indexes with it.
  const Graph guest = make_cycle(4);
  const Graph host = make_path(3);
  EXPECT_THROW((void)analyze_embedding(guest, host, {0, 1, 2, 3}), std::invalid_argument);
  EXPECT_THROW((void)analyze_embedding(guest, host, {0, 1, 1000000, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace upn
