// Bandwidth/flow lower bound tests ([10]-style, Section 1).
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/lowerbound/bandwidth.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(Bandwidth, IdentityEmbeddingDemand) {
  const Graph t = make_torus(4, 4);
  std::vector<NodeId> identity(16);
  for (NodeId v = 0; v < 16; ++v) identity[v] = v;
  const BandwidthBound bound = bandwidth_lower_bound(t, t, identity);
  // Each of the 32 edges contributes distance 1 in both directions.
  EXPECT_EQ(bound.total_demand, 64u);
  EXPECT_EQ(bound.link_capacity, 64u);
  EXPECT_DOUBLE_EQ(bound.multiport_bound, 1.0);
  EXPECT_DOUBLE_EQ(bound.diameter_bound, 1.0);
  EXPECT_DOUBLE_EQ(bound.single_port_bound, 8.0);  // 64 / (16/2)
}

TEST(Bandwidth, ColocatedGuestsHaveZeroDemand) {
  const Graph guest = make_cycle(8);
  const Graph host = make_path(4);
  const BandwidthBound bound =
      bandwidth_lower_bound(guest, host, std::vector<NodeId>(8, 2));
  EXPECT_EQ(bound.total_demand, 0u);
  EXPECT_DOUBLE_EQ(bound.multiport_bound, 0.0);
}

TEST(Bandwidth, BoundIsBelowMeasuredSlowdown) {
  // Soundness: the flow bound never exceeds what the simulator actually
  // needs (single-port measured slowdown).
  Rng rng{5};
  const Graph guest = make_random_regular(128, kGuestDegree, rng);
  const Graph host = make_butterfly(2);
  const auto embedding = make_random_embedding(128, host.num_nodes(), rng);
  const BandwidthBound bound = bandwidth_lower_bound(guest, host, embedding);
  UniversalSimulator sim{guest, host, embedding};
  const UniversalSimResult result = sim.run(2);
  ASSERT_TRUE(result.configs_match);
  EXPECT_GT(bound.single_port_bound, 1.0);
  EXPECT_LE(bound.single_port_bound, result.slowdown);
  EXPECT_LE(bound.multiport_bound, bound.single_port_bound);
}

TEST(Bandwidth, GrowsLinearlyWithLoad) {
  Rng rng{6};
  const Graph host = make_butterfly(2);
  const Graph guest_small = make_random_regular(2 * host.num_nodes(), 8, rng);
  const Graph guest_large = make_random_regular(8 * host.num_nodes(), 8, rng);
  const auto bound_small = bandwidth_lower_bound(
      guest_small, host, make_block_embedding(guest_small.num_nodes(), host.num_nodes()));
  const auto bound_large = bandwidth_lower_bound(
      guest_large, host, make_block_embedding(guest_large.num_nodes(), host.num_nodes()));
  const double ratio = bound_large.multiport_bound / bound_small.multiport_bound;
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);  // ~4x demand for 4x guests
}

TEST(Bandwidth, RejectsSizeMismatch) {
  const Graph guest = make_cycle(4);
  const Graph host = make_path(2);
  EXPECT_THROW((void)bandwidth_lower_bound(guest, host, std::vector<NodeId>(3, 0)),
               std::invalid_argument);
}

TEST(Bandwidth, RejectsOutOfRangeTarget) {
  // A target >= m must throw before any distance lookup indexes with it.
  const Graph guest = make_cycle(4);
  const Graph host = make_path(2);
  EXPECT_THROW((void)bandwidth_lower_bound(guest, host, {0, 1, 2, 0}), std::invalid_argument);
  EXPECT_THROW((void)bandwidth_lower_bound(guest, make_butterfly(2), {0, 1, 12, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace upn
