// Tests for the synchronous store-and-forward router and its policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/routing/hh_problem.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/hypercube.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/torus.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace upn {
namespace {

std::vector<Packet> to_packets(const HhProblem& problem) {
  std::vector<Packet> packets;
  for (const Demand& d : problem.demands()) {
    Packet p;
    p.src = d.src;
    p.dst = d.dst;
    p.via = d.dst;
    packets.push_back(p);
  }
  return packets;
}

// The port greedy_next_port must pick, derived from BFS alone: the
// minimizers of `at`'s neighbors in rank order, the (mix64 % count)-th one.
std::uint32_t reference_next_port(const Graph& g, const std::vector<std::uint32_t>& dist,
                                  NodeId at, std::uint32_t salt) {
  const auto nbrs = g.neighbors(at);
  std::uint32_t best = kUnreachable;
  for (const NodeId u : nbrs) best = std::min(best, dist[u]);
  std::vector<std::uint32_t> minimizers;
  for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
    if (dist[nbrs[p]] == best) minimizers.push_back(p);
  }
  const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
  return minimizers[hash % minimizers.size()];
}

// Every (at, dst) distance and every greedy port choice (salts 0..3) of a
// fresh oracle equals the BFS-derived reference.  ReferenceRouter shares
// the oracle, so the router differential suite cannot catch an oracle error;
// this test can.
void expect_oracle_matches_bfs(const Graph& g) {
  DistanceOracle oracle{g};
  for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
    const auto ref = bfs_distances(g, dst);
    for (NodeId at = 0; at < g.num_nodes(); ++at) {
      ASSERT_EQ(oracle.distance(at, dst), ref[at]) << g.name() << " " << at << "->" << dst;
      for (std::uint32_t salt = 0; salt < 4; ++salt) {
        ASSERT_EQ(greedy_next_port(g, oracle, at, dst, salt),
                  reference_next_port(g, ref, at, salt))
            << g.name() << " " << at << "->" << dst << " salt " << salt;
      }
    }
  }
}

// `g` with the ids of nodes a and b exchanged.
Graph swap_ids(const Graph& g, NodeId a, NodeId b) {
  auto relabel = [&](NodeId v) { return v == a ? b : v == b ? a : v; };
  GraphBuilder builder{g.num_nodes(), g.name() + " swapped"};
  for (const auto& [u, v] : g.edge_list()) builder.add_edge(relabel(u), relabel(v));
  return std::move(builder).build();
}

TEST(DistanceOracle, MatchesBfs) {
  const Graph t = make_torus(5, 5);
  DistanceOracle oracle{t};
  const auto ref = bfs_distances(t, 0);
  for (NodeId v = 0; v < t.num_nodes(); ++v) EXPECT_EQ(oracle.distance(v, 0), ref[v]);
}

TEST(DistanceOracle, ButterflyClosedFormMatchesBfs) {
  for (std::uint32_t d = 1; d <= 7; ++d) {
    const Graph b = make_butterfly(d);
    EXPECT_EQ(DistanceOracle{b}.butterfly_dimension(), d);
    expect_oracle_matches_bfs(b);
  }
}

TEST(DistanceOracle, NonButterfliesKeepBfsTables) {
  const Graph butterfly = make_butterfly(3);
  GraphBuilder one_edge{butterfly.num_nodes(), "one edge"};
  one_edge.add_edge(9, 17);  // (1, 1) -- (2, 1), a straight edge
  ASSERT_TRUE(butterfly.has_edge(9, 17));
  const Graph hosts[] = {
      make_wrapped_butterfly(3),
      make_hypercube(5),
      make_torus(5, 5),
      graph_difference(butterfly, std::move(one_edge).build(), "butterfly(3) - edge"),
      swap_ids(butterfly, 3, 20),
  };
  for (const Graph& g : hosts) {
    EXPECT_EQ(DistanceOracle{g}.butterfly_dimension(), 0u) << g.name();
    expect_oracle_matches_bfs(g);
  }
}

TEST(DistanceOracle, RejectsOutOfRangeIds) {
  const Graph b = make_butterfly(2);
  DistanceOracle oracle{b};
  EXPECT_THROW((void)oracle.distance(b.num_nodes(), 0), ContractViolation);
  EXPECT_THROW((void)oracle.distance(0, b.num_nodes()), ContractViolation);
}

TEST(GreedyPolicy, NextHopReducesDistance) {
  const Graph t = make_torus(6, 6);
  GreedyPolicy policy{t};
  DistanceOracle oracle{t};
  Packet p;
  p.dst = 20;
  p.via = 20;
  for (NodeId at = 0; at < t.num_nodes(); ++at) {
    if (at == p.dst) continue;
    const NodeId next = policy.next_hop(t, at, p);
    EXPECT_TRUE(t.has_edge(at, next));
    EXPECT_EQ(oracle.distance(next, 20) + 1, oracle.distance(at, 20));
  }
}

class PortModelSweep : public ::testing::TestWithParam<PortModel> {};

TEST_P(PortModelSweep, DeliversSinglePacket) {
  const Graph p = make_path(6);
  SyncRouter router{p, GetParam()};
  GreedyPolicy policy{p};
  std::vector<Packet> packets(1);
  packets[0].src = 0;
  packets[0].dst = 5;
  packets[0].via = 5;
  const RouteResult result = router.route(std::move(packets), policy);
  EXPECT_EQ(result.steps, 5u);
  EXPECT_EQ(result.packets[0].delivered_at, 5);
}

TEST_P(PortModelSweep, DeliversRandomPermutation) {
  const Graph host = make_butterfly(3);
  SyncRouter router{host, GetParam()};
  GreedyPolicy policy{host};
  Rng rng{31};
  const HhProblem problem = random_permutation_problem(host.num_nodes(), rng);
  const RouteResult result = router.route(to_packets(problem), policy);
  for (std::size_t i = 0; i < result.packets.size(); ++i) {
    EXPECT_GE(result.packets[i].delivered_at, 0) << "packet " << i << " undelivered";
  }
  EXPECT_GT(result.total_transfers, 0u);
}

TEST_P(PortModelSweep, SelfPacketsDeliverImmediately) {
  const Graph host = make_cycle(4);
  SyncRouter router{host, GetParam()};
  GreedyPolicy policy{host};
  std::vector<Packet> packets(1);
  packets[0].src = 2;
  packets[0].dst = 2;
  packets[0].via = 2;
  const RouteResult result = router.route(std::move(packets), policy);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.packets[0].delivered_at, 0);
}

INSTANTIATE_TEST_SUITE_P(Ports, PortModelSweep,
                         ::testing::Values(PortModel::kMultiPort, PortModel::kSinglePort));

TEST(SinglePort, TransfersFormMatchings) {
  const Graph host = make_torus(4, 4);
  SyncRouter router{host, PortModel::kSinglePort};
  GreedyPolicy policy{host};
  Rng rng{77};
  const HhProblem problem = random_h_relation(host.num_nodes(), 3, rng);
  const RouteResult result = router.route(to_packets(problem), policy, true);
  // Group transfers by step; within a step every node appears at most once.
  std::size_t i = 0;
  while (i < result.transfers.size()) {
    const std::uint32_t step = result.transfers[i].step;
    std::vector<char> busy(host.num_nodes(), 0);
    for (; i < result.transfers.size() && result.transfers[i].step == step; ++i) {
      const Transfer& tr = result.transfers[i];
      EXPECT_TRUE(host.has_edge(tr.from, tr.to));
      EXPECT_FALSE(busy[tr.from]) << "node sent/received twice in step " << step;
      EXPECT_FALSE(busy[tr.to]);
      busy[tr.from] = 1;
      busy[tr.to] = 1;
    }
  }
}

TEST(MultiPort, RespectsLinkCapacity) {
  const Graph host = make_torus(4, 4);
  SyncRouter router{host, PortModel::kMultiPort};
  GreedyPolicy policy{host};
  Rng rng{78};
  const HhProblem problem = random_h_relation(host.num_nodes(), 4, rng);
  const RouteResult result = router.route(to_packets(problem), policy, true);
  std::size_t i = 0;
  while (i < result.transfers.size()) {
    const std::uint32_t step = result.transfers[i].step;
    std::set<std::pair<NodeId, NodeId>> used;
    for (; i < result.transfers.size() && result.transfers[i].step == step; ++i) {
      const Transfer& tr = result.transfers[i];
      EXPECT_TRUE(used.emplace(tr.from, tr.to).second)
          << "directed link used twice in step " << step;
    }
  }
}

TEST(Valiant, DeliversAndVisitsIntermediate) {
  const Graph host = make_butterfly(3);
  SyncRouter router{host, PortModel::kMultiPort};
  ValiantPolicy policy{host, 123};
  Rng rng{5};
  const HhProblem problem = random_permutation_problem(host.num_nodes(), rng);
  const RouteResult result = router.route(to_packets(problem), policy);
  for (const Packet& p : result.packets) {
    EXPECT_GE(p.delivered_at, 0);
    EXPECT_EQ(p.phase, 1);  // completed the via phase
  }
}

TEST(Router, PolicyReturningNonNeighborThrows) {
  class BadPolicy final : public RoutingPolicy {
   public:
    NodeId next_hop(const Graph&, NodeId at, const Packet&) override { return at + 2; }
    std::string name() const override { return "bad"; }
  };
  const Graph p = make_path(5);
  SyncRouter router{p, PortModel::kMultiPort};
  BadPolicy policy;
  std::vector<Packet> packets(1);
  packets[0].src = 0;
  packets[0].dst = 4;
  packets[0].via = 4;
  EXPECT_THROW((void)router.route(std::move(packets), policy), std::logic_error);
}

TEST(Router, StepLimitDetectsLivelock) {
  class CircularPolicy final : public RoutingPolicy {
   public:
    NodeId next_hop(const Graph& g, NodeId at, const Packet&) override {
      return g.neighbors(at).front();
    }
    std::string name() const override { return "circular"; }
  };
  const Graph c = make_cycle(4);
  SyncRouter router{c, PortModel::kMultiPort};
  CircularPolicy policy;
  std::vector<Packet> packets(1);
  packets[0].src = 0;
  packets[0].dst = 2;
  packets[0].via = 2;
  // neighbors(0) = {1, 3}; always picking 1... the packet will reach 2 going
  // 0->1->0->1...: neighbors(1) = {0, 2}, front is 0 -> ping-pong forever.
  EXPECT_THROW((void)router.route(std::move(packets), policy, false, 100),
               std::runtime_error);
}

TEST(MeasureRouteTime, ScalesWithH) {
  const Graph host = make_butterfly(3);
  GreedyPolicy policy{host};
  Rng rng{9};
  const auto t1 = measure_route_time(host, 1, policy, PortModel::kMultiPort, 3, rng);
  const auto t4 = measure_route_time(host, 4, policy, PortModel::kMultiPort, 3, rng);
  EXPECT_GT(t1.worst_steps, 0u);
  EXPECT_GT(t4.worst_steps, t1.worst_steps);
  EXPECT_GE(t4.mean_steps, t1.mean_steps);
}

}  // namespace
}  // namespace upn
