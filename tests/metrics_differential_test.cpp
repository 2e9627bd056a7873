// Differential test of the Section 3 protocol metrics: the bitset
// ProtocolMetrics in src/pebble/metrics.cpp and the preserved vector-per-key
// version (tests/support/reference_metrics) must give the same Q_S(i, t),
// Q'_S(i, t), q_{i,t}, first generation steps, |E_t(tau)|, weight totals,
// placement count and inefficiency for every (i, t) -- on protocols from
// every single-port emitter, a .upnp round trip, and hand-built protocols
// whose host sizes sit on the 64-processor word boundaries.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/schedule_protocol.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"
#include "tests/support/reference_metrics.hpp"

namespace upn {
namespace {

constexpr std::uint32_t kSteps = 3;

struct Instance {
  Graph host;
  Graph guest;
  std::vector<NodeId> embedding;
};

/// A random 4-regular guest of 2m processors on the unwrapped butterfly of
/// the given dimension (m = 32 for 3, m = 80 for 4: one and two words).
Instance make_instance(std::uint32_t dimension) {
  Instance in;
  in.host = make_butterfly(dimension);
  Rng rng{2024 + dimension};
  in.guest = make_random_regular(2 * in.host.num_nodes(), 4, rng);
  in.embedding = make_random_embedding(in.guest.num_nodes(), in.host.num_nodes(), rng);
  return in;
}

/// Every query of both implementations on `protocol`; stops at the first
/// difference so a broken build reports one line, not thousands.
void expect_same_metrics(const Protocol& protocol, const std::string& what) {
  const ProtocolMetrics fast{protocol};
  const testing::ReferenceMetrics slow{protocol};
  ASSERT_EQ(fast.host_steps(), slow.host_steps()) << what;
  ASSERT_EQ(fast.total_placements(), slow.total_placements()) << what;
  ASSERT_EQ(fast.inefficiency(), slow.inefficiency()) << what;
  const std::uint32_t n = protocol.num_guests();
  const std::uint32_t T = protocol.guest_steps();
  for (std::uint32_t t = 0; t <= T; ++t) {
    ASSERT_EQ(fast.total_weight_at(t), slow.total_weight_at(t)) << what << " t=" << t;
    for (std::uint32_t tau = 0; tau <= protocol.host_steps(); ++tau) {
      ASSERT_EQ(fast.generating_count(t, tau), slow.generating_count(t, tau))
          << what << " t=" << t << " tau=" << tau;
    }
    for (NodeId i = 0; i < n; ++i) {
      const std::string at = what + " i=" + std::to_string(i) + " t=" + std::to_string(t);
      ASSERT_EQ(fast.representatives(i, t), slow.representatives(i, t)) << at;
      ASSERT_EQ(fast.weight(i, t), slow.weight(i, t)) << at;
      ASSERT_EQ(fast.first_generation_step(i, t), slow.first_generation_step(i, t)) << at;
      if (t < T) {
        ASSERT_EQ(fast.generators(i, t), slow.generators(i, t)) << at;
      }
    }
  }
}

TEST(MetricsDifferential, UniversalGreedyAndValiantSinglePort) {
  for (const std::uint32_t dimension : {3u, 4u}) {
    const Instance in = make_instance(dimension);
    UniversalSimulator sim{in.guest, in.host, in.embedding};
    ValiantPolicy valiant{in.host, 77};
    for (RoutingPolicy* policy : {static_cast<RoutingPolicy*>(nullptr),
                                  static_cast<RoutingPolicy*>(&valiant)}) {
      UniversalSimOptions options;
      options.policy = policy;
      options.port_model = PortModel::kSinglePort;
      options.emit_protocol = true;
      const UniversalSimResult result = sim.run(kSteps, options);
      ASSERT_TRUE(result.protocol.has_value());
      ASSERT_TRUE(validate_protocol(*result.protocol, in.guest, in.host).ok);
      expect_same_metrics(*result.protocol, (policy == nullptr ? "greedy d=" : "valiant d=") +
                                                std::to_string(dimension));
    }
  }
}

TEST(MetricsDifferential, FaultTolerantWithDropsAndNodeEpoch) {
  const Instance in = make_instance(3);
  FaultPlan plan = merge_plans(make_uniform_link_faults(in.host, 0.05, 5),
                               make_uniform_drops(in.host, 0.2, 6));
  plan.add_node_fault(NodeFault{3, 4});  // a second fault epoch, a few host steps in
  FaultTolerantSimulator sim{in.guest, in.host, plan, in.embedding};
  FaultSimOptions options;
  options.emit_protocol = true;
  const FaultSimResult result = sim.run(kSteps, options);
  ASSERT_TRUE(result.completed);
  ASSERT_GE(result.fault_epochs, 1u);
  ASSERT_GT(result.retransmissions, 0u);
  ASSERT_TRUE(result.protocol.has_value());
  expect_same_metrics(*result.protocol, "fault-tolerant");
}

TEST(MetricsDifferential, OfflineUniversalProtocol) {
  const Instance in = make_instance(4);
  const OfflineProtocolResult offline =
      make_offline_universal_protocol(in.guest, 4, in.embedding, kSteps);
  ASSERT_TRUE(validate_protocol(offline.protocol, in.guest, in.host).ok);
  expect_same_metrics(offline.protocol, "off-line");
}

TEST(MetricsDifferential, ProtocolIoRoundTrip) {
  const Instance in = make_instance(4);
  UniversalSimulator sim{in.guest, in.host, in.embedding};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(kSteps, options);
  ASSERT_TRUE(result.protocol.has_value());
  std::stringstream text;
  write_protocol(text, *result.protocol);
  const Protocol reread = read_protocol(text);
  ASSERT_EQ(reread.num_ops(), result.protocol->num_ops());
  expect_same_metrics(reread, "round trip");
}

/// A valid T = 2 protocol for the triangle guest on the path host of m
/// processors: processor 0 generates the time-1 pebbles, they travel down
/// the path, processor 0 -> 1 repeats one receive (and forwards an initial
/// pebble), and processors 0, 63, 64 and m-1 -- those that exist -- generate
/// time-2 pebbles, m-1 once more for (P_0, 2), which it then sends back.
Protocol path_protocol(std::uint32_t m) {
  constexpr std::uint32_t n = 3;
  Protocol protocol{n, m, 2};
  auto generate = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0});
  };
  auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i, std::uint32_t t) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kSend, from, PebbleType{i, t}, to});
    protocol.add(Op{OpKind::kReceive, to, PebbleType{i, t}, from});
  };
  for (NodeId i = 0; i < n; ++i) generate(0, i, 1);
  for (std::uint32_t q = 0; q + 1 < m; ++q) {
    for (NodeId i = 0; i < n; ++i) transfer(q, q + 1, i, 1);
  }
  if (m >= 2) {
    transfer(0, 1, 0, 1);  // a second receive of a held pebble
    transfer(0, 1, 1, 0);  // an initial pebble: no placement
  }
  for (const std::uint32_t q : {0u, 63u, 64u, m - 1}) {
    if (q >= m) continue;  // where two coincide, the pebbles are generated again
    for (NodeId i = 0; i < n; ++i) generate(q, i, 2);
  }
  generate(m - 1, 0, 2);
  if (m >= 2) transfer(m - 1, m - 2, 0, 2);
  return protocol;
}

TEST(MetricsDifferential, HandBuiltOnWordBoundaries) {
  for (const std::uint32_t m : {1u, 63u, 64u, 65u, 130u}) {
    const Protocol protocol = path_protocol(m);
    ASSERT_TRUE(validate_protocol(protocol, make_cycle(3), make_path(m)).ok) << "m=" << m;
    ASSERT_NO_FATAL_FAILURE(expect_same_metrics(protocol, "path m=" + std::to_string(m)));
    // The last processor's bit is the top one in use: it must be listed.
    const ProtocolMetrics metrics{protocol};
    const std::vector<std::uint32_t> holders = metrics.representatives(0, 1);
    ASSERT_FALSE(holders.empty()) << "m=" << m;
    EXPECT_EQ(holders.back(), m - 1) << "m=" << m;
    EXPECT_EQ(metrics.weight(0, 1), m) << "m=" << m;
  }
}

TEST(MetricsDifferential, GenerateAtTimeZeroThrowsInBoth) {
  Protocol protocol{1, 1, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 0}, 0});
  EXPECT_THROW(ProtocolMetrics{protocol}, std::out_of_range);
  EXPECT_THROW(testing::ReferenceMetrics{protocol}, std::out_of_range);
}

}  // namespace
}  // namespace upn
