// The guest-step driver behind every graph-guest simulator: one (G, f,
// seed) through every communication regime must reach the direct
// execution's configurations, every single-port protocol must validate, and
// every entry point must reject a hostile embedding before it routes.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/complete_sim.hpp"
#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/galil_paul.hpp"
#include "src/core/guest_driver.hpp"
#include "src/core/offline_universal.hpp"
#include "src/core/online_adaptive_sim.hpp"
#include "src/core/schedule_protocol.hpp"
#include "src/core/scheduled_universal.hpp"
#include "src/core/universal_sim.hpp"
#include "src/obs/obs.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {
namespace {

constexpr std::uint32_t kDimension = 3;  // unwrapped butterfly, m = 32
constexpr std::uint32_t kSteps = 4;
constexpr std::uint64_t kSeed = 0xd1ff;

struct Instance {
  Graph host = make_butterfly(kDimension);
  Graph guest;
  std::vector<NodeId> embedding;  ///< Galil-Paul's block embedding
};

Instance make_instance() {
  Instance in;
  Rng rng{41};
  in.guest = make_random_regular(3 * in.host.num_nodes(), 4, rng);
  in.embedding = make_block_embedding(in.guest.num_nodes(), in.host.num_nodes());
  return in;
}

void expect_legal(const Protocol& protocol, const Instance& in, const std::string& regime) {
  const ValidationResult validation = validate_protocol(protocol, in.guest, in.host);
  EXPECT_TRUE(validation.ok) << regime << ": " << validation.error;
}

TEST(GuestDriver, EveryRegimeReachesTheReference) {
  const Instance in = make_instance();
  UniversalSimulator universal{in.guest, in.host, in.embedding};
  ValiantPolicy valiant{in.host, kSeed};
  for (RoutingPolicy* policy : {static_cast<RoutingPolicy*>(nullptr),
                                static_cast<RoutingPolicy*>(&valiant)}) {
    const std::string name = policy == nullptr ? "greedy" : "valiant";
    UniversalSimOptions options;
    options.policy = policy;
    options.seed = kSeed;
    options.port_model = PortModel::kMultiPort;
    EXPECT_TRUE(universal.run(kSteps, options).configs_match) << name << " multiport";
    options.port_model = PortModel::kSinglePort;
    options.emit_protocol = true;
    const UniversalSimResult single = universal.run(kSteps, options);
    EXPECT_TRUE(single.configs_match) << name << " single-port";
    expect_legal(*single.protocol, in, name + " single-port");
  }

  EXPECT_TRUE(run_scheduled_universal(in.guest, in.host, in.embedding, kSteps, kSeed)
                  .configs_match);
  EXPECT_TRUE(
      run_offline_universal(in.guest, kDimension, in.embedding, kSteps, kSeed).configs_match);
  expect_legal(
      make_offline_universal_protocol(in.guest, kDimension, in.embedding, kSteps).protocol,
      in, "off-line");
  EXPECT_TRUE(run_galil_paul(in.guest, in.host.num_nodes(), kSteps, kSeed).configs_match);

  const FaultPlan no_faults;
  OnlineAdaptiveSimulator online{in.guest, in.host, in.embedding, no_faults};
  OnlineAdaptiveSimOptions online_options;
  online_options.seed = kSeed;
  const OnlineAdaptiveSimResult calm = online.run(kSteps, online_options);
  EXPECT_EQ(calm.stale_reads, 0u);
  EXPECT_TRUE(calm.configs_match);

  FaultTolerantSimulator fault{in.guest, in.host, no_faults, in.embedding};
  FaultSimOptions fault_options;
  fault_options.seed = kSeed;
  fault_options.emit_protocol = true;
  const FaultSimResult healed = fault.run(kSteps, fault_options);
  EXPECT_TRUE(healed.completed);
  EXPECT_TRUE(healed.configs_match);
  expect_legal(*healed.protocol, in, "fault-tolerant");
}

TEST(GuestDriver, RelationIsOneDemandPerCrossingEdgeInPacketOrder) {
  const Instance in = make_instance();
  const GuestDriver driver{in.guest, in.host.num_nodes(), in.embedding, "test"};
  std::size_t d = 0;
  for (NodeId u = 0; u < in.guest.num_nodes(); ++u) {
    for (const NodeId v : in.guest.neighbors(u)) {
      if (in.embedding[u] == in.embedding[v]) continue;
      ASSERT_LT(d, driver.senders().size());
      EXPECT_EQ(driver.senders()[d], u);
      EXPECT_EQ(driver.receivers()[d], v);
      ++d;
    }
  }
  EXPECT_EQ(d, driver.senders().size());
  EXPECT_EQ(driver.receivers().size(), d);
  EXPECT_EQ(driver.host_problem(in.host.num_nodes()).size(), d);
}

TEST(GuestDriver, EveryEntryPointRejectsHostileEmbeddings) {
  const Instance in = make_instance();
  const std::uint32_t n = in.guest.num_nodes();
  const std::uint32_t m = in.host.num_nodes();
  const FaultPlan no_faults;
  GreedyPolicy greedy{in.host};
  // run_galil_paul takes no embedding: it builds its own block embedding.
  const std::vector<std::pair<std::string, std::function<void(std::vector<NodeId>)>>>
      entry_points = {
          {"UniversalSimulator",
           [&](std::vector<NodeId> f) { UniversalSimulator sim{in.guest, in.host, f}; }},
          {"run_scheduled_universal",
           [&](std::vector<NodeId> f) {
             (void)run_scheduled_universal(in.guest, in.host, f, 1);
           }},
          {"run_offline_universal",
           [&](std::vector<NodeId> f) {
             (void)run_offline_universal(in.guest, kDimension, f, 1);
           }},
          {"make_offline_universal_protocol",
           [&](std::vector<NodeId> f) {
             (void)make_offline_universal_protocol(in.guest, kDimension, f, 1);
           }},
          {"OnlineAdaptiveSimulator",
           [&](std::vector<NodeId> f) {
             OnlineAdaptiveSimulator sim{in.guest, in.host, f, no_faults};
           }},
          {"FaultTolerantSimulator",
           [&](std::vector<NodeId> f) {
             FaultTolerantSimulator sim{in.guest, in.host, no_faults, f};
           }},
          {"run_complete_simulation",
           [&](std::vector<NodeId> f) {
             (void)run_complete_simulation(n, in.host, f, 1, greedy);
           }},
      };

  obs::set_enabled(true);
  obs::registry().reset();
  std::vector<NodeId> short_embedding(n - 1, 0);
  std::vector<NodeId> out_of_range(n, 0);
  out_of_range[n / 2] = m;
  for (const auto& [name, entry] : entry_points) {
    EXPECT_THROW(entry(short_embedding), std::invalid_argument) << name << " short";
    EXPECT_THROW(entry(out_of_range), std::invalid_argument) << name << " target >= m";
  }
  // Nothing was routed: the checks come first.
  for (const obs::MetricRow& row : obs::registry().snapshot(obs::MetricKind::kDeterministic)) {
    if (row.name.rfind("routing.", 0) == 0) {
      EXPECT_EQ(row.count, 0u) << row.name;
      EXPECT_EQ(row.value, 0) << row.name;
    }
  }
  obs::set_enabled(false);
}

}  // namespace
}  // namespace upn
