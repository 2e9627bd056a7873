// Differential test of the Section 3.1 validator: the flat-table validator
// in src/pebble/validator.cpp and the preserved pre-rewrite validator
// (tests/support/reference_validator) must return field-for-field equal
// ValidationResults -- ok flag, error text with its context suffix, and the
// three pebble counts -- on valid protocols from every single-port source
// and on seeded single-op mutations of them.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/schedule_protocol.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"
#include "tests/support/reference_validator.hpp"

namespace upn {
namespace {

constexpr std::uint32_t kDimension = 3;  // unwrapped butterfly, m = 32
constexpr std::uint32_t kSteps = 3;
constexpr std::size_t kMutationsPerSource = 150;

struct Instance {
  Graph host = make_butterfly(kDimension);
  Graph guest;
  std::vector<NodeId> embedding;
};

Instance make_instance() {
  Instance in;
  Rng rng{2024};
  in.guest = make_random_regular(2 * in.host.num_nodes(), 4, rng);
  in.embedding = make_random_embedding(in.guest.num_nodes(), in.host.num_nodes(), rng);
  return in;
}

/// Both validators on one input; returns the (shared) verdict.
ValidationResult expect_same_verdict(const Protocol& protocol, const Graph& guest,
                                     const Graph& host, const std::string& what) {
  const ValidationResult fast = validate_protocol(protocol, guest, host);
  const ValidationResult slow = testing::reference_validate_protocol(protocol, guest, host);
  EXPECT_EQ(fast.ok, slow.ok) << what;
  EXPECT_EQ(fast.error, slow.error) << what;
  EXPECT_EQ(fast.pebbles_generated, slow.pebbles_generated) << what;
  EXPECT_EQ(fast.pebbles_sent, slow.pebbles_sent) << what;
  EXPECT_EQ(fast.pebbles_received, slow.pebbles_received) << what;
  return fast;
}

enum class Mutation { kDrop, kShiftTime, kRewirePartner, kRenumber, kReceiveToSend, kRetimeGenerate };
constexpr Mutation kMutations[] = {Mutation::kDrop,          Mutation::kShiftTime,
                                   Mutation::kRewirePartner, Mutation::kRenumber,
                                   Mutation::kReceiveToSend, Mutation::kRetimeGenerate};

/// Rebuilds `steps` through Protocol::add; false when an op breaks an
/// insertion rule (out of range, or a processor acting twice in a step).
bool rebuild(const Protocol& original, const std::vector<std::vector<Op>>& steps,
             Protocol& out) {
  out = Protocol{original.num_guests(), original.num_hosts(), original.guest_steps()};
  try {
    for (const auto& step : steps) {
      out.begin_step();
      for (const Op& op : step) out.add(op);
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Applies one seeded mutation of kind `kind` to a random op.  Returns false
/// when the draw does not apply (wrong op kind) or breaks an insertion rule.
bool mutate(const Protocol& original, Mutation kind, Rng& rng, Protocol& out) {
  std::vector<std::vector<Op>> steps = original.steps();
  if (steps.empty()) return false;
  const std::size_t s = rng.below(steps.size());
  if (steps[s].empty()) return false;
  const std::size_t k = rng.below(steps[s].size());
  Op& op = steps[s][k];
  const std::uint32_t T = original.guest_steps();
  switch (kind) {
    case Mutation::kDrop:
      steps[s].erase(steps[s].begin() + static_cast<std::ptrdiff_t>(k));
      break;
    case Mutation::kShiftTime:
      if (op.pebble.time == 0 || (op.pebble.time < T && rng.chance(0.5))) {
        ++op.pebble.time;
      } else {
        --op.pebble.time;
      }
      break;
    case Mutation::kRewirePartner:
      if (op.kind == OpKind::kGenerate) return false;
      op.partner = static_cast<std::uint32_t>(rng.below(original.num_hosts()));
      break;
    case Mutation::kRenumber:
      op.pebble.node = static_cast<NodeId>(rng.below(original.num_guests()));
      break;
    case Mutation::kReceiveToSend:
      if (op.kind != OpKind::kReceive) return false;
      op.kind = OpKind::kSend;
      break;
    case Mutation::kRetimeGenerate: {
      if (op.kind != OpKind::kGenerate) return false;
      const Op moved = op;
      steps[s].erase(steps[s].begin() + static_cast<std::ptrdiff_t>(k));
      steps[rng.below(steps.size())].push_back(moved);
      break;
    }
  }
  return rebuild(original, steps, out);
}

/// The valid protocol plus kMutationsPerSource applied mutations, each
/// checked against every host in `hosts`.
void run_differential(const Protocol& protocol, const Graph& guest,
                      const std::vector<const Graph*>& hosts, std::uint64_t seed,
                      const std::string& source) {
  ASSERT_TRUE(expect_same_verdict(protocol, guest, *hosts.front(), source).ok);
  Rng rng{seed};
  std::size_t applied = 0, rejected = 0;
  std::set<std::string> reasons;
  for (std::size_t attempt = 0; applied < kMutationsPerSource && attempt < 50 * kMutationsPerSource;
       ++attempt) {
    const Mutation kind = kMutations[attempt % std::size(kMutations)];
    Protocol mutated{1, 1, 1};
    if (!mutate(protocol, kind, rng, mutated)) continue;
    ++applied;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const std::string what = source + " mutation " + std::to_string(applied) + " kind " +
                               std::to_string(static_cast<int>(kind)) + " host " +
                               std::to_string(h);
      const ValidationResult verdict = expect_same_verdict(mutated, guest, *hosts[h], what);
      if (verdict.ok) continue;
      ++rejected;
      // The rule named in the error: the text between the op and the context.
      const std::size_t colon = verdict.error.rfind(": ");
      reasons.insert(verdict.error.substr(colon == std::string::npos ? 0 : colon + 2, 16));
    }
  }
  EXPECT_EQ(applied, kMutationsPerSource) << source;
  EXPECT_GT(rejected, 0u) << source;
  EXPECT_GE(reasons.size(), 3u) << source;  // the mutations reach several rules
}

TEST(ValidatorDifferential, UniversalGreedyAndValiantSinglePort) {
  const Instance in = make_instance();
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
    run_differential(*result.protocol, in.guest, {&in.host}, policy == nullptr ? 1 : 2,
                     policy == nullptr ? "greedy" : "valiant");
  }
}

TEST(ValidatorDifferential, FaultTolerantWithLinkFaultsDropsAndNodeEpoch) {
  const Instance in = make_instance();
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
  // Against the surviving host too: ops on dead links and at the dead
  // processor make the neighbour rule fire in both validators alike.
  const Graph survivors = surviving_edges_graph(in.host, plan);
  run_differential(*result.protocol, in.guest, {&in.host, &survivors}, 3, "fault-tolerant");
}

TEST(ValidatorDifferential, OfflineUniversalProtocol) {
  const Instance in = make_instance();
  const OfflineProtocolResult offline =
      make_offline_universal_protocol(in.guest, kDimension, in.embedding, kSteps);
  run_differential(offline.protocol, in.guest, {&in.host}, 4, "off-line");
}

TEST(ValidatorDifferential, ProtocolIoRoundTrip) {
  const Instance in = make_instance();
  UniversalSimulator sim{in.guest, in.host, in.embedding};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(kSteps, options);
  ASSERT_TRUE(result.protocol.has_value());
  std::stringstream text;
  write_protocol(text, *result.protocol);
  const Protocol reread = read_protocol(text);
  ASSERT_EQ(reread.num_ops(), result.protocol->num_ops());
  run_differential(reread, in.guest, {&in.host}, 5, "round trip");
}

}  // namespace
}  // namespace upn
