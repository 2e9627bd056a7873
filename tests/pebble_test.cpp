// Pebble-game protocol and validator tests: the Section 3.1 rules, enforced.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/pebble/protocol.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/util/contracts.hpp"
#include "src/util/par.hpp"

namespace upn {
namespace {

// Guest: triangle P0-P1-P2.  Host: edge Q0-Q1.
Graph triangle() { return make_cycle(3); }
Graph host_edge() { return make_path(2); }

TEST(Protocol, TracksBasicCounters) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  EXPECT_EQ(protocol.host_steps(), 1u);
  EXPECT_EQ(protocol.num_ops(), 1u);
  EXPECT_DOUBLE_EQ(protocol.slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(protocol.inefficiency(), 1.0 * 2 / 3);
}

TEST(Protocol, RejectsTwoOpsSameProcessorSameStep) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0}), std::logic_error);
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0});  // fine next step
}

TEST(Protocol, RejectsOutOfRange) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 2, PebbleType{0, 1}, 0}),
               std::out_of_range);
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{3, 1}, 0}),
               std::out_of_range);
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 2}, 0}),
               std::out_of_range);
}

TEST(Protocol, AddBeforeBeginStepThrows) {
  Protocol protocol{3, 2, 1};
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}), std::logic_error);
}

TEST(Validator, AcceptsMinimalCompleteSimulation) {
  // T = 1: every processor holds all (P_i, 0); generating (P_i, 1) needs
  // only initial pebbles.  Generate all three finals on Q0 over 3 steps.
  Protocol protocol{3, 2, 1};
  for (NodeId i = 0; i < 3; ++i) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kGenerate, 0, PebbleType{i, 1}, 0});
  }
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pebbles_generated, 3u);
}

TEST(Validator, RejectsMissingFinalPebble) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("final pebble"), std::string::npos);
}

TEST(Validator, RejectsGenerateWithoutPredecessors) {
  // T = 2: generating (P0, 2) requires (P0,1), (P1,1), (P2,1) at the proc.
  Protocol protocol{3, 2, 2};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 2}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("predecessor"), std::string::npos);
}

TEST(Validator, SendReceiveMovesPebbles) {
  // Q0 generates (P0,1).. then sends it to Q1; Q1 generates (P0,2) after
  // also getting (P1,1),(P2,1).
  Protocol protocol{3, 2, 2};
  auto gen = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0});
  };
  auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i, std::uint32_t t) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kSend, from, PebbleType{i, t}, to});
    protocol.add(Op{OpKind::kReceive, to, PebbleType{i, t}, from});
  };
  gen(0, 0, 1);
  gen(0, 1, 1);
  gen(0, 2, 1);
  transfer(0, 1, 0, 1);
  transfer(0, 1, 1, 1);
  transfer(0, 1, 2, 1);
  gen(1, 0, 2);
  gen(1, 1, 2);
  gen(1, 2, 2);
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pebbles_sent, 3u);
}

TEST(Validator, RejectsSendOfUnheldPebble) {
  Protocol protocol{3, 2, 2};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{0, 1}, 1});  // (P0,1) never generated
  protocol.add(Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("does not hold"), std::string::npos);
}

TEST(Validator, RejectsReceiveWithoutMatchingSend) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kReceive, 1, PebbleType{0, 0}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("matching send"), std::string::npos);
}

TEST(Validator, RejectsSendToNonNeighbor) {
  // Host path(3): Q0-Q1-Q2; Q0 -> Q2 is not an edge.
  Protocol protocol{3, 3, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{0, 0}, 2});
  protocol.add(Op{OpKind::kReceive, 2, PebbleType{0, 0}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), make_path(3));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("neighbor"), std::string::npos);
}

/// The verdict on host path(3), Q0-Q1-Q2, of one step holding `ops`.
std::string one_step_error(const std::vector<Op>& ops) {
  Protocol protocol{3, 3, 1};
  protocol.begin_step();
  for (const Op& op : ops) protocol.add(op);
  const ValidationResult result = validate_protocol(protocol, triangle(), make_path(3));
  EXPECT_FALSE(result.ok);
  return result.error;
}

TEST(Validator, ReceiveFromNonNeighborIsNamedAsSuch) {
  // Q2 receives from Q0, which is not its neighbour: the partner idles, or
  // sends a legal copy to Q1 in the same step.
  const Op receive{OpKind::kReceive, 2, PebbleType{0, 0}, 0};
  const std::string expected = "step 0: receive(P0,0) at proc 2: partner is not a host neighbor";
  const std::string alone = one_step_error({receive});
  EXPECT_EQ(alone.rfind(expected, 0), 0u) << alone;
  const std::vector<Op> with_send{receive, Op{OpKind::kSend, 0, PebbleType{0, 0}, 1},
                                  Op{OpKind::kReceive, 1, PebbleType{0, 0}, 0}};
  const std::string beside_send = one_step_error(with_send);
  EXPECT_EQ(beside_send.rfind(expected, 0), 0u) << beside_send;
}

TEST(Validator, ReceiveFromNeighborWithoutItsSendIsNamedAsSuch) {
  // Q0 receives from its neighbour Q1, which idles, or sends to Q2 instead.
  const Op receive{OpKind::kReceive, 0, PebbleType{0, 0}, 1};
  const std::string expected = "step 0: receive(P0,0) at proc 0: no matching send from partner";
  const std::string alone = one_step_error({receive});
  EXPECT_EQ(alone.rfind(expected, 0), 0u) << alone;
  const std::vector<Op> with_send{receive, Op{OpKind::kSend, 1, PebbleType{0, 0}, 2},
                                  Op{OpKind::kReceive, 2, PebbleType{0, 0}, 1}};
  const std::string beside_send = one_step_error(with_send);
  EXPECT_EQ(beside_send.rfind(expected, 0), 0u) << beside_send;
}

TEST(Validator, InitialPebblesAreEverywhere) {
  // Sending (P_i, 0) works from any processor without generating it.
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 1, PebbleType{2, 0}, 0});
  protocol.add(Op{OpKind::kReceive, 0, PebbleType{2, 0}, 1});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Validator, RejectsSizeMismatch) {
  Protocol protocol{4, 2, 1};
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
}

TEST(Validator, RejectsProcessorActingTwiceUnderLogMode) {
  // Log mode lets Protocol::add keep the second op; the validator must not.
  const ScopedContractMode scoped{ContractMode::kLog};
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0});
  ASSERT_EQ(protocol.num_ops(), 2u);
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.rfind(
                "step 0: generate(P1,1) at proc 0: processor already acted this step", 0),
            0u)
      << result.error;
}

TEST(Validator, DoubleActionIsFoundBeforeTheStepsOtherRules) {
  // Step 0 holds a send of an unheld pebble AND a processor acting twice:
  // the one-op rule is checked first.
  const ScopedContractMode scoped{ContractMode::kLog};
  Protocol protocol{3, 2, 2};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{0, 1}, 1});
  protocol.add(Op{OpKind::kGenerate, 1, PebbleType{0, 1}, 0});
  protocol.add(Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("at proc 1: processor already acted this step"),
            std::string::npos)
      << result.error;
}

TEST(Validator, SparseHoldingsUnderHugeHeader) {
  // m = 2, n = T = 2^20: a dense m*n*T holding bitset would be 2^41 bits.
  // The verdict must come back normally, fast, and without bad_alloc.
  constexpr std::uint32_t kHuge = 1u << 20;
  const Graph guest = GraphBuilder{kHuge, "isolated"}.build();
  Protocol protocol{kHuge, 2, kHuge};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{kHuge - 1, 1}, 0});
  protocol.add(Op{OpKind::kGenerate, 1, PebbleType{12345, 1}, 0});
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{kHuge - 1, 1}, 1});
  protocol.add(Op{OpKind::kReceive, 1, PebbleType{kHuge - 1, 1}, 0});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 1, PebbleType{kHuge - 1, 2}, 0});
  const auto start = std::chrono::steady_clock::now();
  ValidationResult result;
  ASSERT_NO_THROW(result = validate_protocol(protocol, guest, host_edge()));
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.rfind("final pebble (P0,1048576) was never generated", 0), 0u)
      << result.error;
  EXPECT_EQ(result.pebbles_generated, 3u);
  EXPECT_EQ(result.pebbles_sent, 1u);
  EXPECT_EQ(result.pebbles_received, 1u);
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST(Validator, BatchRejectsNullJobUnderLogMode) {
  // Log mode lets the contract fall through; the null job must yield a
  // failed verdict, not a dereference, and the other jobs still validate.
  const ScopedContractMode scoped{ContractMode::kLog};
  Protocol protocol{3, 2, 1};
  for (NodeId i = 0; i < 3; ++i) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kGenerate, 0, PebbleType{i, 1}, 0});
  }
  const Graph guest = triangle();
  const Graph host = host_edge();
  const std::vector<ValidationJob> jobs{{nullptr, &guest, &host},
                                        {&protocol, &guest, &host},
                                        {&protocol, nullptr, &host}};
  ThreadPool pool{1};
  const std::vector<ValidationResult> results = validate_protocols(jobs, pool);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("null job member"), std::string::npos);
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_FALSE(results[2].ok);
  EXPECT_NE(results[2].error.find("null job member"), std::string::npos);
}

}  // namespace
}  // namespace upn
