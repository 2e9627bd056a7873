// Protocol serialization round-trip and error handling.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/contracts.hpp"

namespace upn {
namespace {

Protocol tiny_protocol() {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 1, PebbleType{2, 0}, 0});
  protocol.add(Op{OpKind::kReceive, 0, PebbleType{2, 0}, 1});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  return protocol;
}

bool protocols_equal(const Protocol& a, const Protocol& b) {
  if (a.num_guests() != b.num_guests() || a.num_hosts() != b.num_hosts() ||
      a.guest_steps() != b.guest_steps() || a.host_steps() != b.host_steps()) {
    return false;
  }
  for (std::size_t s = 0; s < a.steps().size(); ++s) {
    const auto& sa = a.steps()[s];
    const auto& sb = b.steps()[s];
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].kind != sb[i].kind || sa[i].proc != sb[i].proc ||
          !(sa[i].pebble == sb[i].pebble) || sa[i].partner != sb[i].partner) {
        return false;
      }
    }
  }
  return true;
}

TEST(PebbleIo, RoundTripTiny) {
  const Protocol original = tiny_protocol();
  std::stringstream buffer;
  write_protocol(buffer, original);
  const Protocol parsed = read_protocol(buffer);
  EXPECT_TRUE(protocols_equal(original, parsed));
}

TEST(PebbleIo, RoundTripSimulatorProtocolAndRevalidate) {
  Rng rng{3};
  const Graph guest = make_random_regular(24, 4, rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(24, host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(2, options);
  std::stringstream buffer;
  write_protocol(buffer, *result.protocol);
  const Protocol parsed = read_protocol(buffer);
  EXPECT_TRUE(protocols_equal(*result.protocol, parsed));
  EXPECT_TRUE(validate_protocol(parsed, guest, host).ok);
}

TEST(PebbleIo, RejectsBadHeader) {
  std::stringstream buffer{"not-a-protocol 1 2 3 4\n"};
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

TEST(PebbleIo, RejectsOpBeforeStep) {
  std::stringstream buffer{"upn-protocol 1 3 2 1\nG 0 0 1\n"};
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

TEST(PebbleIo, RejectsMalformedOp) {
  std::stringstream buffer{"upn-protocol 1 3 2 1\nstep\nS 0 0 0\n"};  // no partner
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

TEST(PebbleIo, RejectsDoubleOpPerProc) {
  std::stringstream buffer{
      "upn-protocol 1 3 2 1\nstep\nG 0 0 1\nG 0 1 1\n"};
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

TEST(PebbleIo, RejectsDoubleOpPerProcInEveryContractMode) {
  // Protocol::add only enforces the rule by contract; log mode reports and
  // continues, so the reader must reject the line itself.
  const ScopedContractMode mode{ContractMode::kLog};
  std::stringstream buffer{"upn-protocol 1 3 2 1\nstep\nG 0 0 1\nG 0 1 1\n"};
  try {
    (void)read_protocol(buffer);
    FAIL() << "a processor acting twice in one step was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "read_protocol: line 4: processor already acted this step");
  }
}

TEST(PebbleIo, RejectsOutOfRangePebble) {
  std::stringstream buffer{"upn-protocol 1 3 2 1\nstep\nG 0 5 1\n"};
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

}  // namespace
}  // namespace upn
