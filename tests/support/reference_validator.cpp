// Verbatim preservation of the pre-rewrite validate_protocol body -- see
// the header for why this code must stay the slow, node-based version.
#include "tests/support/reference_validator.hpp"

#include <string>
#include <unordered_set>
#include <vector>

#include "src/obs/obs.hpp"

namespace upn::testing {

namespace {

/// Pebble key within one processor's holdings: node * (T+1) + time.
std::uint64_t key_of(const PebbleType& p, std::uint32_t guest_steps) noexcept {
  return static_cast<std::uint64_t>(p.node) * (guest_steps + 1) + p.time;
}

std::string describe(const Op& op) {
  const char* kind = op.kind == OpKind::kGenerate ? "generate"
                     : op.kind == OpKind::kSend   ? "send"
                                                  : "receive";
  return std::string{kind} + "(P" + std::to_string(op.pebble.node) + "," +
         std::to_string(op.pebble.time) + ") at proc " + std::to_string(op.proc);
}

}  // namespace

ValidationResult reference_validate_protocol(const Protocol& protocol, const Graph& guest,
                                             const Graph& host) {
  UPN_OBS_SPAN("pebble.validator.replay");
  UPN_OBS_COUNT("pebble.validator.validations", 1);
  ValidationResult result;
  // Every rejection funnels through here so the span/step context lands in
  // the message and the violation counter stays exact.
  auto fail = [&result](std::string why) -> ValidationResult& {
    UPN_OBS_COUNT("pebble.validator.violations", 1);
    result.error = std::move(why) + obs::context_suffix();
    return result;
  };
  if (guest.num_nodes() != protocol.num_guests() || host.num_nodes() != protocol.num_hosts()) {
    return fail("graph sizes do not match protocol header");
  }
  const std::uint32_t T = protocol.guest_steps();

  // holdings[q]: keys of pebbles processor q holds.  Time-0 pebbles are
  // implicitly held by everyone ("at the beginning, each processor of M
  // contains all the initial pebbles").
  std::vector<std::unordered_set<std::uint64_t>> holdings(protocol.num_hosts());
  auto holds = [&](std::uint32_t proc, const PebbleType& p) {
    return p.time == 0 || holdings[proc].count(key_of(p, T)) != 0;
  };

  std::vector<char> final_generated(protocol.num_guests(), 0);

  for (std::uint32_t step = 0; step < protocol.host_steps(); ++step) {
    UPN_OBS_STEP(step);
    const auto& ops = protocol.steps()[step];
    // First pass: verify sends (content must already be held).
    for (const Op& op : ops) {
      if (op.kind != OpKind::kSend) continue;
      if (!host.has_edge(op.proc, op.partner)) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": partner is not a host neighbor");
      }
      if (!holds(op.proc, op.pebble)) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": sender does not hold the pebble");
      }
      ++result.pebbles_sent;
    }
    // Second pass: receives and generates.
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kSend:
          break;
        case OpKind::kReceive: {
          if (!host.has_edge(op.proc, op.partner)) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": partner is not a host neighbor");
          }
          bool matched = false;
          for (const Op& other : ops) {
            if (other.kind == OpKind::kSend && other.proc == op.partner &&
                other.partner == op.proc && other.pebble == op.pebble) {
              matched = true;
              break;
            }
          }
          if (!matched) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": no matching send from partner");
          }
          holdings[op.proc].insert(key_of(op.pebble, T));
          ++result.pebbles_received;
          break;
        }
        case OpKind::kGenerate: {
          const std::uint32_t t = op.pebble.time;
          if (t == 0 || t > T) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": generated time out of range");
          }
          const PebbleType own{op.pebble.node, t - 1};
          if (!holds(op.proc, own)) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": missing own predecessor");
          }
          for (const NodeId j : guest.neighbors(op.pebble.node)) {
            if (!holds(op.proc, PebbleType{j, t - 1})) {
              return fail("step " + std::to_string(step) + ": " + describe(op) +
                          ": missing neighbor predecessor P" + std::to_string(j));
            }
          }
          holdings[op.proc].insert(key_of(op.pebble, T));
          if (t == T) final_generated[op.pebble.node] = 1;
          ++result.pebbles_generated;
          break;
        }
      }
    }
  }

  // For T = 0 the final pebbles ARE the initial pebbles, present by fiat.
  for (NodeId i = 0; T > 0 && i < protocol.num_guests(); ++i) {
    if (!final_generated[i]) {
      return fail("final pebble (P" + std::to_string(i) + "," + std::to_string(T) +
                  ") was never generated");
    }
  }
  result.ok = true;
  UPN_OBS_COUNT("pebble.validator.sends", result.pebbles_sent);
  UPN_OBS_COUNT("pebble.validator.receives", result.pebbles_received);
  UPN_OBS_COUNT("pebble.validator.generates", result.pebbles_generated);
  return result;
}

}  // namespace upn::testing
