#include "src/pebble/protocol.hpp"

#include "src/util/contracts.hpp"

namespace upn {

Protocol::Protocol(std::uint32_t num_guests, std::uint32_t num_hosts,
                   std::uint32_t guest_steps)
    : num_guests_(num_guests),
      num_hosts_(num_hosts),
      guest_steps_(guest_steps),
      proc_used_step_(num_hosts, 0) {}

void Protocol::begin_step() {
  // Consecutive host steps carry similar op counts, so the previous step's
  // count spares the growth reallocations, and the total over-reservation
  // stays below the total op count, the same bound doubling gives.
  const std::size_t expected = steps_.empty() ? 0 : steps_.back().size();
  steps_.emplace_back().reserve(expected);
}

void Protocol::add(const Op& op) {
  UPN_REQUIRE(!steps_.empty(), "Protocol::add: begin_step() first");
  if (steps_.empty()) return;  // log-and-continue mode: drop the op instead of UB
  if (op.proc >= num_hosts_) {
    throw std::out_of_range{"Protocol::add: host processor out of range"};
  }
  if (op.pebble.node >= num_guests_ || op.pebble.time > guest_steps_) {
    throw std::out_of_range{"Protocol::add: pebble type out of range"};
  }
  if (op.kind != OpKind::kGenerate && op.partner >= num_hosts_) {
    throw std::out_of_range{"Protocol::add: partner out of range"};
  }
  const auto current = static_cast<std::uint32_t>(steps_.size());
  UPN_REQUIRE(proc_used_step_[op.proc] != current,
              "Protocol::add: processor already acted this step (pebble-game legality: "
              "at most one operation per processor per host step)");
  proc_used_step_[op.proc] = current;
  steps_.back().push_back(op);
}

std::uint64_t Protocol::num_ops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& step : steps_) total += step.size();
  return total;
}

}  // namespace upn
