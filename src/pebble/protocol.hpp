// The pebble-game simulation model of Section 3.1.
//
// A pebble of type (P_i, t) stands for the configuration of guest processor
// P_i at guest time t.  Initially every host processor holds all pebbles
// (P_1, 0), ..., (P_n, 0).  In every host time step every processor performs
// at most ONE of:
//
//   * GENERATE a pebble (P_i, t): allowed only if the processor holds
//     (P_i, t-1) and (P_j, t-1) for every guest neighbor P_j of P_i;
//   * SEND a copy of one held pebble to a neighboring host processor
//     (pebbles are never lost -- the sender keeps its copy);
//   * RECEIVE a pebble from a neighbor (at most one per step).
//
// After T' host steps, every final pebble (P_i, T) must have been generated
// somewhere.  A Protocol is the full listing of operations; the validator
// (validator.hpp) replays it against the guest and host graphs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

/// Pebble type (P_i, t).
struct PebbleType {
  NodeId node = 0;      ///< i: guest processor index
  std::uint32_t time = 0;  ///< t: guest time step

  friend bool operator==(const PebbleType&, const PebbleType&) = default;
};

enum class OpKind : std::uint8_t { kGenerate, kSend, kReceive };

struct Op {
  OpKind kind = OpKind::kGenerate;
  std::uint32_t proc = 0;     ///< host processor performing the operation
  PebbleType pebble;          ///< the pebble generated / sent / received
  std::uint32_t partner = 0;  ///< send: receiver; receive: sender; else unused
};

/// A simulation protocol S: host steps, each a list of operations (at most
/// one per processor -- enforced at insertion).
class Protocol {
 public:
  Protocol(std::uint32_t num_guests, std::uint32_t num_hosts, std::uint32_t guest_steps);

  /// Opens a new host time step, reserving the previous step's op count.
  void begin_step();

  /// Adds an operation to the current host step.
  void add(const Op& op);

  [[nodiscard]] std::uint32_t num_guests() const noexcept { return num_guests_; }
  [[nodiscard]] std::uint32_t num_hosts() const noexcept { return num_hosts_; }
  [[nodiscard]] std::uint32_t guest_steps() const noexcept { return guest_steps_; }
  /// T': number of host steps.
  [[nodiscard]] std::uint32_t host_steps() const noexcept {
    return static_cast<std::uint32_t>(steps_.size());
  }
  [[nodiscard]] const std::vector<std::vector<Op>>& steps() const noexcept { return steps_; }

  [[nodiscard]] std::uint64_t num_ops() const noexcept;

  /// Slowdown s = T' / T.
  [[nodiscard]] double slowdown() const noexcept {
    return guest_steps_ == 0 ? 0.0
                             : static_cast<double>(host_steps()) / guest_steps_;
  }

  /// Inefficiency k = s * m / n = T' m / (T n), Section 3.1.
  [[nodiscard]] double inefficiency() const noexcept {
    return num_guests_ == 0 ? 0.0 : slowdown() * num_hosts_ / num_guests_;
  }

 private:
  std::uint32_t num_guests_;
  std::uint32_t num_hosts_;
  std::uint32_t guest_steps_;
  std::vector<std::vector<Op>> steps_;
  std::vector<std::uint32_t> proc_used_step_;  ///< proc -> last step index + 1
};

}  // namespace upn
