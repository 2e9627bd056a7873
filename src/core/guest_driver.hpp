// The guest-step driver shared by every graph-guest simulator.
//
// Theorem 2.1 simulates each guest step as one h-h routing phase followed by
// `load` computation steps.  The (G, f) communication relation of that
// routing phase is fixed -- "known in advance", the fact behind the off-line
// corollary -- so the driver builds it ONCE per embedding: one demand per
// directed guest edge u -> v with f(u) != f(v), in packet order (u
// ascending, CSR neighbour order), each carrying v's CSR slot for u.
//
// The driver owns everything the simulation regimes have in common:
//   * config seeding and the gather + next_config compute phase;
//   * a flat per-slot inbox: inbox[s] is the last configuration delivered on
//     the directed edge of guest-CSR slot s (seeded with the sender's
//     initial configuration, so an undelivered demand reads stale);
//   * the Section 3.1 send/receive/generate emitter;
//   * the slowdown/inefficiency arithmetic and the run_reference check;
//   * the per-step route/compute spans and the validate span.
// A regime supplies only its per-step communication, as a callable that
// moves the step's payloads into the inbox (deliver / deliver_all) and
// reports the host steps it spent (count_comm).  The regime's entry point
// opens its own `sim.<regime>.run` span so that span also covers its set-up
// (schedule build, table warm-up, policy construction).
//
// core/complete_sim stays outside: its guest is an implicit K_n with a fresh
// relation every step and a one-input next function.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/compute/machine.hpp"
#include "src/pebble/protocol.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/router.hpp"
#include "src/topology/graph.hpp"

namespace upn {

/// Span names of one regime, all under its `sim.<regime>.` prefix.
struct DriverSpans {
  const char* route;
  const char* compute;
  const char* validate;
};

/// What every regime reports, copied into its own result struct.
struct DriverTotals {
  std::uint32_t comm_steps = 0;     ///< host steps spent communicating
  std::uint32_t compute_steps = 0;  ///< host steps spent generating
  std::uint32_t host_steps = 0;     ///< T' = comm + compute
  double slowdown = 0.0;            ///< s = T'/T
  double inefficiency = 0.0;        ///< k = s m / n
  bool completed = false;           ///< false: the communication step gave up
  bool configs_match = false;       ///< vs the direct guest execution
};

/// Emits the computation phase of guest time `t`: round r generates
/// (lists[q][r], t) on every host q that has an r-th guest.  Emits nothing
/// when `protocol` is null.  Returns the number of rounds (max list size).
std::uint32_t emit_generate_rounds(Protocol* protocol,
                                   const std::vector<std::vector<NodeId>>& lists,
                                   std::uint32_t t);

class GuestDriver {
 public:
  /// Per-step communication of guest step t; false = cannot complete.
  using CommStep = std::function<bool(std::uint32_t t)>;

  /// Validates the embedding (validate_embedding, `who` names the caller in
  /// the error) and builds the relation.  The guest must outlive the driver.
  GuestDriver(const Graph& guest, std::uint32_t host_nodes, std::vector<NodeId> embedding,
              const char* who);

  /// Replaces the embedding (re-embedding after faults) and rebuilds the
  /// relation and per-host guest lists.
  void rebind(std::vector<NodeId> embedding);

  [[nodiscard]] const Graph& guest() const noexcept { return *guest_; }
  [[nodiscard]] const std::vector<NodeId>& embedding() const noexcept { return embedding_; }
  [[nodiscard]] const std::vector<std::vector<NodeId>>& guests_of() const noexcept {
    return guests_of_;
  }
  [[nodiscard]] std::uint32_t load() const noexcept { return load_; }

  /// The relation: demand d carries the configuration of guest senders()[d]
  /// to guest receivers()[d], from host f(sender) to host f(receiver).
  [[nodiscard]] const std::vector<NodeId>& senders() const noexcept { return sender_; }
  [[nodiscard]] const std::vector<NodeId>& receivers() const noexcept { return receiver_; }

  /// The relation's host demands, over `num_nodes` >= host_nodes() processors.
  [[nodiscard]] HhProblem host_problem(std::uint32_t num_nodes) const;

  /// Simulates T guest steps from `seed`: per step, `comm` (inside the route
  /// span), then the compute phase (inside the compute span, emitting the
  /// generate rounds when `protocol` is set); then the reference check.
  [[nodiscard]] DriverTotals run(std::uint32_t guest_steps, std::uint64_t seed,
                                 const DriverSpans& spans, Protocol* protocol,
                                 const CommStep& comm);

  // ---- For the communication step of a run. ----

  /// The relation as packets carrying this step's configurations: packet d
  /// is demand d, tag = sender, tag2 = receiver.
  [[nodiscard]] std::vector<Packet> packets() const;
  /// Demand d delivered `payload` to its receiver.
  void deliver(std::size_t demand, Config payload) noexcept {
    inbox_[slot_[demand]] = payload;
  }
  /// Every demand delivered this step's configuration.
  void deliver_all();
  void count_comm(std::uint32_t steps) noexcept { totals_.comm_steps += steps; }
  /// Host steps elapsed so far in this run.
  [[nodiscard]] std::uint32_t elapsed() const noexcept {
    return totals_.comm_steps + totals_.compute_steps;
  }
  /// Emits one protocol step per router step, if the run has a protocol:
  /// every transfer is a send of the pebble (P_tag, pebble_time) plus the
  /// mirrored receive; a transfer whose copy was dropped in flight emits the
  /// send only.
  void emit_route(const RouteResult& routed, std::uint32_t pebble_time);
  /// emit_generate_rounds into the run's protocol, counted as compute steps.
  std::uint32_t generate(const std::vector<std::vector<NodeId>>& lists, std::uint32_t t);

 private:
  const Graph* guest_;
  std::uint32_t host_nodes_;
  const char* who_;
  std::vector<NodeId> embedding_;
  std::vector<std::vector<NodeId>> guests_of_;
  std::uint32_t load_ = 0;
  std::vector<NodeId> sender_, receiver_;
  std::vector<std::uint32_t> slot_;  ///< demand -> receiver's CSR slot

  // Run state, released when the run ends.
  std::vector<Config> configs_, next_;
  std::vector<Config> inbox_;  ///< per guest-CSR slot
  Protocol* protocol_ = nullptr;
  DriverTotals totals_;
};

}  // namespace upn
