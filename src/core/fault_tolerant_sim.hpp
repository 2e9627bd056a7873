// Self-healing universal simulation: Theorem 2.1 on degrading hardware.
//
// Wraps the step-by-step simulation of core/universal_sim.hpp with a
// FaultPlan (fault/fault_plan.hpp).  Permanent faults are revealed at
// guest-step boundaries; when a host processor is discovered dead, the
// guests it simulated are re-embedded onto surviving processors (least
// loaded first, reusing core/embedding bookkeeping) and their lost pebble
// history is REPLAYED: the new host regenerates (P_u, 1), ..., (P_u, t-1)
// from the initial pebbles and its neighbors' persisted pebbles.  Replay is
// legal in the unmodified Section 3.1 game -- pebbles are never lost at
// surviving processors, so every predecessor a regeneration needs can be
// re-sent by its original generator.  Transient packet drops surface as
// SEND operations whose mirrored RECEIVE never happened (the pebble copy
// was lost in flight), followed by a backoff retransmission; both are legal
// protocol behaviors.
//
// Degradation is therefore visible ONLY as extra slowdown: the emitted
// protocol always validates against the original host graph, and -- when
// every permanent fault activates before its hardware is first used (e.g.
// faults at host step 0, the standard degradation-curve scenario) --
// against the surviving host as well (surviving_edges_graph), because all
// traffic is routed on live links from the start.  See docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/guest_driver.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/pebble/protocol.hpp"
#include "src/routing/router.hpp"
#include "src/topology/graph.hpp"

namespace upn {

struct FaultSimOptions {
  /// External policy consulted first on live links; nullptr = the router's
  /// internal greedy policy on the surviving subgraph.
  RoutingPolicy* policy = nullptr;
  std::uint64_t seed = 0x5eed;     ///< initial guest configurations
  bool emit_protocol = false;      ///< single-port protocol, Section 3.1 rules
  std::uint32_t max_retries = 16;  ///< per packet, per routing phase
  std::uint32_t backoff_base = 1;  ///< retransmission backoff (doubles per retry)
  std::uint32_t reinject_attempts = 3;  ///< extra routing rounds for lost packets
};

struct FaultSimResult {
  std::uint32_t guest_steps = 0;   ///< T
  std::uint32_t host_steps = 0;    ///< T' (includes healing)
  std::uint32_t comm_steps = 0;    ///< host steps spent routing
  std::uint32_t compute_steps = 0; ///< host steps spent generating
  std::uint32_t replay_steps = 0;  ///< subset of host_steps spent healing
  std::uint32_t fault_epochs = 0;  ///< boundaries at which new faults appeared
  std::uint32_t reembedded_guests = 0;
  std::uint32_t load = 0;          ///< max guests per live host observed
  std::uint64_t packets_routed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t reroutes = 0;
  double slowdown = 0.0;           ///< s = T'/T
  double inefficiency = 0.0;       ///< k = s m / n
  bool completed = false;          ///< false: survivors could not carry the guest
  bool configs_match = false;      ///< vs the direct guest execution
  std::optional<Protocol> protocol;
};

class FaultTolerantSimulator {
 public:
  /// `embedding[u]` = host processor initially simulating guest u (may
  /// include processors the plan later kills -- healing handles it).
  /// Graphs and plan must outlive the simulator.
  FaultTolerantSimulator(const Graph& guest, const Graph& host, const FaultPlan& plan,
                         std::vector<NodeId> embedding);

  /// Simulates T guest steps under the fault plan.  Returns (rather than
  /// throws) with completed == false when the surviving host can no longer
  /// carry the guest (e.g. the survivors are disconnected).
  [[nodiscard]] FaultSimResult run(std::uint32_t guest_steps,
                                   const FaultSimOptions& options = {});

  [[nodiscard]] const std::vector<NodeId>& embedding() const noexcept {
    return driver_.embedding();
  }

 private:
  const Graph* host_;
  const FaultPlan* plan_;
  GuestDriver driver_;
};

}  // namespace upn
