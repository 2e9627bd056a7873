#include "src/core/universal_sim.hpp"

#include <stdexcept>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/routing/policies.hpp"
#include "src/util/contracts.hpp"

namespace upn {

UniversalSimulator::UniversalSimulator(const Graph& guest, const Graph& host,
                                       std::vector<NodeId> embedding)
    : host_(&host), driver_([&] {
        UPN_OBS_SPAN("sim.universal.embed");
        GuestDriver driver{guest, host.num_nodes(), std::move(embedding), "UniversalSimulator"};
        UPN_OBS_GAUGE_MAX("sim.universal.embedding_load", driver.load());
        return driver;
      }()) {}

UniversalSimulator::~UniversalSimulator() = default;

UniversalSimResult UniversalSimulator::run(std::uint32_t guest_steps,
                                           const UniversalSimOptions& options) {
  UPN_OBS_SPAN("sim.universal.run");
  const Graph& host = *host_;

  RoutingPolicy* policy = options.policy;
  if (policy == nullptr) {
    // Lazily built once per simulator, not per run: the greedy policy's BFS
    // distance tables depend only on the host graph, so repeated runs reuse
    // them instead of re-deriving every destination's distances.
    if (default_policy_ == nullptr) default_policy_ = std::make_unique<GreedyPolicy>(host);
    policy = default_policy_.get();
  }
  SyncRouter router{host, options.port_model};

  UniversalSimResult result;
  result.guest_steps = guest_steps;
  result.load = driver_.load();
  if (options.emit_protocol) {
    if (options.port_model != PortModel::kSinglePort) {
      // Multiport transfers are not matchings, so they cannot be expressed
      // as one-operation-per-processor pebble steps.
      throw std::invalid_argument{
          "UniversalSimulator: protocol emission requires the single-port model"};
    }
    result.protocol.emplace(driver_.guest().num_nodes(), host.num_nodes(), guest_steps);
  }

  // One guest step's communication: the h-h routing of Theorem 2.1.  The
  // single-port router makes every step's transfers a matching, hence one
  // pebble operation per processor.
  const auto comm = [&](std::uint32_t t) {
    std::vector<Packet> packets = driver_.packets();
    result.packets_routed += packets.size();
    UPN_OBS_COUNT("sim.universal.packets_routed", packets.size());
    std::uint32_t steps = 0;
    if (!packets.empty()) {
      const RouteResult routed =
          router.route(std::move(packets), *policy, options.emit_protocol);
      UPN_INVARIANT(routed.packets_lost == 0, "fault-free routing must deliver every packet");
      for (std::size_t d = 0; d < routed.packets.size(); ++d) {
        driver_.deliver(d, routed.packets[d].payload);
      }
      driver_.emit_route(routed, t - 1);
      steps = routed.steps;
    }
    driver_.count_comm(steps);
    UPN_OBS_COUNT("sim.universal.comm_steps", steps);
    return true;
  };
  const DriverTotals totals = driver_.run(
      guest_steps, options.seed,
      {"sim.universal.route", "sim.universal.compute", "sim.universal.validate"},
      result.protocol ? &*result.protocol : nullptr, comm);

  result.comm_steps = totals.comm_steps;
  result.compute_steps = totals.compute_steps;
  result.host_steps = totals.host_steps;
  result.slowdown = totals.slowdown;
  result.inefficiency = totals.inefficiency;
  result.configs_match = totals.configs_match;
  UPN_OBS_COUNT("sim.universal.compute_steps", totals.compute_steps);
  UPN_OBS_COUNT("sim.universal.runs", 1);
  return result;
}

}  // namespace upn
