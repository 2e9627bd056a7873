#include "src/core/online_adaptive_sim.hpp"

#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

OnlineAdaptiveSimulator::OnlineAdaptiveSimulator(const Graph& guest, const Graph& host,
                                                 std::vector<NodeId> embedding,
                                                 const FaultPlan& plan)
    : host_(&host),
      plan_(&plan),
      driver_([&] {
        UPN_OBS_SPAN("sim.online.embed");
        return GuestDriver{guest, host.num_nodes(), std::move(embedding),
                           "OnlineAdaptiveSimulator"};
      }()) {}

OnlineAdaptiveSimResult OnlineAdaptiveSimulator::run(std::uint32_t guest_steps,
                                                     const OnlineAdaptiveSimOptions& options) {
  UPN_OBS_SPAN("sim.online.run");

  // One PERSISTENT router for the whole run: tables learned during guest
  // step t keep serving step t+1, and the fault clock advances continuously
  // across phases -- this is what makes the regime online rather than a
  // per-step rebuild.
  OnlineRouter router{*host_, *plan_, options.router};

  OnlineAdaptiveSimResult result;
  result.guest_steps = guest_steps;
  result.load = driver_.load();

  {
    UPN_OBS_SPAN("sim.online.warmup");
    const ConvergenceReport warmup = router.run_until_stable(options.warmup_rounds);
    result.warmup_rounds = warmup.rounds;
    result.warmup_stable = warmup.stable;
    UPN_OBS_COUNT("sim.online.warmup_rounds", warmup.rounds);
  }

  // Communication over the adapting tables.  A packet churn eats leaves its
  // inbox slot holding the last configuration that edge delivered (the
  // initial one at worst): the receiver's read of it is a STALE READ.
  const auto comm = [&](std::uint32_t) {
    std::vector<Packet> packets = driver_.packets();
    result.packets_routed += packets.size();
    UPN_OBS_COUNT("sim.online.packets_routed", packets.size());
    if (packets.empty()) return true;
    const OnlineRouteResult routed = router.route(std::move(packets), options.max_comm_steps);
    driver_.count_comm(routed.steps);
    result.packets_lost += routed.lost;
    UPN_OBS_COUNT("sim.online.comm_steps", routed.steps);
    for (std::size_t d = 0; d < routed.packets.size(); ++d) {
      if (routed.packets[d].lost == 0) driver_.deliver(d, routed.packets[d].payload);
    }
    return true;
  };
  const DriverTotals totals =
      driver_.run(guest_steps, options.seed,
                  {"sim.online.route", "sim.online.compute", "sim.online.validate"}, nullptr, comm);

  // Every lost packet denied exactly one (receiver, step) refresh, so the
  // loss count IS the stale-read count.
  result.stale_reads = result.packets_lost;
  result.comm_steps = totals.comm_steps;
  result.compute_steps = totals.compute_steps;
  result.host_steps = totals.host_steps;
  result.slowdown = totals.slowdown;
  result.inefficiency = totals.inefficiency;
  result.configs_match = totals.configs_match;
  UPN_ENSURE(result.stale_reads > 0 || guest_steps == 0 || result.configs_match,
             "with every packet delivered the online regime must be exact");
  UPN_OBS_COUNT("sim.online.compute_steps", totals.compute_steps);
  UPN_OBS_COUNT("sim.online.stale_reads", result.stale_reads);
  UPN_OBS_COUNT("sim.online.packets_lost", result.packets_lost);
  UPN_OBS_COUNT("sim.online.runs", 1);
  return result;
}

}  // namespace upn
