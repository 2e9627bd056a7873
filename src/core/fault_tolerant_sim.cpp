#include "src/core/fault_tolerant_sim.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "src/obs/obs.hpp"

namespace upn {

namespace {

constexpr NodeId kNoSurvivorHost = 0xffffffffu;

}  // namespace

FaultTolerantSimulator::FaultTolerantSimulator(const Graph& guest, const Graph& host,
                                               const FaultPlan& plan,
                                               std::vector<NodeId> embedding)
    : host_(&host),
      plan_(&plan),
      driver_(guest, host.num_nodes(), std::move(embedding), "FaultTolerantSimulator") {}

FaultSimResult FaultTolerantSimulator::run(std::uint32_t guest_steps,
                                           const FaultSimOptions& options) {
  UPN_OBS_SPAN("sim.fault.run");
  const Graph& guest = driver_.guest();
  const std::uint32_t n = guest.num_nodes();
  const std::uint32_t m = host_->num_nodes();

  SyncRouter router{*host_, PortModel::kSinglePort};

  FaultSimResult result;
  result.guest_steps = guest_steps;
  result.load = driver_.load();
  if (options.emit_protocol) result.protocol.emplace(n, m, guest_steps);

  // The driver's elapsed host steps H are the fault clock: the plan is
  // evaluated at H and every routing phase is offset by H.
  //
  // The plan as revealed so far (permanent faults quantized to guest-step
  // boundaries; drop windows verbatim).  Rebuilt when new faults activate.
  FaultPlan revealed = plan_->revealed_at(0);
  std::vector<char> host_dead(m, 0);

  FaultRouteOptions route_opts;
  route_opts.plan = &revealed;
  route_opts.max_retries = options.max_retries;
  route_opts.backoff_base = options.backoff_base;

  // Routes `packets` at the current host step, re-injecting lost packets a
  // bounded number of times; packet i delivers relation demand demands[i]
  // (no `demands`: deliver nothing).  Returns false when packets remain
  // lost (the surviving host cannot deliver them).
  auto route_phase = [&](std::vector<Packet> packets, std::vector<std::uint32_t> demands,
                         std::uint32_t pebble_time) -> bool {
    std::uint32_t attempts = 0;
    while (!packets.empty()) {
      result.packets_routed += packets.size();
      UPN_OBS_COUNT("sim.fault.packets_routed", packets.size());
      route_opts.step_offset = driver_.elapsed();
      const RouteResult routed = router.route_with_faults(std::move(packets), route_opts,
                                                          options.policy, options.emit_protocol);
      driver_.count_comm(routed.steps);
      result.retransmissions += routed.retransmissions;
      result.reroutes += routed.reroutes;
      driver_.emit_route(routed, pebble_time);
      packets.clear();
      std::vector<std::uint32_t> retry_demands;
      for (std::size_t i = 0; i < routed.packets.size(); ++i) {
        const Packet& p = routed.packets[i];
        if (p.lost == 0) {
          if (!demands.empty()) driver_.deliver(demands[i], p.payload);
          continue;
        }
        Packet retry = p;  // the router resets the delivery state on entry
        retry.via = p.dst;
        retry.phase = 1;
        packets.push_back(retry);
        if (!demands.empty()) retry_demands.push_back(demands[i]);
      }
      demands = std::move(retry_demands);
      if (packets.empty()) return true;
      UPN_OBS_COUNT("sim.fault.reinjections", packets.size());
      if (++attempts > options.reinject_attempts) return false;
    }
    return true;
  };

  // Replays guest times 1..upto for the re-embedded guests in `lost`: their
  // new hosts receive the persisted predecessor pebbles from the current
  // holders and regenerate the lost history level by level.
  auto replay = [&](const std::vector<NodeId>& lost, std::uint32_t upto) -> bool {
    UPN_OBS_SPAN("sim.fault.replay");
    UPN_OBS_COUNT("sim.fault.replays", 1);
    UPN_OBS_HIST("sim.fault.replay_depth", upto);
    const std::vector<NodeId>& embedding = driver_.embedding();
    std::vector<std::vector<NodeId>> lists(m);
    for (const NodeId u : lost) lists[embedding[u]].push_back(u);
    for (std::uint32_t tau = 1; tau <= upto; ++tau) {
      if (tau >= 2) {  // tau == 1 needs only initial pebbles, held by all
        std::vector<Packet> packets;
        std::unordered_set<std::uint64_t> seen;  // (guest j) -> (dest host)
        for (const NodeId u : lost) {
          for (const NodeId j : guest.neighbors(u)) {
            const NodeId holder = embedding[j];
            const NodeId dest = embedding[u];
            if (holder == dest) continue;
            const std::uint64_t key = (static_cast<std::uint64_t>(j) << 32) | dest;
            if (!seen.insert(key).second) continue;
            Packet p;
            p.src = holder;
            p.dst = dest;
            p.via = dest;
            p.tag = j;
            p.tag2 = u;
            packets.push_back(p);
          }
        }
        const std::uint32_t before = driver_.elapsed();
        if (!route_phase(std::move(packets), {}, tau - 1)) return false;
        result.replay_steps += driver_.elapsed() - before;
      }
      result.replay_steps += driver_.generate(lists, tau);
    }
    return true;
  };

  // One guest step's communication: detect the faults revealed at the
  // boundary, heal (re-embed + replay), then the h-h routing of Theorem 2.1
  // on the surviving host.
  const auto comm = [&](std::uint32_t t) -> bool {
    const std::uint32_t now = driver_.elapsed();
    bool new_faults = false;
    for (NodeId q = 0; q < m; ++q) {
      if (host_dead[q] == 0 && !plan_->node_alive(q, now)) {
        host_dead[q] = 1;
        new_faults = true;
      }
    }
    for (const LinkFault& f : plan_->link_faults()) {
      if (f.step <= now && revealed.link_alive(f.u, f.v, 0)) new_faults = true;
    }
    if (new_faults) {
      ++result.fault_epochs;
      revealed = plan_->revealed_at(now);
      // Re-embed guests whose host died onto the least-loaded survivors.
      std::vector<NodeId> embedding = driver_.embedding();
      std::vector<NodeId> lost;
      for (NodeId u = 0; u < n; ++u) {
        if (host_dead[embedding[u]] != 0) lost.push_back(u);
      }
      if (!lost.empty()) {
        std::vector<std::uint32_t> load(m, 0);
        for (NodeId u = 0; u < n; ++u) {
          if (host_dead[embedding[u]] == 0) ++load[embedding[u]];
        }
        bool any_survivor = false;
        for (NodeId q = 0; q < m; ++q) any_survivor |= host_dead[q] == 0;
        if (!any_survivor) return false;
        for (const NodeId u : lost) {
          NodeId best = kNoSurvivorHost;
          for (NodeId q = 0; q < m; ++q) {
            if (host_dead[q] != 0) continue;
            if (best == kNoSurvivorHost || load[q] < load[best]) best = q;
          }
          embedding[u] = best;
          ++load[best];
        }
        driver_.rebind(std::move(embedding));
        result.load = std::max(result.load, driver_.load());
        result.reembedded_guests += static_cast<std::uint32_t>(lost.size());
        if (!replay(lost, t - 1)) return false;
      }
    }
    std::vector<std::uint32_t> demands(driver_.senders().size());
    std::iota(demands.begin(), demands.end(), 0u);
    return route_phase(driver_.packets(), std::move(demands), t - 1);
  };
  const DriverTotals totals = driver_.run(
      guest_steps, options.seed, {"sim.fault.route", "sim.fault.compute", "sim.fault.validate"},
      result.protocol ? &*result.protocol : nullptr, comm);

  result.comm_steps = totals.comm_steps;
  result.compute_steps = totals.compute_steps;
  result.host_steps = totals.host_steps;
  result.slowdown = totals.slowdown;
  result.inefficiency = totals.inefficiency;
  result.completed = totals.completed;
  result.configs_match = totals.configs_match;
  UPN_OBS_COUNT("sim.fault.replay_steps", result.replay_steps);
  UPN_OBS_COUNT("sim.fault.fault_epochs", result.fault_epochs);
  UPN_OBS_COUNT("sim.fault.reembedded_guests", result.reembedded_guests);
  return result;
}

}  // namespace upn
