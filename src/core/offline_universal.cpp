#include "src/core/offline_universal.hpp"

#include <stdexcept>

#include "src/core/guest_driver.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/topology/butterfly.hpp"

namespace upn {

OfflineUniversalResult run_offline_universal(const Graph& guest,
                                             std::uint32_t butterfly_dimension,
                                             const std::vector<NodeId>& embedding,
                                             std::uint32_t guest_steps, std::uint64_t seed) {
  UPN_OBS_SPAN("sim.offline.run");
  const ButterflyLayout layout{butterfly_dimension, /*wrapped=*/false};
  GuestDriver driver{guest, layout.num_nodes(), embedding, "run_offline_universal"};
  // Schedule once, replay every step ("known in advance").  The schedule's
  // packet index d is the d-th demand of the driver's relation.
  const OfflineSchedule schedule = [&] {
    UPN_OBS_SPAN("sim.offline.schedule");
    const HhProblem relation = driver.host_problem(layout.num_nodes());
    OfflineSchedule built = route_relation_offline(butterfly_dimension, relation);
    if (!validate_schedule(built, relation)) {
      throw std::logic_error{"run_offline_universal: schedule failed validation"};
    }
    return built;
  }();

  // Delivery is by construction of the validated schedule, so the step's
  // payloads are handed over directly.
  const DriverTotals totals = driver.run(
      guest_steps, seed, {"sim.offline.route", "sim.offline.compute", "sim.offline.validate"},
      nullptr, [&](std::uint32_t) {
        driver.deliver_all();
        driver.count_comm(schedule.num_steps);
        return true;
      });

  OfflineUniversalResult result;
  result.guest_steps = guest_steps;
  result.schedule_steps = schedule.num_steps;
  result.num_batches = schedule.num_batches;
  result.compute_steps = driver.load();
  result.host_steps = totals.host_steps;
  result.host_steps_single_port = totals.host_steps + guest_steps * schedule.num_steps;
  result.slowdown = totals.slowdown;
  result.slowdown_single_port =
      guest_steps == 0 ? 0.0
                       : static_cast<double>(result.host_steps_single_port) / guest_steps;
  result.configs_match = totals.configs_match;
  return result;
}

}  // namespace upn
