#include "src/core/scheduled_universal.hpp"

#include <stdexcept>

#include "src/core/guest_driver.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/path_schedule.hpp"

namespace upn {

ScheduledUniversalResult run_scheduled_universal(const Graph& guest, const Graph& host,
                                                 const std::vector<NodeId>& embedding,
                                                 std::uint32_t guest_steps,
                                                 std::uint64_t seed) {
  UPN_OBS_SPAN("sim.scheduled.run");
  GuestDriver driver{guest, host.num_nodes(), embedding, "run_scheduled_universal"};
  const HhProblem relation = driver.host_problem(host.num_nodes());
  const PathSchedule schedule = [&] {
    UPN_OBS_SPAN("sim.scheduled.schedule");
    PathSchedule built = schedule_paths(host, relation);
    if (!validate_path_schedule(host, relation, built)) {
      throw std::logic_error{"run_scheduled_universal: schedule failed validation" +
                             obs::context_suffix()};
    }
    return built;
  }();
  UPN_OBS_COUNT("sim.scheduled.demands", relation.size());
  UPN_OBS_GAUGE_MAX("sim.scheduled.congestion", schedule.congestion);
  UPN_OBS_GAUGE_MAX("sim.scheduled.dilation", schedule.dilation);
  UPN_OBS_GAUGE_MAX("sim.scheduled.makespan", schedule.makespan);

  // Delivery is by the validated schedule: every demand arrives within its
  // makespan, so the step's payloads are handed over directly.
  const DriverTotals totals = driver.run(
      guest_steps, seed,
      {"sim.scheduled.route", "sim.scheduled.compute", "sim.scheduled.validate"}, nullptr,
      [&](std::uint32_t) {
        driver.deliver_all();
        driver.count_comm(schedule.makespan);
        return true;
      });

  ScheduledUniversalResult result;
  result.guest_steps = guest_steps;
  result.schedule_steps = schedule.makespan;
  result.congestion = schedule.congestion;
  result.dilation = schedule.dilation;
  result.compute_steps = driver.load();
  result.host_steps = totals.host_steps;
  result.slowdown = totals.slowdown;
  result.configs_match = totals.configs_match;
  return result;
}

}  // namespace upn
