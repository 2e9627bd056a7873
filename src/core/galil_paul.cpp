#include "src/core/galil_paul.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/guest_driver.hpp"
#include "src/obs/obs.hpp"
#include "src/sorting/bitonic.hpp"
#include "src/sorting/sort_route.hpp"
#include "src/util/math.hpp"

namespace upn {

GalilPaulCost galil_paul_step_cost(const Graph& guest, std::uint32_t m) {
  if (m == 0) throw std::invalid_argument{"galil_paul_step_cost: m must be positive"};
  const auto sorter_size = static_cast<std::uint32_t>(next_power_of_two(m));
  const ComparatorNetwork sorter = make_bitonic_sorter(std::max(2u, sorter_size));

  const GuestDriver driver{guest, m, make_block_embedding(guest.num_nodes(), m),
                          "galil_paul_step_cost"};
  const SortRouteStats stats =
      route_relation_by_sorting(driver.host_problem(sorter.wires()), sorter);

  GalilPaulCost cost;
  cost.rounds = stats.rounds;
  cost.sorter_depth = sorter.depth();
  cost.steps_per_guest_step = stats.comparator_steps + driver.load();
  cost.slowdown = static_cast<double>(cost.steps_per_guest_step);
  cost.delivered = stats.delivered;
  return cost;
}

GalilPaulSimResult run_galil_paul(const Graph& guest, std::uint32_t m,
                                  std::uint32_t guest_steps, std::uint64_t seed) {
  if (m == 0) throw std::invalid_argument{"run_galil_paul: m must be positive"};
  UPN_OBS_SPAN("sim.galil_paul.run");
  const auto wires = std::max(2u, static_cast<std::uint32_t>(next_power_of_two(m)));
  const ComparatorNetwork sorter = make_bitonic_sorter(wires);
  GuestDriver driver{guest, m, make_block_embedding(guest.num_nodes(), m), "run_galil_paul"};
  const HhProblem relation = driver.host_problem(wires);

  // Payload d is the sending guest of demand d: the sort network physically
  // moves these records to the destination host.  The multiset of senders
  // each host must receive is fixed, so it is computed once.
  std::vector<std::uint64_t> senders;
  std::vector<std::vector<std::uint64_t>> expected(wires);
  for (std::size_t d = 0; d < driver.senders().size(); ++d) {
    senders.push_back(driver.senders()[d]);
    expected[driver.embedding()[driver.receivers()[d]]].push_back(driver.senders()[d]);
  }
  for (auto& want : expected) std::sort(want.begin(), want.end());

  const DriverTotals totals = driver.run(
      guest_steps, seed,
      {"sim.galil_paul.route", "sim.galil_paul.compute", "sim.galil_paul.validate"}, nullptr,
      [&](std::uint32_t) {
        SortRouteDelivery delivery = deliver_relation_by_sorting(relation, senders, sorter);
        if (!delivery.stats.delivered) {
          throw std::logic_error{"run_galil_paul: sort routing failed to deliver"};
        }
        // Only a physically correct delivery justifies handing the
        // configurations over.
        for (std::uint32_t q = 0; q < wires; ++q) {
          std::sort(delivery.delivered[q].begin(), delivery.delivered[q].end());
          if (delivery.delivered[q] != expected[q]) {
            throw std::logic_error{"run_galil_paul: sort routing delivered wrong records"};
          }
        }
        driver.deliver_all();
        driver.count_comm(static_cast<std::uint32_t>(delivery.stats.comparator_steps));
        return true;
      });

  GalilPaulSimResult result;
  result.guest_steps = guest_steps;
  result.host_steps = totals.host_steps;
  result.slowdown = totals.slowdown;
  result.configs_match = totals.configs_match;
  return result;
}

}  // namespace upn
