#include "src/core/schedule_protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/guest_driver.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/topology/butterfly.hpp"

namespace upn {

namespace {

/// Greedy edge coloring of one multiport step's moves: two moves sharing a
/// processor get different colors.  Returns per-move colors and the count.
std::uint32_t color_moves(const std::vector<const ScheduledMove*>& moves,
                          std::uint32_t num_nodes, std::vector<std::uint32_t>& colors) {
  constexpr std::uint32_t kMaxColors = 16;
  colors.assign(moves.size(), 0);
  // node_used[v] is a bitmask of colors already incident to v.
  std::vector<std::uint32_t> node_used(num_nodes, 0);
  std::uint32_t max_color = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const std::uint32_t used = node_used[moves[i]->from] | node_used[moves[i]->to];
    std::uint32_t color = 0;
    while (color < kMaxColors && ((used >> color) & 1u)) ++color;
    if (color == kMaxColors) {
      throw std::logic_error{"color_moves: degree exceeded expectations"};
    }
    colors[i] = color;
    node_used[moves[i]->from] |= 1u << color;
    node_used[moves[i]->to] |= 1u << color;
    max_color = std::max(max_color, color + 1);
  }
  return max_color;
}

}  // namespace

OfflineProtocolResult make_offline_universal_protocol(const Graph& guest,
                                                      std::uint32_t butterfly_dimension,
                                                      const std::vector<NodeId>& embedding,
                                                      std::uint32_t guest_steps) {
  const ButterflyLayout layout{butterfly_dimension, /*wrapped=*/false};
  const std::uint32_t n = guest.num_nodes();
  const std::uint32_t m = layout.num_nodes();
  // The fixed per-step relation: demand d (the schedule's packet d) ships
  // the pebble of guest senders()[d].
  const GuestDriver driver{guest, m, embedding, "make_offline_universal_protocol"};
  const HhProblem relation = driver.host_problem(m);
  const OfflineSchedule schedule = route_relation_offline(butterfly_dimension, relation);
  if (!validate_schedule(schedule, relation)) {
    throw std::logic_error{"make_offline_universal_protocol: invalid schedule"};
  }

  // Pre-split every multiport step into colored single-port sub-steps; the
  // split is schedule-wide, so compute it once.
  std::vector<std::vector<std::vector<const ScheduledMove*>>> sub_steps;  // [step][color]
  {
    std::size_t i = 0;
    std::vector<std::uint32_t> colors;
    while (i < schedule.moves.size()) {
      const std::uint32_t step = schedule.moves[i].step;
      std::vector<const ScheduledMove*> moves;
      for (; i < schedule.moves.size() && schedule.moves[i].step == step; ++i) {
        moves.push_back(&schedule.moves[i]);
      }
      const std::uint32_t num_colors = color_moves(moves, m, colors);
      std::vector<std::vector<const ScheduledMove*>> by_color(num_colors);
      for (std::size_t j = 0; j < moves.size(); ++j) by_color[colors[j]].push_back(moves[j]);
      sub_steps.push_back(std::move(by_color));
    }
  }
  std::uint32_t single_port_steps = 0;
  for (const auto& by_color : sub_steps) {
    single_port_steps += static_cast<std::uint32_t>(by_color.size());
  }

  OfflineProtocolResult result{Protocol{n, m, guest_steps}, schedule.num_steps,
                               single_port_steps + driver.load(), 0.0};
  result.expansion_factor =
      schedule.num_steps == 0
          ? 1.0
          : static_cast<double>(single_port_steps) / schedule.num_steps;

  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    // Communication: replay the colored schedule.
    for (const auto& by_color : sub_steps) {
      for (const auto& matching : by_color) {
        result.protocol.begin_step();
        for (const ScheduledMove* move : matching) {
          const PebbleType pebble{driver.senders()[move->packet], t - 1};
          result.protocol.add(Op{OpKind::kSend, move->from, pebble, move->to});
          result.protocol.add(Op{OpKind::kReceive, move->to, pebble, move->from});
        }
      }
    }
    // Computation: one generate per hosted guest, round-robin across hosts.
    emit_generate_rounds(&result.protocol, driver.guests_of(), t);
  }
  return result;
}

}  // namespace upn
