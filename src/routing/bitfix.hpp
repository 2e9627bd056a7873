// Deterministic oblivious bit-fixing routing on the unwrapped butterfly.
//
// The classic scheme: a packet at (level, row) headed for (level', row')
//   phase 0: rides straight edges down to level 0;
//   phase 1: ascends levels 0..d, taking the cross edge at level l iff bit
//            l of its current row differs from the destination row;
//   phase 2: rides straight edges from level d back to the target level.
// Paths have length <= 2d + d, are fixed by (source, destination) only
// (oblivious), and need no distance oracle.  Borodin-Hopcroft-style theory
// (and [10, 17] cited in Section 1) says such deterministic oblivious
// schemes must have bad permutations; the ROUTE bench measures exactly that
// on bit-reversal and transpose patterns, where Valiant's randomization
// wins.
#pragma once

#include <cstdint>
#include <vector>

#include "src/routing/router.hpp"
#include "src/topology/butterfly.hpp"

namespace upn {

class ButterflyBitfixPolicy final : public RoutingPolicy {
 public:
  explicit ButterflyBitfixPolicy(std::uint32_t dimension) : layout_{dimension, false} {}

  void prepare(const Graph& graph, std::vector<Packet>& packets) override;  // upn-analyze-waive(contract-coverage: validates the host; a wrong one throws std::invalid_argument)
  [[nodiscard]] NodeId next_hop(const Graph& graph, NodeId at, const Packet& packet) override;
  [[nodiscard]] std::string name() const override { return "bitfix"; }

 private:
  ButterflyLayout layout_;
};

}  // namespace upn
