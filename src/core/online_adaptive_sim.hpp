// Universal simulation over the online routing regime, under live churn.
//
// UniversalSimulator (core/universal_sim.hpp) realizes Theorem 2.1 on a
// pristine host with an omniscient routing policy.  OnlineAdaptiveSimulator
// runs the SAME two-phase guest simulation -- one packet per crossing guest
// edge, then load computation steps per host -- but sends every packet
// through src/routing/online: host nodes learn routes purely from
// announcement traffic while a FaultPlan kills and heals links mid-run.
//
// The regime trades the theorem's exactness for survival.  When churn eats
// a packet (retries exhausted, endpoint unreachable, step ceiling), the
// receiving guest performs a STALE READ -- it reuses the last configuration
// it ever saw from that neighbor -- instead of aborting, so the simulation
// always completes and degradation is measured, not fatal: `stale_reads`
// counts every such substitution, and `configs_match` reports whether the
// end state still equals the direct execution (it does whenever no read
// went stale).  Slowdown comparisons against the offline optimum and the
// (n/m) log2(m) bound of Theorem 2.1 are bench_online's churn curve.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/guest_driver.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/topology/graph.hpp"

namespace upn {

struct OnlineAdaptiveSimOptions {
  OnlineRouterConfig router;           ///< protocol timers, seed, pool
  std::uint32_t warmup_rounds = 4096;  ///< table warmup budget before guest step 1
  std::uint32_t max_comm_steps = 1u << 14;  ///< per guest step; excess = stale reads
  std::uint64_t seed = 0x5eed;         ///< initial guest configurations
};

struct OnlineAdaptiveSimResult {
  std::uint32_t guest_steps = 0;    ///< T
  std::uint32_t host_steps = 0;     ///< T' = comm + compute (warmup reported apart)
  std::uint32_t comm_steps = 0;
  std::uint32_t compute_steps = 0;
  std::uint32_t load = 0;           ///< max guests per host
  std::uint32_t warmup_rounds = 0;  ///< protocol rounds spent converging up front
  bool warmup_stable = false;       ///< tables quiesced within the warmup budget
  std::uint64_t packets_routed = 0;
  std::uint64_t packets_lost = 0;   ///< deliveries churn defeated
  std::uint64_t stale_reads = 0;    ///< neighbor configs substituted from memory
  double slowdown = 0.0;            ///< s = T'/T
  double inefficiency = 0.0;        ///< k = s m / n
  bool configs_match = false;       ///< end state == direct execution
};

class OnlineAdaptiveSimulator {
 public:
  /// `embedding[u]` = host processor simulating guest u.  Graphs and the
  /// plan must outlive the simulator; the plan's churn unfolds on the host
  /// step clock that routing advances.
  OnlineAdaptiveSimulator(const Graph& guest, const Graph& host, std::vector<NodeId> embedding,
                          const FaultPlan& plan);

  /// Simulates T guest steps over the adaptive router.  Never throws on
  /// churn-induced loss; inspect stale_reads / configs_match for damage.
  [[nodiscard]] OnlineAdaptiveSimResult run(std::uint32_t guest_steps,
                                            const OnlineAdaptiveSimOptions& options = {});

  [[nodiscard]] const std::vector<NodeId>& embedding() const noexcept {
    return driver_.embedding();
  }

 private:
  const Graph* host_;
  const FaultPlan* plan_;
  GuestDriver driver_;
};

}  // namespace upn
