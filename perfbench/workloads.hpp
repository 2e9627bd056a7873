// The two benchmark workloads.  Each one is a complete verified
// universality run driven through the library's public API:
//
//   online_butterfly  -- UniversalSimulator, default GreedyPolicy, butterfly(8);
//                        its traced probes also run run_offline_universal
//                        (Benes schedule) on the same guest and embedding, and
//                        one FaultTolerantSimulator run on torus 32x32 under a
//                        plan of link faults, transient drops and a mid-run
//                        node epoch
//   paper_pipeline    -- run_paper_pipeline() stage by stage, butterfly(5)
//
// setup() pays everything a user pays before steady-state stepping,
// including the lazy fills; run() is one verified run of each instance on
// that set-up.  Every input derives from the seed given to setup().  Calls
// into each layer sit in "bench.*" spans, which cost nothing unless a trace
// session is active.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace upn::perfbench {

/// What one verified run did.  Everything but the times is deterministic
/// for a given seed.
struct RunOutcome {
  double stepping_s = 0.0;            ///< wall time of the simulator's stepping calls
  std::vector<double> instance_s;           ///< wall time of each instance's verified run
  std::vector<double> instance_stepping_s;  ///< its stepping_s, per instance
  std::uint32_t guest_steps = 0;      ///< T
  std::uint64_t host_steps = 0;       ///< T'
  double slowdown = 0.0;              ///< T'/T
  std::uint64_t protocol_ops = 0;     ///< 0 when the workload emits no protocol
  std::uint64_t retransmissions = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t replay_steps = 0;
  std::uint64_t reembedded_guests = 0;
  std::string failure;                ///< first failed check; empty when verified
};

class Instance;

/// A workload: several independently seeded copies of its inputs, run
/// one after another.  Averaging over instances keeps the seed-to-seed
/// spread of the work (random guests, embeddings and fault plans) small.
class Workload {
 public:
  explicit Workload(std::vector<std::unique_ptr<Instance>> instances);
  ~Workload();

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds every instance from `seed` (instance k draws from
  /// Rng::stream(seed, k)) and pays the lazy fills, replacing the previous
  /// set-up.
  void setup(std::uint64_t seed);

  /// One verified run of every instance, summed: T and T' add up, and
  /// slowdown is total T' over total T; the times are also kept per
  /// instance.  `failure` names the first failed check.  Exceptions
  /// propagate.
  [[nodiscard]] RunOutcome run();

  /// Digest of the final guest configurations of every instance, computed
  /// by direct execution -- equal to the simulators' final configurations,
  /// which every verified run checks.
  [[nodiscard]] std::uint64_t config_digest() const;

  /// Traced-only calls that isolate one layer, per instance: the
  /// direct-execution reference, plus the off-line and fault paths or a
  /// non-emitting run where the workload has them.  Each sits in a
  /// "bench.probe.*" span.
  void probe();

  /// Peak-RSS growth (MB) across the first lazy fill of the process and
  /// across the first verified run (one instance each); 0 until measured.
  [[nodiscard]] double first_fill_mb() const noexcept;
  [[nodiscard]] double first_run_mb() const noexcept;

  [[nodiscard]] std::size_t instances() const noexcept { return instances_.size(); }

 private:
  std::vector<std::unique_ptr<Instance>> instances_;
};

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace upn::perfbench
