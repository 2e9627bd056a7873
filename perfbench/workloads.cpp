#include "perfbench/workloads.hpp"

#include <sys/resource.h>

#include <stdexcept>
#include <utility>

#include "perfbench/staged_pipeline.hpp"
#include "src/compute/machine.hpp"
#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/offline_universal.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/obs/span.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"
#include "src/util/rng.hpp"

namespace upn::perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double now_s() { return static_cast<double>(obs::now_ns()) * 1e-9; }

namespace {

// ---- Sizes -----------------------------------------------------------------
// One verified run of all instances takes 0.5-3 s on a 4-core x86 box, so a
// 50-second window holds 15-100 runs.  Several instances per run average
// out the seed-to-seed spread of the work.

constexpr std::uint32_t kButterflyDimension = 8;  // m = 9 * 2^8 = 2304
constexpr std::uint32_t kButterflyGuestSize = 4096;
constexpr std::size_t kOnlineInstances = 4;
constexpr std::uint32_t kOnlineSteps = 2;
// Guest steps of the off-line probe: enough that its step loop stands out
// from the Benes schedule that every run_offline_universal call rebuilds.
constexpr std::uint32_t kOfflineProbeSteps = 16;

constexpr std::size_t kPipelineInstances = 4;
constexpr std::uint32_t kPipelineDimension = 5;  // m = 192
constexpr std::uint32_t kPipelineGuestHint = 576;  // n = 576
constexpr std::uint32_t kPipelineSteps = 16;

constexpr std::uint32_t kTorusSide = 32;  // m = 1024
constexpr std::uint32_t kTorusGuestSize = 1024;
constexpr std::uint32_t kTorusGuestDegree = 4;
constexpr std::uint32_t kFaultedSteps = 2;
constexpr double kLinkFaultRate = 0.05;   // permanent, at host step 0
constexpr double kDropRate = 0.02;        // transient, whole run
constexpr double kNodeFaultRate = 0.01;   // permanent, mid-run epoch
constexpr std::uint32_t kNodeFaultStep = 150;  // inside guest step 1, revealed before step 2
constexpr int kPlanAttempts = 16;

std::uint64_t reference_digest(const Graph& guest, std::uint64_t seed, std::uint32_t steps) {
  SyncMachine machine{guest, seed};
  machine.run(steps);
  return machine.digest();
}

void probe_reference(const Graph& guest, std::uint64_t seed, std::uint32_t steps) {
  const obs::ScopedSpan span{"bench.probe.reference"};
  static_cast<void>(run_reference(guest, seed, steps));
}

}  // namespace

/// One seeded copy of a workload's inputs; the Workload members of the same
/// name sum over instances.
class Instance {
 public:
  virtual ~Instance() = default;
  virtual void setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual RunOutcome run() = 0;
  [[nodiscard]] virtual std::uint64_t config_digest() const = 0;
  virtual void probe() = 0;

  [[nodiscard]] double first_fill_mb() const noexcept { return first_fill_mb_; }
  [[nodiscard]] double first_run_mb() const noexcept { return first_run_mb_; }

 protected:
  /// Runs `fn`, recording its peak-RSS growth into `slot` the first time.
  template <class Fn>
  void measure_first(double& slot, bool& measured, Fn&& fn) {
    const double before = peak_rss_mb();
    fn();
    if (!measured) {
      slot = peak_rss_mb() - before;
      measured = true;
    }
  }

  double first_fill_mb_ = 0.0;
  double first_run_mb_ = 0.0;
  bool fill_measured_ = false;
  bool run_measured_ = false;
};

namespace {

// ---- fault probe -------------------------------------------------------------
// FaultTolerantSimulator on torus 32x32 with n = 1024 under link faults,
// transient drops and a mid-run node-fault epoch, its protocol validated.
// Only the traced probes of online_butterfly run it: as a timed workload it
// moved with neighbouring load more than its bound allows.

class FaultedTorus final : public Instance {
 public:
  void setup(std::uint64_t seed) override {
    state_.reset();
    auto state = std::make_unique<State>();
    Rng rng{seed};
    {
      const obs::ScopedSpan span{"bench.topology.build"};
      state->host = make_torus(kTorusSide, kTorusSide);
      state->guest = make_random_regular(kTorusGuestSize, kTorusGuestDegree, rng);
    }
    {
      const obs::ScopedSpan span{"bench.fault.plan"};
      state->plan = make_plan(state->host, rng);
    }
    {
      const obs::ScopedSpan span{"bench.core.embed"};
      state->embedding = make_random_embedding(kTorusGuestSize, state->host.num_nodes(), rng);
    }
    state->options.seed = rng();
    state->options.emit_protocol = true;
    state_ = std::move(state);
  }

  RunOutcome run() override {
    RunOutcome out;
    FaultSimResult result;
    measure_first(first_run_mb_, run_measured_, [&] {
      const obs::ScopedSpan span{"bench.sim.run"};
      const double start = now_s();
      // Healing rewrites the simulator's embedding, so every run starts
      // from a fresh simulator (its constructor only copies the embedding).
      FaultTolerantSimulator sim{state_->guest, state_->host, state_->plan, state_->embedding};
      result = sim.run(kFaultedSteps, state_->options);
      out.stepping_s = now_s() - start;
    });
    out.guest_steps = result.guest_steps;
    out.host_steps = result.host_steps;
    out.slowdown = result.slowdown;
    out.retransmissions = result.retransmissions;
    out.reroutes = result.reroutes;
    out.replay_steps = result.replay_steps;
    out.reembedded_guests = result.reembedded_guests;
    if (!result.completed) {
      out.failure = "survivors could not carry the guest";
      return out;
    }
    if (!result.configs_match) {
      out.failure = "configurations differ from the direct execution";
      return out;
    }
    out.protocol_ops = result.protocol->num_ops();
    const obs::ScopedSpan span{"bench.pebble.validate"};
    const ValidationResult validation =
        validate_protocol(*result.protocol, state_->guest, state_->host);
    if (!validation.ok) out.failure = "protocol rejected: " + validation.error;
    return out;
  }

  std::uint64_t config_digest() const override {
    return reference_digest(state_->guest, state_->options.seed, kFaultedSteps);
  }

  void probe() override { probe_reference(state_->guest, state_->options.seed, kFaultedSteps); }

 private:
  struct State {
    Graph host;
    Graph guest;
    FaultPlan plan;
    std::vector<NodeId> embedding;
    FaultSimOptions options;
  };

  /// Link faults at step 0, transient drops, and a node-fault epoch
  /// mid-run.  Plans whose surviving host is disconnected are redrawn: such
  /// a host cannot carry the guest, and the workload measures healing, not
  /// that documented give-up.
  static FaultPlan make_plan(const Graph& host, Rng& rng) {
    for (int attempt = 0; attempt < kPlanAttempts; ++attempt) {
      const std::uint64_t link_seed = rng();
      const std::uint64_t drop_seed = rng();
      const std::uint64_t node_seed = rng();
      FaultPlan plan = merge_plans(
          merge_plans(make_uniform_link_faults(host, kLinkFaultRate, link_seed),
                      make_uniform_drops(host, kDropRate, drop_seed)),
          make_uniform_node_faults(host, kNodeFaultRate, node_seed, kNodeFaultStep));
      if (assess_degradation(host, plan).connected) return plan;
    }
    throw std::runtime_error{"fault probe: no fault plan kept the survivors connected"};
  }

  std::unique_ptr<State> state_;
};

// ---- online_butterfly --------------------------------------------------------

class OnlineButterfly final : public Instance {
 public:
  void setup(std::uint64_t seed) override {
    state_.reset();  // the simulator points into the old graphs
    auto state = std::make_unique<State>();
    Rng rng{seed};
    {
      const obs::ScopedSpan span{"bench.topology.build"};
      state->host = make_butterfly(kButterflyDimension);
      state->guest = make_random_regular(kButterflyGuestSize, kGuestDegree, rng);
    }
    {
      const obs::ScopedSpan span{"bench.core.embed"};
      state->embedding = make_random_embedding(kButterflyGuestSize, state->host.num_nodes(), rng);
      state->sim = std::make_unique<UniversalSimulator>(state->guest, state->host,
                                                        state->embedding);
    }
    state->options.seed = rng();
    state->fault_probe_seed = rng();
    measure_first(first_fill_mb_, fill_measured_, [&] {
      const obs::ScopedSpan span{"bench.setup.lazy_fill"};
      static_cast<void>(state->sim->run(1, state->options));
    });
    state_ = std::move(state);
  }

  RunOutcome run() override {
    RunOutcome out;
    UniversalSimResult result;
    measure_first(first_run_mb_, run_measured_, [&] {
      const obs::ScopedSpan span{"bench.sim.run"};
      const double start = now_s();
      result = state_->sim->run(kOnlineSteps, state_->options);
      out.stepping_s = now_s() - start;
    });
    out.guest_steps = result.guest_steps;
    out.host_steps = result.host_steps;
    out.slowdown = result.slowdown;
    if (!result.configs_match) {
      out.failure = "configurations differ from the direct execution";
    } else if (result.guest_steps != kOnlineSteps ||
               result.host_steps != result.comm_steps + result.compute_steps) {
      out.failure = "step accounting is inconsistent";
    }
    return out;
  }

  std::uint64_t config_digest() const override {
    return reference_digest(state_->guest, state_->options.seed, kOnlineSteps);
  }

  /// The direct-execution reference, then the two other routing paths.
  /// The off-line path runs on the same guest and embedding:
  /// run_offline_universal never calls SyncRouter or DistanceOracle, so its
  /// probes isolate the Benes schedule and the guest-step loop (payload
  /// gather + next_config).  The fault path is one verified faulted-torus
  /// run, set-up included, from a seed of this instance's own.
  void probe() override {
    const Graph& guest = state_->guest;
    const std::vector<NodeId>& embedding = state_->embedding;
    const std::uint64_t seed = state_->options.seed;
    probe_reference(guest, seed, kOnlineSteps);
    {
      // The relation run_offline_universal schedules: one demand per
      // directed guest edge whose endpoints sit on different hosts.
      HhProblem relation{state_->host.num_nodes()};
      for (NodeId u = 0; u < guest.num_nodes(); ++u) {
        for (const NodeId v : guest.neighbors(u)) {
          if (embedding[u] != embedding[v]) relation.add(embedding[u], embedding[v]);
        }
      }
      const obs::ScopedSpan span{"bench.probe.schedule_build"};
      const OfflineSchedule schedule = route_relation_offline(kButterflyDimension, relation);
      if (!validate_schedule(schedule, relation)) {
        throw std::logic_error{"offline schedule failed validation"};
      }
    }
    {
      const obs::ScopedSpan span{"bench.probe.offline_run"};
      const OfflineUniversalResult result =
          run_offline_universal(guest, kButterflyDimension, embedding, kOfflineProbeSteps, seed);
      if (!result.configs_match) {
        throw std::logic_error{"offline run: configurations differ from the direct execution"};
      }
    }
    {
      const obs::ScopedSpan span{"bench.probe.offline_reference"};
      static_cast<void>(run_reference(guest, seed, kOfflineProbeSteps));
    }
    const obs::ScopedSpan span{"bench.probe.fault"};
    FaultedTorus fault;
    fault.setup(state_->fault_probe_seed);
    const RunOutcome outcome = fault.run();
    if (!outcome.failure.empty()) throw std::logic_error{"fault probe: " + outcome.failure};
  }

 private:
  struct State {
    Graph host;
    Graph guest;
    std::vector<NodeId> embedding;
    std::unique_ptr<UniversalSimulator> sim;
    UniversalSimOptions options;
    std::uint64_t fault_probe_seed = 0;
  };
  std::unique_ptr<State> state_;
};

// ---- paper_pipeline ----------------------------------------------------------

class PaperPipeline final : public Instance {
 public:
  void setup(std::uint64_t seed) override {
    inputs_.reset();
    PipelineConfig config;
    config.butterfly_dimension = kPipelineDimension;
    config.guest_size_hint = kPipelineGuestHint;
    config.guest_steps = kPipelineSteps;
    config.seed = seed;
    auto inputs = std::make_unique<PipelineInputs>(config);
    measure_first(first_fill_mb_, fill_measured_, [&] { inputs->fill_lazy_tables(); });
    inputs_ = std::move(inputs);
  }

  RunOutcome run() override {
    RunOutcome out;
    PipelineRunStats stats;
    PipelineReport report;
    measure_first(first_run_mb_, run_measured_,
                  [&] { report = run_pipeline_stages(*inputs_, &stats); });
    out.stepping_s = stats.sim_run_s;
    out.guest_steps = kPipelineSteps;
    out.host_steps = stats.host_steps;
    out.slowdown = report.slowdown;
    out.protocol_ops = report.protocol_ops;
    if (!report.configs_verified) {
      out.failure = "configurations differ from the direct execution";
    } else if (!report.protocol_valid) {
      out.failure = "protocol rejected: " + report.protocol_error;
    } else if (!report.all_checks_pass()) {
      out.failure = "a lower-bound check failed";
    }
    return out;
  }

  std::uint64_t config_digest() const override {
    return reference_digest(inputs_->guest(), inputs_->options().seed, kPipelineSteps);
  }

  void probe() override {
    probe_reference(inputs_->guest(), inputs_->options().seed, kPipelineSteps);
    const obs::ScopedSpan span{"bench.probe.noemit_run"};
    UniversalSimOptions options = inputs_->options();
    options.emit_protocol = false;
    static_cast<void>(inputs_->simulator().run(kPipelineSteps, options));
  }

 private:
  std::unique_ptr<PipelineInputs> inputs_;
};

}  // namespace

Workload::Workload(std::vector<std::unique_ptr<Instance>> instances)
    : instances_(std::move(instances)) {}

Workload::~Workload() = default;

void Workload::setup(std::uint64_t seed) {
  for (std::size_t k = 0; k < instances_.size(); ++k) {
    instances_[k]->setup(Rng::stream(seed, k)());
  }
}

RunOutcome Workload::run() {
  RunOutcome total;
  for (std::size_t k = 0; k < instances_.size(); ++k) {
    const double start = now_s();
    const RunOutcome one = instances_[k]->run();
    total.instance_s.push_back(now_s() - start);
    total.instance_stepping_s.push_back(one.stepping_s);
    total.stepping_s += one.stepping_s;
    total.guest_steps += one.guest_steps;
    total.host_steps += one.host_steps;
    total.protocol_ops += one.protocol_ops;
    total.retransmissions += one.retransmissions;
    total.reroutes += one.reroutes;
    total.replay_steps += one.replay_steps;
    total.reembedded_guests += one.reembedded_guests;
    if (total.failure.empty() && !one.failure.empty()) {
      total.failure = "instance " + std::to_string(k) + ": " + one.failure;
    }
  }
  total.slowdown = total.guest_steps == 0 ? 0.0
                                          : static_cast<double>(total.host_steps) /
                                                static_cast<double>(total.guest_steps);
  return total;
}

std::uint64_t Workload::config_digest() const {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over the instance digests
  for (const auto& instance : instances_) {
    digest = (digest ^ instance->config_digest()) * 0x100000001b3ULL;
  }
  return digest;
}

void Workload::probe() {
  for (const auto& instance : instances_) instance->probe();
}

double Workload::first_fill_mb() const noexcept { return instances_.front()->first_fill_mb(); }
double Workload::first_run_mb() const noexcept { return instances_.front()->first_run_mb(); }

namespace {

template <class T>
std::unique_ptr<Workload> make_instances(std::size_t count) {
  std::vector<std::unique_ptr<Instance>> instances;
  for (std::size_t k = 0; k < count; ++k) instances.push_back(std::make_unique<T>());
  return std::make_unique<Workload>(std::move(instances));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"online_butterfly", "paper_pipeline"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "online_butterfly") return make_instances<OnlineButterfly>(kOnlineInstances);
  if (name == "paper_pipeline") return make_instances<PaperPipeline>(kPipelineInstances);
  return nullptr;
}

}  // namespace upn::perfbench
