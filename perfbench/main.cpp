// upn_perfbench: one workload of the repository benchmark, in its own
// process so its peak RSS is its own.
//
//   upn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Phases: the set-up is built at least kMinSetups times and for at least
// kMinSetupSeconds (the first one cold), and its median is setup_s.  One
// fingerprint run with the metric registry on warms the caches and pins the
// deterministic fingerprint.  Then verified runs repeat for --seconds.
// run_s and the step rates come from each instance's fastest verified run,
// summed over instances: on a shared host, neighbouring load only ever adds
// time, and it comes and goes in phases of seconds to minutes, so the
// fastest run of each instance is the steadiest estimate of the program's
// own cost.  With --trace 1 the window is
// split: untraced runs first, then a traced set-up, traced runs and the
// layer probes, from which the per-layer metrics come.  Every run is
// verified; the last stdout line is one JSON object with correct /
// attempted / failed / metrics, and the exit code is 1 when any run failed.
#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/trace_table.hpp"
#include "perfbench/workloads.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

namespace upn::perfbench {
namespace {

constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;  // fast set-ups repeat until this much
constexpr int kMaxSetups = 400;
constexpr int kMinRuns = 5;        // per timed window, however long a run takes
constexpr int kMinTracedRuns = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 50.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: upn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
            << "workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

template <class T>
T parse_number(std::string_view text, std::string_view flag) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage("bad value for " + std::string{flag} + ": " + std::string{text});
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string{flag});
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(value, flag);
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(value, flag);
      if (!(args.seconds > 0.0 && args.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag " + std::string{flag});
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Runs and their verdicts.  A run fails on a failed check, on an exception,
/// or when its deterministic outcome differs from the fingerprint run's.
/// Each instance's fastest verified run after the fingerprint run is kept.
class Runner {
 public:
  explicit Runner(Workload& workload) : workload_(workload) {}

  /// One verified run; returns its wall time.
  double run_once() {
    RunOutcome outcome;
    const double start = now_s();
    {
      const obs::ScopedSpan span{"bench.run"};
      try {
        outcome = workload_.run();
      } catch (const std::exception& e) {
        outcome.failure = std::string{"exception: "} + e.what();
      }
    }
    const double wall = now_s() - start;
    ++attempted_;
    if (outcome.failure.empty() && have_reference_ && !same_result(outcome, reference_)) {
      outcome.failure = "deterministic outcome differs from the fingerprint run";
    }
    if (!outcome.failure.empty()) {
      ++failed_;
      if (first_failure_.empty()) first_failure_ = outcome.failure;
    } else if (have_reference_) {
      keep_fastest(best_instance_s_, outcome.instance_s);
      keep_fastest(best_stepping_s_, outcome.instance_stepping_s);
    }
    if (!have_reference_) {
      reference_ = outcome;
      have_reference_ = true;
    }
    return wall;
  }

  /// Verified runs until `seconds` have passed and at least `min_runs` ran.
  std::vector<double> run_window(double seconds, int min_runs) {
    std::vector<double> walls;
    const double deadline = now_s() + seconds;
    while (static_cast<int>(walls.size()) < min_runs || now_s() < deadline) {
      walls.push_back(run_once());
    }
    return walls;
  }

  [[nodiscard]] const RunOutcome& reference() const noexcept { return reference_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& first_failure() const noexcept { return first_failure_; }
  /// One run of every instance, each at its fastest: the sum over
  /// instances of their fastest verified run, and of its stepping time.
  [[nodiscard]] double fastest_run_s() const { return sum(best_instance_s_); }
  [[nodiscard]] double fastest_stepping_s() const { return sum(best_stepping_s_); }

 private:
  static void keep_fastest(std::vector<double>& best, const std::vector<double>& times) {
    if (best.empty()) best = times;
    for (std::size_t k = 0; k < best.size(); ++k) best[k] = std::min(best[k], times[k]);
  }

  static double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return total;
  }

  static bool same_result(const RunOutcome& a, const RunOutcome& b) {
    return a.guest_steps == b.guest_steps && a.host_steps == b.host_steps &&
           a.slowdown == b.slowdown && a.protocol_ops == b.protocol_ops &&
           a.retransmissions == b.retransmissions && a.reroutes == b.reroutes &&
           a.replay_steps == b.replay_steps && a.reembedded_guests == b.reembedded_guests;
  }

  Workload& workload_;
  RunOutcome reference_;
  bool have_reference_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
  std::vector<double> best_instance_s_;
  std::vector<double> best_stepping_s_;
};

std::uint64_t counter(const std::vector<obs::MetricRow>& rows, std::string_view name) {
  for (const obs::MetricRow& row : rows) {
    if (row.name == name) return row.type == 'g' ? static_cast<std::uint64_t>(row.max) : row.count;
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
       << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Everything the traced phase measured, reduced to the per-layer metrics.
struct TracedPhase {
  SpanTable setup;   ///< the one traced set-up
  SpanTable runs;    ///< totals over `run_count` traced runs
  SpanTable probes;  ///< the layer probes
  SpanTable offline;  ///< the off-line probes (online_butterfly)
  SpanTable fault;    ///< the fault probe (online_butterfly)
  std::vector<obs::MetricRow> counters;        ///< registry over the traced runs
  std::vector<obs::MetricRow> probe_counters;  ///< registry over the probes
  int run_count = 0;
  double traced_run_s = 0.0;    ///< fastest traced run wall time
  double untraced_run_s = 0.0;  ///< fastest untraced run wall time
};

std::vector<Metric> per_layer_metrics(const std::string& workload, const Workload& w,
                                      const RunOutcome& ref, const TracedPhase& p) {
  const double runs = p.run_count;
  // Only online_butterfly has a host large enough for its lazy distance
  // tables to show; the fault router rebuilds its tables inside every call.
  const bool oracle = workload == "online_butterfly";
  // Among the probes only the fault probe routes, so the probe registry
  // holds its routing counters alone.
  const bool fault_probe = !p.fault.empty();
  auto fault_count = [&](std::string_view name) {
    return fault_probe ? static_cast<double>(counter(p.probe_counters, name)) : 0.0;
  };
  const double fault_submitted = fault_count("routing.sync.packets_submitted");
  const double fault_lost = fault_count("routing.sync.packets_lost");
  auto per_run = [&](std::string_view name) { return inclusive_s(p.runs, name) / runs; };
  auto count_per_run = [&](std::string_view name) {
    return static_cast<double>(counter(p.counters, name)) / runs;
  };

  const double router_s = per_run("routing.sync.route");
  const double transfers = count_per_run("routing.sync.transfers");
  const double reference_s = inclusive_s(p.probes, "bench.probe.reference");
  // The off-line probe's step loop: the whole call minus the schedule it
  // rebuilds and the direct execution it checks against.
  const double offline_run_s = inclusive_s(p.probes, "bench.probe.offline_run");
  const double offline_replay_s =
      offline_run_s > 0 ? offline_run_s - inclusive_s(p.probes, "bench.probe.schedule_build") -
                              inclusive_s(p.probes, "bench.probe.offline_reference")
                        : 0.0;
  const double sim_run_s = per_run("bench.sim.run");
  const double validate_s = per_run("bench.pebble.validate");
  const double ops = static_cast<double>(ref.protocol_ops);
  // The set-up routes one cold guest step per lazy fill; take out what the
  // same steps cost warm.
  const double warm_step_router_s = router_s / ref.guest_steps;
  const auto fill = p.setup.find("bench.setup.lazy_fill");
  const double lazy_fills =
      fill == p.setup.end() ? 0.0 : static_cast<double>(fill->second.count);

  return {
      {"topology.build_s", inclusive_s(p.setup, "bench.topology.build"), "s"},
      {"core.embed_s", inclusive_s(p.setup, "bench.core.embed"), "s"},
      {"core.driver_self_s",
       (self_s(p.runs, "sim.universal.run") + self_s(p.runs, "sim.universal.route")) / runs, "s"},
      {"core.compute_s", per_run("sim.universal.compute"), "s"},
      {"core.validate_s", per_run("sim.universal.validate"), "s"},
      {"core.offline_replay_s", offline_replay_s, "s"},
      {"routing.oracle_cold_s",
       oracle ? inclusive_s(p.setup, "routing.sync.route") - lazy_fills * warm_step_router_s
              : 0.0,
       "s"},
      {"routing.oracle_mb", oracle ? w.first_fill_mb() : 0.0, "MB"},
      {"routing.route_s", router_s, "s"},
      {"routing.fault_route_s", inclusive_s(p.fault, "routing.sync.route"), "s"},
      {"routing.ns_per_transfer", transfers > 0 ? router_s * 1e9 / transfers : 0.0, "ns"},
      {"routing.transfers", transfers, "count"},
      {"routing.steps", count_per_run("routing.sync.steps"), "count"},
      {"routing.max_queue_depth",
       static_cast<double>(counter(p.counters, "routing.sync.max_queue_depth")), "count"},
      {"routing.retransmissions", fault_count("routing.sync.retransmissions"), "count"},
      {"routing.reroutes", fault_count("routing.sync.reroutes"), "count"},
      {"routing.packets_lost", fault_lost, "count"},
      {"routing.delivery_ratio",
       fault_submitted > 0 ? (fault_submitted - fault_lost) / fault_submitted : 0.0, "fraction"},
      {"routing.schedule_build_s", inclusive_s(p.probes, "bench.probe.schedule_build"), "s"},
      {"compute.reference_s", reference_s, "s"},
      {"compute.step_s", reference_s / ref.guest_steps, "s"},
      {"pebble.emit_s",
       workload == "paper_pipeline" ? sim_run_s - inclusive_s(p.probes, "bench.probe.noemit_run")
                                    : 0.0,
       "s"},
      {"pebble.ops", ops, "count"},
      {"pebble.protocol_mb", ops > 0 ? w.first_run_mb() : 0.0, "MB"},
      {"pebble.validate_s", validate_s, "s"},
      {"pebble.validate_ns_per_op", ops > 0 ? validate_s * 1e9 / ops : 0.0, "ns"},
      {"lowerbound.metrics_s", per_run("bench.lowerbound.metrics"), "s"},
      {"lowerbound.lemma312_s", per_run("bench.lowerbound.lemma312"), "s"},
      {"lowerbound.expansion_s", per_run("bench.lowerbound.expansion"), "s"},
      {"lowerbound.fragment_s", per_run("bench.lowerbound.fragment"), "s"},
      {"fault.plan_s", inclusive_s(p.fault, "bench.fault.plan"), "s"},
      {"fault.replay_s", inclusive_s(p.fault, "sim.fault.replay"), "s"},
      {"fault.replay_steps", fault_count("sim.fault.replay_steps"), "count"},
      {"fault.reembedded_guests", fault_count("sim.fault.reembedded_guests"), "count"},
      {"obs.trace_overhead", p.traced_run_s / p.untraced_run_s - 1.0, "fraction"},
      {"obs.unattributed_share", self_s(p.runs, "bench.run") / inclusive_s(p.runs, "bench.run"),
       "fraction"},
  };
}

/// The predictions the per-layer breakdown is meant to confirm or refute.
void print_predictions(const std::string& workload, const TracedPhase& p) {
  const double run_s = inclusive_s(p.runs, "bench.run");
  auto share = [&](std::string_view name) { return inclusive_s(p.runs, name) / run_s; };
  auto verdict = [](bool ok) { return ok ? "confirmed" : "NOT confirmed"; };
  char line[200];
  if (workload == "online_butterfly") {
    const double s = share("routing.sync.route");
    std::snprintf(line, sizeof line, "prediction: routing.route_s is most of run_s: %.1f%% -> %s\n",
                  100 * s, verdict(s > 0.5));
    std::cout << line;
    const double offline_route_s = inclusive_s(p.offline, "routing.sync.route");
    std::snprintf(line, sizeof line,
                  "prediction: routing.route_s is 0 in the off-line probe: %.6f s -> %s\n",
                  offline_route_s, verdict(offline_route_s == 0.0));
    std::cout << line;
    const double fault_s = inclusive_s(p.fault, "bench.probe.fault");
    const double fault_route_s = inclusive_s(p.fault, "routing.sync.route");
    const double fault_transfers =
        static_cast<double>(counter(p.probe_counters, "routing.sync.transfers"));
    std::snprintf(line, sizeof line,
                  "fault probe: route_with_faults %.1f%% of it at %.0f ns per transfer, "
                  "protocol validation %.1f%%\n",
                  100 * fault_route_s / fault_s, fault_route_s * 1e9 / fault_transfers,
                  100 * inclusive_s(p.fault, "bench.pebble.validate") / fault_s);
    std::cout << line;
  } else if (workload == "paper_pipeline") {
    std::string largest;
    double best = -1;
    for (const auto& [name, totals] : p.runs) {
      if (name == "bench.run" || name == "bench.sim.run") continue;  // wrappers, not layers
      if (totals.self_s > best) {
        best = totals.self_s;
        largest = name;
      }
    }
    const bool ok = largest == "bench.pebble.validate" || largest == "pebble.validator.replay";
    std::snprintf(line, sizeof line,
                  "prediction: pebble.validate_s is the largest share: largest self = %s "
                  "(%.1f%%), validation %.1f%% -> %s\n",
                  largest.c_str(), 100 * best / run_s, 100 * share("bench.pebble.validate"),
                  verdict(ok));
    std::cout << line;
  }
  std::snprintf(line, sizeof line,
                "self times account for run_s; remainder outside every layer call "
                "(self of bench.run): %.3f ms per run (%.2f%%)\n",
                self_s(p.runs, "bench.run") / p.run_count * 1e3,
                100 * self_s(p.runs, "bench.run") / run_s);
  std::cout << line;
}

int run_benchmark(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (workload == nullptr) usage("unknown workload " + args.workload);
  obs::set_enabled(false);
  Runner runner{*workload};

  std::vector<double> setups;
  double setup_total = 0.0;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (setup_total < kMinSetupSeconds && static_cast<int>(setups.size()) < kMaxSetups)) {
    const double start = now_s();
    {
      const obs::ScopedSpan span{"bench.setup"};
      workload->setup(args.seed);
    }
    setups.push_back(now_s() - start);
    setup_total += setups.back();
  }

  // Fingerprint run: registry on, untimed.
  obs::registry().reset();
  obs::set_enabled(true);
  runner.run_once();
  obs::set_enabled(false);
  const std::vector<obs::MetricRow> fp_rows = obs::registry().snapshot();
  const RunOutcome& ref = runner.reference();
  std::printf(
      "fingerprint %s seed=%" PRIu64 " instances=%zu: slowdown=%.9g T=%u T'=%" PRIu64
      " routing.sync.steps=%" PRIu64 " routing.sync.transfers=%" PRIu64 " protocol_ops=%" PRIu64
      " retransmissions=%" PRIu64 " reroutes=%" PRIu64 " replay_steps=%" PRIu64
      " reembedded=%" PRIu64 " config_digest=%016" PRIx64 "\n",
      args.workload.c_str(), args.seed, workload->instances(), ref.slowdown, ref.guest_steps,
      ref.host_steps,
      counter(fp_rows, "routing.sync.steps"), counter(fp_rows, "routing.sync.transfers"),
      ref.protocol_ops, ref.retransmissions, ref.reroutes, ref.replay_steps,
      ref.reembedded_guests, workload->config_digest());

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<double> walls = runner.run_window(window, kMinRuns);
  std::printf("window: %zu runs, run_s median %.6f fastest %.6f fastest-per-instance %.6f\n",
              walls.size(), median(walls), fastest(walls), runner.fastest_run_s());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"run_s", runner.fastest_run_s(), "s"},
        {"guest_steps_per_s", ref.guest_steps / runner.fastest_stepping_s(), "1/s"},
        {"host_steps_per_s", static_cast<double>(ref.host_steps) / runner.fastest_stepping_s(),
         "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"slowdown", ref.slowdown, "host_steps/step"},
        {"pass_ratio",
         static_cast<double>(runner.attempted() - runner.failed()) /
             static_cast<double>(runner.attempted()),
         "fraction"},
    };
  } else {
    TracedPhase phase;
    phase.untraced_run_s = fastest(walls);
    obs::start_trace("");
    obs::set_enabled(true);
    {
      const obs::ScopedSpan span{"bench.setup"};
      workload->setup(args.seed);
    }
    obs::registry().reset();
    const std::vector<double> traced = runner.run_window(window, kMinTracedRuns);
    phase.counters = obs::registry().snapshot();
    obs::registry().reset();
    workload->probe();
    phase.probe_counters = obs::registry().snapshot();
    const std::vector<obs::SpanEvent> events = obs::trace_events();
    obs::stop_trace();
    obs::set_enabled(false);

    phase.setup = aggregate_spans(events, "bench.setup");
    phase.runs = aggregate_spans(events, "bench.run");
    phase.probes = aggregate_spans(events, "bench.probe.");
    phase.offline = aggregate_spans(events, "bench.probe.offline");
    phase.fault = aggregate_spans(events, "bench.probe.fault");
    phase.run_count = static_cast<int>(traced.size());
    phase.traced_run_s = fastest(traced);
    const double run_s = inclusive_s(phase.runs, "bench.run") / phase.run_count;
    print_span_table(std::cout, phase.setup, "traced set-up (one)", 1.0,
                     inclusive_s(phase.setup, "bench.setup"));
    print_span_table(std::cout, phase.runs, "traced verified run (per run)", phase.run_count,
                     run_s);
    print_span_table(std::cout, phase.probes, "layer probes (outside the runs)", 1.0, 0.0);
    print_predictions(args.workload, phase);
    metrics = per_layer_metrics(args.workload, *workload, ref, phase);
  }

  const bool correct = runner.failed() == 0;
  if (!correct) std::cerr << "error: verification failed: " << runner.first_failure() << "\n";
  print_result(correct, runner.attempted(), runner.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace upn::perfbench

int main(int argc, char** argv) {
  const upn::perfbench::Args args = upn::perfbench::parse_args(argc, argv);
  try {
    return upn::perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
