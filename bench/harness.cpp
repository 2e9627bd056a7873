#include "bench/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/obs/obs.hpp"
#include "src/util/cli.hpp"

namespace upn::bench {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Quantile of a sample set with linear interpolation between order
/// statistics (deterministic; q in [0, 1]).
double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

/// Deterministic registry state, used for per-section delta attribution.
std::vector<obs::MetricRow> deterministic_snapshot() {
  return obs::registry().snapshot(obs::MetricKind::kDeterministic);
}

}  // namespace

double BenchResult::median_ms() const { return quantile(times_ms, 0.5); }
double BenchResult::p10_ms() const { return quantile(times_ms, 0.1); }
double BenchResult::p90_ms() const { return quantile(times_ms, 0.9); }
double BenchResult::min_ms() const { return quantile(times_ms, 0.0); }
double BenchResult::max_ms() const { return quantile(times_ms, 1.0); }

double BenchResult::mean_ms() const {
  if (times_ms.empty()) return 0.0;
  double sum = 0;
  for (const double t : times_ms) sum += t;
  return sum / static_cast<double>(times_ms.size());
}

Harness::Harness(std::string name, int argc, const char* const* argv)
    : name_(std::move(name)), json_path_("BENCH_" + name_ + ".json") {
  try {
    const Cli cli{argc, argv};
    threads_ = cli.get_u32("threads", ThreadPool::default_threads());
    if (threads_ < 1) threads_ = 1;
    reps_ = static_cast<std::size_t>(cli.get_u64("reps", 5));
    if (reps_ < 1) reps_ = 1;
    warmup_ = static_cast<std::size_t>(cli.get_u64("warmup", 1));
    json_path_ = cli.get("json", json_path_);
    trace_path_ = cli.get("trace", "");
    write_json_ = !cli.has("no-json");
    const std::vector<std::string> unused = cli.unused();
    if (!unused.empty()) {
      std::cerr << "bench_" << name_ << ": unknown flag --" << unused.front()
                << "\nusage: bench_" << name_
                << " [--threads=N] [--reps=R] [--warmup=W] [--json=PATH] [--no-json]"
                   " [--trace=PATH]\n";
      std::exit(2);
    }
  } catch (const std::exception& error) {
    std::cerr << "bench_" << name_ << ": " << error.what() << "\n";
    std::exit(2);
  }
  // Benches always collect metrics: the snapshot is part of the BENCH json
  // (schema v2) and per-phase deltas are what EXPERIMENTS.md decomposes.
  obs::set_enabled(true);
  if (!trace_path_.empty()) obs::start_trace(trace_path_);
}

Harness::~Harness() = default;

unsigned Harness::threads() const noexcept { return threads_; }

ThreadPool& Harness::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

void Harness::once(const std::string& label, const std::function<void()>& fn) {
  BenchResult result;
  result.name = label;
  const std::vector<obs::MetricRow> before = deterministic_snapshot();
  const auto start = Clock::now();
  fn();
  result.times_ms.push_back(elapsed_ms(start, Clock::now()));
  result.metrics = obs::delta_rows(before, deterministic_snapshot());
  results_.push_back(std::move(result));
}

void Harness::measure(const std::string& label, const std::function<void()>& fn) {
  BenchResult result;
  result.name = label;
  const std::vector<obs::MetricRow> before = deterministic_snapshot();
  for (std::size_t w = 0; w < warmup_; ++w) fn();
  for (std::size_t r = 0; r < reps_; ++r) {
    const auto start = Clock::now();
    fn();
    result.times_ms.push_back(elapsed_ms(start, Clock::now()));
  }
  // Attributed activity covers warmup + reps; deterministic for fixed
  // --reps/--warmup regardless of --threads.
  result.metrics = obs::delta_rows(before, deterministic_snapshot());
  results_.push_back(std::move(result));
}

int Harness::finish() {
  std::cout << "--- bench_" << name_ << ": " << results_.size()
            << " measured sections, threads = " << threads_ << ", reps = " << reps_
            << " ---\n";
  for (const BenchResult& result : results_) {
    std::cout << "  " << result.name << ": median " << result.median_ms()
              << " ms (p10 " << result.p10_ms() << ", p90 " << result.p90_ms()
              << ", reps " << result.times_ms.size() << ")\n";
  }
  if (!trace_path_.empty()) {
    if (obs::write_trace()) {
      std::cout << "wrote " << trace_path_ << "\n";
    } else {
      std::cerr << "bench_" << name_ << ": cannot write trace " << trace_path_ << "\n";
      return 1;
    }
  }
  if (!write_json_) return 0;

  std::string json;
  json += "{\n";
  json += "  \"schema_version\": 2,\n";
  json += "  \"benchmark\": \"";
  append_json_escaped(json, name_);
  json += "\",\n";
  json += "  \"threads\": " + std::to_string(threads_) + ",\n";
  json += "  \"warmup\": " + std::to_string(warmup_) + ",\n";
  json += "  \"repetitions\": " + std::to_string(reps_) + ",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const BenchResult& result = results_[i];
    json += "    {\"name\": \"";
    append_json_escaped(json, result.name);
    json += "\", \"reps\": " + std::to_string(result.times_ms.size());
    json += ", \"median_ms\": " + json_number(result.median_ms());
    json += ", \"p10_ms\": " + json_number(result.p10_ms());
    json += ", \"p90_ms\": " + json_number(result.p90_ms());
    json += ", \"mean_ms\": " + json_number(result.mean_ms());
    json += ", \"min_ms\": " + json_number(result.min_ms());
    json += ", \"max_ms\": " + json_number(result.max_ms());
    json += ",\n     \"metrics\": ";
    {
      std::ostringstream metric_json;
      obs::write_snapshot_json(metric_json, result.metrics, 5);
      json += metric_json.str();
    }
    json += i + 1 < results_.size() ? "},\n" : "}\n";
  }
  json += "  ],\n";
  // Full end-of-run deterministic registry state: byte-identical across
  // --threads values for a fixed flag set.
  json += "  \"metrics_snapshot\": ";
  {
    std::ostringstream snapshot_json;
    obs::write_snapshot_json(
        snapshot_json, obs::registry().snapshot(obs::MetricKind::kDeterministic), 2);
    json += snapshot_json.str();
  }
  json += "\n}\n";

  std::ofstream file{json_path_};
  if (!file) {
    std::cerr << "bench_" << name_ << ": cannot write " << json_path_ << "\n";
    return 1;
  }
  file << json;
  std::cout << "wrote " << json_path_ << "\n";
  return 0;
}

}  // namespace upn::bench
