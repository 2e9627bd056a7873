// Tests of the benchmark's own code:
//  * the stage-by-stage pipeline reports exactly what run_paper_pipeline()
//    reports, field for field, on the benchmark's configuration and on
//    small ones;
//  * the span aggregation computes inclusive and self time correctly.
// Exits 1 on the first mismatch.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/staged_pipeline.hpp"
#include "perfbench/trace_table.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

void check_pipeline_parity(const upn::PipelineConfig& config) {
  const std::string where = "pipeline d=" + std::to_string(config.butterfly_dimension) +
                            " hint=" + std::to_string(config.guest_size_hint) +
                            " T=" + std::to_string(config.guest_steps) +
                            " seed=" + std::to_string(config.seed) + ": ";
  const upn::PipelineReport whole = upn::run_paper_pipeline(config);
  upn::perfbench::PipelineInputs inputs{config};
  inputs.fill_lazy_tables();
  // Two staged runs on one set-up: the second must not drift either.
  for (int rep = 0; rep < 2; ++rep) {
    const upn::PipelineReport staged = upn::perfbench::run_pipeline_stages(inputs);
#define UPN_PARITY(field) expect(staged.field == whole.field, where + #field)
    UPN_PARITY(n);
    UPN_PARITY(m);
    UPN_PARITY(a);
    UPN_PARITY(expander_beta);
    UPN_PARITY(slowdown);
    UPN_PARITY(inefficiency);
    UPN_PARITY(load_bound);
    UPN_PARITY(paper_shape);
    UPN_PARITY(configs_verified);
    UPN_PARITY(protocol_valid);
    UPN_PARITY(protocol_error);
    UPN_PARITY(protocol_ops);
    UPN_PARITY(lemma312_holds);
    UPN_PARITY(z_size);
    UPN_PARITY(expansion_caps_hold);
    UPN_PARITY(fragment_log2_multiplicity);
    UPN_PARITY(fragment_sum_b);
    UPN_PARITY(ruled_out_by_counting);
#undef UPN_PARITY
    expect(staged.all_checks_pass(), where + "all_checks_pass");
  }
}

void check_span_aggregation() {
  using upn::obs::SpanEvent;
  // root [0, 100) holds a [10, 40) with child b [20, 30), and c [50, 90);
  // "other" [200, 210) lies outside every root.  Completion order.
  const std::vector<SpanEvent> events{
      {"b", 20, 10, 1}, {"a", 10, 30, 1}, {"c", 50, 40, 1},
      {"root", 0, 100, 1}, {"other", 200, 10, 1},
  };
  const upn::perfbench::SpanTable table = upn::perfbench::aggregate_spans(events, "root");
  auto near = [](double x, double y) { return x - y < 1e-15 && y - x < 1e-15; };
  expect(table.count("other") == 0, "span outside the root is excluded");
  expect(near(upn::perfbench::inclusive_s(table, "root"), 100e-9), "root inclusive");
  expect(near(upn::perfbench::self_s(table, "root"), 30e-9), "root self");
  expect(near(upn::perfbench::self_s(table, "a"), 20e-9), "a self");
  expect(near(upn::perfbench::self_s(table, "b"), 10e-9), "b self");
  expect(near(upn::perfbench::self_s(table, "c"), 40e-9), "c self");
  double self_sum = 0;
  for (const auto& [name, totals] : table) self_sum += totals.self_s;
  expect(near(self_sum, 100e-9), "self times add up to the root");
}

}  // namespace

int main() {
  check_span_aggregation();
  for (const std::uint64_t seed : {1u, 7919u}) {
    check_pipeline_parity({/*guest_size_hint=*/64, /*butterfly_dimension=*/2,
                           /*guest_steps=*/16, seed});
    check_pipeline_parity({576, 5, 16, seed});  // the paper_pipeline workload's sizes
  }
  if (g_failures == 0) std::printf("perfbench_test: OK\n");
  return g_failures == 0 ? 0 : 1;
}
