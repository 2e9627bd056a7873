// Experiment ANALYZE -- the static-analysis engine as its own workload.
//
// upn_analyze runs on every PR, so its wall time is part of the edit loop.
// The bench collects the real repo tree once (IO measured separately from
// analysis) and then times the full pass stack -- IR construction, layering,
// contract coverage, concurrency, determinism taint, hot-path, include
// hygiene, and dead functions -- at --jobs {1, 2, 7}, the same thread counts
// the determinism tests pin.  Scaling flattening out here means a pass
// serialized.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/harness.hpp"
#include "tools/analyze/engine.hpp"

namespace {

upn::analyze::Input collect_repo() {
  upn::analyze::TreeOptions options;
  options.root = UPN_REPO_ROOT;
  options.paths = {"src", "tools", "bench", "tests", "examples"};
  upn::analyze::Input input;
  std::string error;
  if (!upn::analyze::collect_tree(options, input, error)) {
    std::cerr << "bench_analyze: collect_tree failed: " << error << "\n";
    std::exit(1);
  }
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  upn::bench::Harness harness{"analyze", argc, argv};

  upn::analyze::Input input = collect_repo();

  harness.once("repo_summary", [&] {
    const upn::analyze::Report report = upn::analyze::analyze(input);
    std::cout << "=== ANALYZE: " << report.files << " files, "
              << report.findings.size() << " findings, "
              << report.baselined.size() << " baselined (full pass stack) ===\n\n";
  });

  harness.measure("collect_tree", [&] {
    const upn::analyze::Input fresh = collect_repo();
    upn::bench::keep(fresh.files.size());
  });

  for (const unsigned jobs : {1u, 2u, 7u}) {
    input.jobs = jobs;
    harness.measure("analyze/jobs=" + std::to_string(jobs), [&] {
      const upn::analyze::Report report = upn::analyze::analyze(input);
      upn::bench::keep(report.findings.size() + report.baselined.size());
    });
  }

  return harness.finish();
}
