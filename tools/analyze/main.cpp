// upn_analyze CLI: whole-program static analysis with layering DAG
// enforcement, contract-coverage audit (baseline-ratcheted), flow-sensitive
// token rules, concurrency-safety and determinism-taint passes, the
// hot-path performance pass (baseline-ratcheted), include hygiene, dead
// free functions, and SARIF 2.1.0 output for CI annotation.
//
// Usage:
//   upn_analyze [options] PATH...
//     --root DIR        repo root; reported paths are relative to it (default .)
//     --layers FILE     module DAG (default ROOT/docs/ARCHITECTURE.layers if present)
//     --baseline FILE   contract baseline (default ROOT/tools/analyze/contracts.baseline)
//     --hotpath-baseline FILE
//                       hot-path baseline (default ROOT/tools/analyze/hotpath.baseline)
//     --sarif FILE      also write a SARIF 2.1.0 report to FILE
//     --jobs N          analysis thread count, 1..4096 (default: UPN_THREADS, else 1)
//     --exclude SUBSTR  skip paths containing SUBSTR (repeatable; defaults
//                       additionally skip fixtures-bad/, fixtures-clean/, build*/)
//     --write-baseline  rewrite both baselines at the current debt level
//
// Exit codes: 0 clean, 1 findings, 2 usage / IO error.  The text report and
// the SARIF document are byte-identical at every --jobs value.
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tools/analyze/engine.hpp"
#include "tools/analyze/sarif.hpp"

namespace {

int usage() {
  std::cerr << "usage: upn_analyze [--root DIR] [--layers FILE] [--baseline FILE]\n"
               "                   [--hotpath-baseline FILE] [--sarif FILE] [--jobs N]\n"
               "                   [--exclude SUBSTR]... [--write-baseline] PATH...\n";
  return 2;
}

/// Parses a --jobs value: the whole token must be a decimal in 1..4096, the
/// bound ThreadPool::default_threads() applies to UPN_THREADS.
bool parse_jobs(const char* text, unsigned& jobs) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, jobs);
  return ec == std::errc{} && ptr == end && jobs >= 1 && jobs <= 4096;
}

}  // namespace

int main(int argc, char** argv) {
  upn::analyze::TreeOptions options;
  std::string sarif_path;
  bool write_baseline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help" || arg == "-h") return usage();
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.root = v;
    } else if (arg == "--layers") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.layers_file = v;
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.baseline_file = v;
    } else if (arg == "--hotpath-baseline") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.hotpath_file = v;
    } else if (arg == "--sarif") {
      const char* v = value();
      if (v == nullptr) return usage();
      sarif_path = v;
    } else if (arg == "--jobs") {
      const char* v = value();
      if (v == nullptr || !parse_jobs(v, options.jobs)) return usage();
    } else if (arg == "--exclude") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.excludes.emplace_back(v);
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.paths.empty()) return usage();

  upn::analyze::Input input;
  std::string error;
  if (!upn::analyze::collect_tree(options, input, error)) {
    std::cerr << "upn_analyze: " << error << "\n";
    return 2;
  }

  upn::analyze::Report report = upn::analyze::analyze(input);

  if (write_baseline) {
    // The new frozen sets are everything currently flagged, whether or not
    // the old baselines covered it.
    std::vector<upn::analyze::Finding> uncontracted;
    std::vector<upn::analyze::Finding> hotpath_debt;
    for (const std::vector<upn::analyze::Finding>* bucket :
         {&report.baselined, &report.findings}) {
      for (const upn::analyze::Finding& f : *bucket) {
        if (f.rule == "contract-coverage") uncontracted.push_back(f);
        if (f.rule.compare(0, 8, "hotpath-") == 0) hotpath_debt.push_back(f);
      }
    }
    std::sort(uncontracted.begin(), uncontracted.end(), upn::analyze::finding_less);
    std::sort(hotpath_debt.begin(), hotpath_debt.end(), upn::analyze::finding_less);
    const std::string contracts_path =
        options.baseline_file.empty() ? options.root + "/tools/analyze/contracts.baseline"
                                      : options.baseline_file;
    const std::string hotpath_path =
        options.hotpath_file.empty() ? options.root + "/tools/analyze/hotpath.baseline"
                                     : options.hotpath_file;
    std::ofstream contracts_out{contracts_path, std::ios::binary};
    std::ofstream hotpath_out{hotpath_path, std::ios::binary};
    if (!contracts_out || !hotpath_out) {
      std::cerr << "upn_analyze: cannot write baseline " << contracts_path << " / "
                << hotpath_path << "\n";
      return 2;
    }
    contracts_out << upn::analyze::render_baseline(uncontracted);
    hotpath_out << upn::analyze::render_hotpath_baseline(hotpath_debt);
    std::cerr << "upn_analyze: baselines rewritten: " << contracts_path << ", "
              << hotpath_path << "\n";
  }

  if (!sarif_path.empty()) {
    std::ofstream out{sarif_path, std::ios::binary};
    if (!out) {
      std::cerr << "upn_analyze: cannot write SARIF report " << sarif_path << "\n";
      return 2;
    }
    out << upn::analyze::write_sarif(report.findings);
  }

  std::cout << report.render_text();
  return report.findings.empty() ? 0 : 1;
}
