// The upn_analyze engine: collects sources, builds the IR per file on the
// util/par ThreadPool, runs every pass, and merges findings in deterministic
// (file, line, rule, message) order -- the report is byte-identical at every
// --jobs value (tests pin {1, 2, 7}).
//
// The engine reports through the PR 4 obs registry (`analyze.*` counters:
// files, units, findings, findings_baselined) when UPN_OBS collection is on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {

/// Everything one analysis run consumes, fully in memory so tests can drive
/// the engine without touching disk.
struct Input {
  std::vector<SourceFile> files;  ///< repo-relative paths, forward slashes
  std::string layers_path;        ///< "" skips the layering + hotpath passes
  std::string layers_text;
  std::string baseline_text;      ///< contract baseline; "" means empty
  std::string hotpath_text;       ///< hotpath baseline; "" means empty
  std::string hotpath_path;       ///< reported path for stale-entry findings
  unsigned jobs = 0;              ///< 0 picks ThreadPool::default_threads()
};

struct Report {
  std::vector<Finding> findings;   ///< actionable, sorted
  std::vector<Finding> baselined;  ///< matched the contract baseline, sorted
  std::size_t files = 0;

  /// The text report: one line per finding plus a trailing summary line.
  [[nodiscard]] std::string render_text() const;
};

/// Runs the full analysis.
[[nodiscard]] Report analyze(const Input& input);

/// Disk-walking front half: loads .cpp/.hpp files under `paths` (relative to
/// `root` unless absolute), skipping paths that contain any `excludes`
/// substring, plus the layers and baseline files when present.  On IO
/// failure returns false and sets `error`.
struct TreeOptions {
  std::string root = ".";
  std::vector<std::string> paths;
  std::string layers_file;    ///< "" -> root/docs/ARCHITECTURE.layers when present
  std::string baseline_file;  ///< "" -> root/tools/analyze/contracts.baseline when present
  std::string hotpath_file;   ///< "" -> root/tools/analyze/hotpath.baseline when present
  std::vector<std::string> excludes = {"fixtures-bad", "fixtures-clean", "build"};
  unsigned jobs = 0;
};
[[nodiscard]] bool collect_tree(const TreeOptions& options, Input& input, std::string& error);

}  // namespace upn::analyze
