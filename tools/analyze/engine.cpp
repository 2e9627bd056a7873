#include "tools/analyze/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/par.hpp"

namespace fs = std::filesystem;

namespace upn::analyze {

namespace {

bool is_source_path(const std::string& path) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::char_traits<char>::length(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends(".cpp") || ends(".hpp");
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

std::string Report::render_text() const {
  std::string out;
  for (const Finding& f : findings) out += f.format() + "\n";
  out += "upn_analyze: " + std::to_string(findings.size()) + " finding" +
         (findings.size() == 1 ? "" : "s") + " (" + std::to_string(baselined.size()) +
         " baselined) over " + std::to_string(files) + " files\n";
  return out;
}

Report analyze(const Input& input) {
  ThreadPool pool{input.jobs};

  // Per-file work fans out on the pool; results are collected BY INDEX so
  // the merge below is independent of scheduling (src/util/par contract).
  const std::vector<Unit> units =
      pool.parallel_map<Unit>(input.files.size(), [&](std::size_t i) {
        return build_unit(input.files[i].path, input.files[i].content);
      });
  // The per-unit pass trio (single-file rules, concurrency safety,
  // determinism taint) shares one fan-out; each worker owns exactly one unit.
  const std::vector<std::vector<Finding>> per_unit =
      pool.parallel_map<std::vector<Finding>>(units.size(), [&](std::size_t i) {
        std::vector<Finding> findings = run_single_file_rules(units[i]);
        const std::vector<Finding> conc = run_concurrency_pass(units[i]);
        const std::vector<Finding> taint = run_determinism_taint_pass(units[i]);
        findings.insert(findings.end(), conc.begin(), conc.end());
        findings.insert(findings.end(), taint.begin(), taint.end());
        return findings;
      });

  std::vector<Finding> all;
  for (const std::vector<Finding>& findings : per_unit) {
    all.insert(all.end(), findings.begin(), findings.end());
  }

  if (!input.layers_path.empty()) {
    const LayerSpec spec = parse_layers(input.layers_path, input.layers_text);
    const std::vector<Finding> layering =
        run_layering_pass(units, spec, input.layers_path);
    const std::vector<Finding> hot = run_hotpath_pass(units, spec);
    all.insert(all.end(), layering.begin(), layering.end());
    all.insert(all.end(), hot.begin(), hot.end());
  }

  for (const std::vector<Finding>& findings :
       {run_contract_coverage_pass(units), run_include_hygiene_pass(units),
        run_dead_function_pass(units)}) {
    all.insert(all.end(), findings.begin(), findings.end());
  }

  const std::set<std::string> baseline = parse_baseline(input.baseline_text);
  const std::set<std::string> hotpath_baseline = parse_baseline(input.hotpath_text);
  std::set<std::string> hotpath_seen;
  Report report;
  report.files = input.files.size();
  for (Finding& f : all) {
    const bool is_hotpath = f.rule.compare(0, 8, "hotpath-") == 0;
    if (is_hotpath) hotpath_seen.insert(hotpath_key(f));
    if (f.rule == "contract-coverage" && baseline.count(baseline_key(f)) != 0) {
      report.baselined.push_back(std::move(f));
    } else if (is_hotpath && hotpath_baseline.count(hotpath_key(f)) != 0) {
      report.baselined.push_back(std::move(f));
    } else {
      report.findings.push_back(std::move(f));
    }
  }
  // A baseline entry matching no current finding is debt already paid: the
  // ratchet only shrinks, so a stale entry is itself a finding.
  const std::string hotpath_path =
      input.hotpath_path.empty() ? "tools/analyze/hotpath.baseline" : input.hotpath_path;
  for (const std::string& entry : hotpath_baseline) {
    if (hotpath_seen.count(entry) != 0) continue;
    report.findings.push_back(
        Finding{hotpath_path, 0, "baseline-stale-entry",
                "hotpath baseline entry '" + entry +
                    "' matches no current finding; delete it (the ratchet only "
                    "shrinks)"});
  }
  std::sort(report.findings.begin(), report.findings.end(), finding_less);
  std::sort(report.baselined.begin(), report.baselined.end(), finding_less);

  UPN_OBS_COUNT("analyze.files", report.files);
  UPN_OBS_COUNT("analyze.findings", report.findings.size());
  UPN_OBS_COUNT("analyze.findings_baselined", report.baselined.size());
  UPN_OBS_COUNT("analyze.runs", 1);
  return report;
}

bool collect_tree(const TreeOptions& options, Input& input, std::string& error) {
  const fs::path root{options.root};
  input.jobs = options.jobs;

  auto excluded = [&](const std::string& rel) {
    for (const std::string& sub : options.excludes) {
      if (rel.find(sub) != std::string::npos) return true;
    }
    return false;
  };

  auto rel_of = [&](const fs::path& p) {
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    return (ec || rel.empty() ? p : rel).generic_string();
  };

  std::vector<fs::path> files;
  for (const std::string& given : options.paths) {
    const fs::path p = fs::path{given}.is_absolute() ? fs::path{given} : root / given;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it{p, ec}, end; it != end; it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        const std::string path = it->path().generic_string();
        if (is_source_path(path)) files.push_back(it->path());
      }
      if (ec) {
        error = "cannot walk " + p.generic_string() + ": " + ec.message();
        return false;
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      error = "no such file or directory: " + p.generic_string();
      return false;
    }
  }

  std::vector<std::pair<std::string, fs::path>> keyed;
  keyed.reserve(files.size());
  for (const fs::path& p : files) {
    const std::string rel = rel_of(p);
    if (!excluded(rel)) keyed.emplace_back(rel, p);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              keyed.end());

  for (const auto& [rel, path] : keyed) {
    SourceFile file;
    file.path = rel;
    if (!read_file(path, file.content)) {
      error = "cannot read " + path.generic_string();
      return false;
    }
    input.files.push_back(std::move(file));
  }

  // The layers file: explicit path, or the conventional location when present.
  fs::path layers = options.layers_file.empty() ? root / "docs/ARCHITECTURE.layers"
                                                : fs::path{options.layers_file};
  if (!options.layers_file.empty() || fs::exists(layers)) {
    if (!read_file(layers, input.layers_text)) {
      error = "cannot read layers file " + layers.generic_string();
      return false;
    }
    input.layers_path = rel_of(layers);
  }

  fs::path baseline = options.baseline_file.empty()
                          ? root / "tools/analyze/contracts.baseline"
                          : fs::path{options.baseline_file};
  if (!options.baseline_file.empty() || fs::exists(baseline)) {
    if (!read_file(baseline, input.baseline_text)) {
      error = "cannot read baseline file " + baseline.generic_string();
      return false;
    }
  }

  fs::path hotpath = options.hotpath_file.empty()
                         ? root / "tools/analyze/hotpath.baseline"
                         : fs::path{options.hotpath_file};
  if (!options.hotpath_file.empty() || fs::exists(hotpath)) {
    if (!read_file(hotpath, input.hotpath_text)) {
      error = "cannot read hotpath baseline file " + hotpath.generic_string();
      return false;
    }
    input.hotpath_path = rel_of(hotpath);
  }

  return true;
}

}  // namespace upn::analyze
