// upn_analyze pass families over the shared IR (tools/analyze/ir.hpp).
//
// Eight groups, one Finding vocabulary:
//
//   * single-file rules (source_rules.cpp) -- the upn_lint source rules
//     ported onto the IR plus the flow-sensitive token rules (Rng taken by
//     value, narrowing static_cast without an adjacent contract, raw
//     std::thread outside util/par).  upn_lint's lint_source delegates here,
//     so there is exactly one engine and one suppression syntax.
//   * concurrency safety (concurrency.cpp) -- lambdas handed to
//     upn::ThreadPool's parallel_for/parallel_map: shared mutable state
//     captured by reference without index-disjoint writes, atomics, or a
//     lock, and upn::Rng objects shared across tasks.
//   * determinism taint (determinism_taint.cpp) -- values that originate
//     from unordered-container iteration order, timing clocks, thread ids,
//     or pointer identity, tracked per file until they flow into an
//     artifact writer, snapshot exporter, or obs counter.  Subsumes the
//     retired token-level unordered-iteration / no-raw-timing rules.
//   * layering conformance (layering.cpp) -- the observed #include graph of
//     src/ checked against the declared module DAG in
//     docs/ARCHITECTURE.layers, plus file-level include-cycle detection.
//   * contract coverage (contracts_audit.cpp) -- public header functions
//     whose definitions carry no contract macro and no waiver, filtered by a
//     committed baseline so coverage can only ratchet up.
//   * hot-path performance (hotpath.cpp) -- modules declared `hotpath` in
//     the layers file audited for containers with per-node allocation
//     (std::deque/map/list), in-loop heap allocation, virtual dispatch, and
//     by-value container parameters; existing debt is frozen in a
//     shrink-only baseline (tools/analyze/hotpath.baseline).
//   * include hygiene (include_hygiene.cpp) -- quoted includes from whose
//     transitive declaration set the includer uses nothing.
//   * dead functions (dead_function.cpp) -- free src/ functions whose name
//     nothing in the analyzed tree references.
//
// Every pass is pure (IR in, findings out) and thread-safe by construction;
// the engine owns ordering: findings are merged and sorted by
// (file, line, rule, message) so reports are byte-identical at every thread
// count.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/analyze/ir.hpp"

namespace upn::analyze {

struct Finding {
  std::string file;
  std::size_t line = 0;  ///< 1-based; 0 when file-scoped
  std::string rule;
  std::string message;

  /// "file:line: [rule] message" -- the text-report and CI-grep format.
  [[nodiscard]] std::string format() const;
};

/// Deterministic report order: (file, line, rule, message).
[[nodiscard]] bool finding_less(const Finding& a, const Finding& b);

/// One catalog entry per rule id, for the SARIF rules array and the docs.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule the engine can emit, sorted by id.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

// ---- single-file rules ----------------------------------------------------

/// All rules that need only one unit.  Honors `upn-lint-allow(<rule>)` and
/// `upn-analyze-waive(<rule>: <reason>)` on the finding's raw line.
[[nodiscard]] std::vector<Finding> run_single_file_rules(const Unit& unit);

// ---- concurrency safety ---------------------------------------------------

/// Walks every lambda passed to `.parallel_for(` / `.parallel_map(` in the
/// unit and reports:
///   par-shared-mutation  a by-reference captured outer variable written by
///                        the task body without an index-disjoint subscript
///                        (a subscript naming a lambda parameter), an atomic
///                        declaration, or a lock in the body
///   par-shared-rng       an outer upn::Rng used inside the task body; tasks
///                        must derive sub-streams with Rng::stream(seed, i)
[[nodiscard]] std::vector<Finding> run_concurrency_pass(const Unit& unit);

// ---- determinism taint ----------------------------------------------------

/// Per-file taint flow from nondeterminism sources to deterministic sinks
/// (artifact writers, snapshot exporters, UPN_OBS_* counters):
///   taint-unordered-order  unordered_{map,set} iteration order
///   taint-timing           clock reads (std::chrono, clock_gettime, now_ns)
///   taint-thread-id        std::this_thread::get_id() / std::thread::id
///   taint-address          pointer identity (reinterpret_cast to uintptr_t,
///                          std::hash over a pointer type)
/// src/obs/ and bench/harness.* are exempt from taint-timing (they ARE the
/// sanctioned kTiming side).  std::sort and insertion into std::set/std::map
/// sanitize the unordered-order taint.
[[nodiscard]] std::vector<Finding> run_determinism_taint_pass(const Unit& unit);

// ---- layering -------------------------------------------------------------

/// Parsed docs/ARCHITECTURE.layers: the declared module DAG plus waived
/// edges (observed edges tolerated with a recorded reason) and the modules
/// declared hot paths for the performance pass.
struct LayerSpec {
  /// module -> direct declared dependencies (sorted).
  std::map<std::string, std::vector<std::string>> deps;
  /// waived "from -> to" edges with their reasons.
  std::map<std::pair<std::string, std::string>, std::string> waivers;
  /// `hotpath <module>` directives: module -> declaring line.
  std::map<std::string, std::size_t> hotpaths;
  std::vector<Finding> errors;  ///< malformed lines, duplicate declarations
};

/// Parses the layers file text.  `path` is used for diagnostics only.
[[nodiscard]] LayerSpec parse_layers(const std::string& path, const std::string& content);

/// Checks the observed include graph of the src/ units against the spec:
/// declared-DAG acyclicity, undeclared cross-module edges, unknown modules,
/// stale waivers, and file-level include cycles.
[[nodiscard]] std::vector<Finding> run_layering_pass(
    const std::vector<Unit>& units, const LayerSpec& spec, const std::string& layers_path);

// ---- contract coverage ----------------------------------------------------

/// Public functions declared in src/**/*.hpp whose definition (inline or in
/// any analyzed unit) has no contract macro and no waiver marker.  Functions
/// whose bodies hold at most one statement (trivial accessors) and functions
/// with no definition in the analyzed set are skipped.
[[nodiscard]] std::vector<Finding> run_contract_coverage_pass(const std::vector<Unit>& units);

/// Baseline file IO: one "path:function" entry per line, '#' comments.
[[nodiscard]] std::set<std::string> parse_baseline(const std::string& content);
[[nodiscard]] std::string baseline_key(const Finding& finding);
[[nodiscard]] std::string render_baseline(const std::vector<Finding>& findings);

// ---- hot-path performance -------------------------------------------------

/// For every unit whose module carries a `hotpath` directive in the layers
/// file:
///   hotpath-container       std::deque / std::map / std::list use
///   hotpath-alloc           heap allocation (new, make_unique/make_shared,
///                           malloc) inside a loop
///   hotpath-virtual         a virtual member function declaration
///   hotpath-by-value-param  a container/string parameter taken by value
/// Findings are line-stable only per construct: the baseline key is
/// `file:rule:detail` (the detail is the first quoted token of the message),
/// so line drift never grows the committed baseline.
[[nodiscard]] std::vector<Finding> run_hotpath_pass(const std::vector<Unit>& units,
                                                    const LayerSpec& spec);

/// The ratchet key of a hotpath finding: "file:rule:detail".
[[nodiscard]] std::string hotpath_key(const Finding& finding);

/// Renders the shrink-only hotpath baseline (sorted unique keys, commented
/// header).  Engine-side, entries that match no current finding are reported
/// as `baseline-stale-entry` so the file cannot rot.
[[nodiscard]] std::string render_hotpath_baseline(const std::vector<Finding>& findings);

// ---- dead functions -------------------------------------------------------

/// Free src/ functions (defined at namespace scope, not `main`, not a
/// member) whose name is never referenced outside its own definitions and
/// header prototypes anywhere in the analyzed tree (CLI, test, bench, and
/// example roots included):
///   dead-function
[[nodiscard]] std::vector<Finding> run_dead_function_pass(const std::vector<Unit>& units);

// ---- include hygiene ------------------------------------------------------

/// Quoted includes that resolve inside the analyzed set but from whose
/// transitive declaration closure the includer uses no name.
[[nodiscard]] std::vector<Finding> run_include_hygiene_pass(const std::vector<Unit>& units);

}  // namespace upn::analyze
