// Regenerates the CLEAN artifact fixtures under tests/fixtures/ and the
// upn_analyze source-fixture trees under tests/fixtures-clean/analyze/ and
// tests/fixtures-bad/analyze/.  Artifacts are produced deterministically
// (fixed seeds, library generators) so a rerun after a format change yields
// reviewable diffs.  The corrupted ARTIFACT fixtures under tests/fixtures-bad/
// are hand-written and NOT regenerated here: each encodes one specific
// violation upn_lint must catch.  The analyze trees ARE regenerated: one
// table below is the single source of truth for both, pairing each clean
// construct with its deliberate violation.
//
// Usage: make_fixtures <artifact-dir> [<analyze-clean-dir> <analyze-bad-dir>]
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "src/core/embedding.hpp"
#include "src/core/embedding_io.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/protocol.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/path_schedule.hpp"
#include "src/routing/schedule_io.hpp"
#include "src/topology/builders.hpp"

namespace fs = std::filesystem;

namespace {

/// One analyze fixture: a repo-relative path plus its content in each tree.
/// A null side means the file exists only in the other tree.  Content is
/// assembled from single-line string fragments so this generator itself
/// stays clean under the engine (string literals are blanked per line).
struct AnalyzeFixture {
  const char* rel;
  const char* clean;
  const char* bad;
};

const AnalyzeFixture kAnalyzeFixtures[] = {
    // Declared module DAG.  The bad variant declares a cycle (alpha <-> beta),
    // carries a stale waiver for an edge that never occurs, and points a
    // hotpath directive at a module that was never declared.
    {"docs/ARCHITECTURE.layers",
     "# fixture DAG: two modules, one declared edge, one hot-path module\n"
     "layer util\n"
     "layer core: util\n"
     "layer hot: util\n"
     "hotpath hot\n",
     "# fixture DAG: declared cycle + stale waiver + dangling hotpath\n"
     "layer util\n"
     "layer core: util\n"
     "layer hot: util\n"
     "layer alpha: beta\n"
     "layer beta: alpha\n"
     "waive core -> alpha: legacy shim, removed long ago\n"
     "hotpath hot\n"
     "hotpath ghost\n"},

    // Hot-path performance baseline for the `hot` module.  The clean tree
    // freezes real deque debt (the finding moves to the baselined bucket);
    // the bad tree lists debt that no longer exists, so the shrink-only
    // ratchet itself fires (baseline-stale-entry).
    {"tools/analyze/hotpath.baseline",
     "# fixture hot-path baseline: frozen deque debt in the demo engine\n"
     "src/hot/engine_demo.hpp:hotpath-container:deque\n",
     "# fixture hot-path baseline: this debt was paid off long ago\n"
     "src/hot/engine_demo.hpp:hotpath-container:deque\n"},

    // Contracted leaf header (util).
    {"src/util/checked_math.hpp",
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int checked_halve(int value) {\n"
     "  UPN_REQUIRE(value >= 0);\n"
     "  return value / 2;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     nullptr},

    // Declared core -> util edge, contract + waiver syntax exercised.
    {"src/core/pipeline_demo.hpp",
     "#pragma once\n"
     "\n"
     "#include \"src/util/checked_math.hpp\"\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int half_of(int value) {\n"
     "  UPN_REQUIRE(value >= 0);\n"
     "  return demo::checked_halve(value);\n"
     "}\n"
     "\n"
     "inline int identity(int value) {\n"
     "  // upn-contract-waive(pure passthrough, no precondition to state)\n"
     "  int result = value;\n"
     "  return result;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     nullptr},

    // In-line suppression syntax exercised in the clean tree.
    {"src/core/seeded.cpp",
     "#include \"src/core/pipeline_demo.hpp\"\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "int reseed() {\n"
     "  return half_of(4) + rand();  // upn-lint-allow(no-std-rand)\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     nullptr},

    // Undeclared util -> core edge (bad only).
    {"src/util/uses_core.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "#include \"src/core/loop_a.hpp\"\n"},

    // File-level include cycle (bad only).
    {"src/core/loop_a.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "#include \"src/core/loop_b.hpp\"\n"},
    {"src/core/loop_b.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "#include \"src/core/loop_a.hpp\"\n"},

    // Public multi-statement function, no contract, no waiver (bad only).
    {"src/core/uncontracted.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int clamp_add(int a, int b) {\n"
     "  int sum = a + b;\n"
     "  if (sum < 0) sum = 0;\n"
     "  return sum;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Flow rules, one violation per construct (bad only).
    {"src/core/flow.cpp", nullptr,
     "#include <thread>\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "void run_flow(upn::Rng rng, long big) {\n"
     "  auto tiny = static_cast<std::uint16_t>(big);\n"
     "  std::thread worker{[tiny] { (void)tiny; }};\n"
     "  worker.detach();\n"
     "  (void)rng;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Header with declarations nobody uses -> unused-include (bad only).
    {"src/core/quiet.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int quiet_level() { return 3; }\n"
     "\n"
     "}  // namespace demo\n"},
    {"src/core/unused_inc.cpp", nullptr,
     "#include \"src/core/quiet.hpp\"\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "int forty_two() { return 42; }\n"
     "\n"
     "}  // namespace demo\n"},

    // Missing include guard (bad only).
    {"src/core/missing_pragma.hpp", nullptr,
     "namespace demo {\n"
     "\n"
     "struct Empty {};\n"
     "\n"
     "}  // namespace demo\n"},

    // Concurrency-safety pass.  Clean: index-disjoint writes and a per-task
    // Rng sub-stream.  Bad: a by-reference accumulation race plus one Rng
    // advanced from every task.
    {"src/core/par_tasks.cpp",
     "namespace demo {\n"
     "\n"
     "void fill_counts(Pool& pool, std::vector<int>& out, std::uint64_t seed) {\n"
     "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
     "    Rng rng = Rng::stream(seed, i);\n"
     "    out[i] = static_cast<int>(rng.next_u64());\n"
     "  });\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "void sum_counts(Pool& pool, const std::vector<int>& in, long& total, Rng& rng) {\n"
     "  pool.parallel_for(in.size(), [&](std::size_t i) {\n"
     "    total += in[i] + static_cast<long>(rng.next_u64());\n"
     "  });\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Determinism-taint pass.  Clean: unordered iteration is collected and
    // std::sort'ed before reaching the obs counter (sanitized).  Bad: four
    // nondeterminism sources each flow into a deterministic sink.
    {"src/core/metric_export.cpp",
     "namespace demo {\n"
     "\n"
     "void export_totals(const std::unordered_map<int, long>& table) {\n"
     "  std::vector<long> values;\n"
     "  for (const auto& [key, value] : table) {\n"
     "    values.push_back(value);\n"
     "  }\n"
     "  std::sort(values.begin(), values.end());\n"
     "  UPN_OBS_COUNT(\"demo.values\", values.size());\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "void export_totals(const std::unordered_map<int, long>& table,\n"
     "                   std::thread::id worker) {\n"
     "  long total = 0;\n"
     "  for (const auto& [key, value] : table) {\n"
     "    total += value;\n"
     "  }\n"
     "  UPN_OBS_COUNT(\"demo.total\", total);\n"
     "  const auto stamp = std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "  UPN_OBS_GAUGE_MAX(\"demo.stamp\", stamp);\n"
     "  const auto where = reinterpret_cast<std::uintptr_t>(&table);\n"
     "  UPN_OBS_COUNT(\"demo.where\", where);\n"
     "  UPN_OBS_COUNT(\"demo.worker\", std::hash<std::thread::id>{}(worker));\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Hot-path performance pass over the `hot` module.  Clean: the deque is
    // frozen in the fixture baseline, and the by-value parameter is the
    // sanctioned sink idiom (moved in the same unit).  Bad: a banned
    // container, virtual dispatch, allocation in a loop, and a genuine
    // by-value container parameter -- plus the stale baseline entry.
    {"src/hot/engine_demo.hpp",
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "struct Queue {\n"
     "  std::deque<int> pending;\n"
     "};\n"
     "\n"
     "inline void consume(std::vector<int> batch) {\n"
     "  std::vector<int> sink = std::move(batch);\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "struct Queue {\n"
     "  std::list<int> pending;\n"
     "};\n"
     "\n"
     "struct Policy {\n"
     "  virtual int next_hop(int at) = 0;\n"
     "};\n"
     "\n"
     "inline long drain(std::vector<long> batch) {\n"
     "  long total = 0;\n"
     "  for (std::size_t i = 0; i < batch.size(); ++i) {\n"
     "    auto* cell = new long(batch[i]);\n"
     "    total += *cell;\n"
     "    delete cell;\n"
     "  }\n"
     "  return total;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Dead-function pass (bad only): defined, never mentioned anywhere else.
    {"src/core/orphan.cpp", nullptr,
     "namespace demo {\n"
     "\n"
     "int orphaned_scale(int value) {\n"
     "  return value * 3;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Liveness anchor: a main() that references every function the trees
    // define on purpose, so dead-function fires only on the orphan above.
    // The bad variant deliberately omits orphaned_scale.
    {"src/core/fixture_main.cpp",
     "namespace demo {\n"
     "\n"
     "int run_all(Pool& pool) {\n"
     "  std::vector<int> data(4, 0);\n"
     "  fill_counts(pool, data, 7);\n"
     "  consume(data);\n"
     "  std::unordered_map<int, long> table;\n"
     "  export_totals(table);\n"
     "  return reseed() + identity(9);\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"
     "\n"
     "int main() {\n"
     "  demo::Pool pool;\n"
     "  return demo::run_all(pool);\n"
     "}\n",
     "namespace demo {\n"
     "\n"
     "int poke_everything() {\n"
     "  (void)sizeof(&sum_counts);\n"
     "  (void)sizeof(&run_flow);\n"
     "  (void)sizeof(&export_totals);\n"
     "  (void)drain(std::vector<long>{});\n"
     "  return forty_two() + quiet_level() + clamp_add(1, 2);\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"
     "\n"
     "int main() { return demo::poke_everything(); }\n"},
};

void write_tree(const fs::path& root, bool bad) {
  for (const AnalyzeFixture& fixture : kAnalyzeFixtures) {
    const char* content = bad ? fixture.bad : fixture.clean;
    if (content == nullptr) continue;
    const fs::path path = root / fixture.rel;
    fs::create_directories(path.parent_path());
    std::ofstream os{path, std::ios::binary};
    os << content;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 4) {
    std::cerr << "usage: make_fixtures <artifact-dir> [<analyze-clean-dir> <analyze-bad-dir>]\n";
    return 2;
  }
  const fs::path out{argv[1]};
  fs::create_directories(out);

  if (argc == 4) {
    write_tree(fs::path{argv[2]}, /*bad=*/false);
    write_tree(fs::path{argv[3]}, /*bad=*/true);
  }

  // Protocol: 2 guests on 2 hosts, T = 1.  Step 1 generates both final
  // pebbles; step 2 exchanges (P0, 1) so both hosts hold it.
  {
    upn::Protocol protocol{2, 2, 1};
    protocol.begin_step();
    protocol.add({upn::OpKind::kGenerate, 0, {0, 1}, 0});
    protocol.add({upn::OpKind::kGenerate, 1, {1, 1}, 0});
    protocol.begin_step();
    protocol.add({upn::OpKind::kSend, 0, {0, 1}, 1});
    protocol.add({upn::OpKind::kReceive, 1, {0, 1}, 0});
    std::ofstream os{out / "exchange.upnp"};
    upn::write_protocol(os, protocol);
  }

  // Embedding: 8 guests block-embedded on 4 hosts (load 2).
  {
    const auto embedding = upn::make_block_embedding(8, 4);
    std::ofstream os{out / "block_8_on_4.upne"};
    upn::write_embedding(os, embedding, 4);
  }

  // Schedule: a fixed permutation on an 8-cycle through the greedy
  // farthest-to-go scheduler; header bounds are the derived C and D.
  {
    const upn::Graph host = upn::make_cycle(8);
    upn::HhProblem problem{8};
    for (upn::NodeId v = 0; v < 8; ++v) problem.add(v, (v + 3) % 8);
    const upn::PathSchedule schedule = upn::schedule_paths(host, problem);
    std::ofstream os{out / "cycle_shift.upns"};
    upn::write_path_schedule(os, schedule, static_cast<std::uint32_t>(problem.size()));
  }

  // Fault plan: one permanent link cut, one node loss, one drop window.
  {
    upn::FaultPlan plan{7};
    plan.add_link_fault({0, 1, 2});
    plan.add_node_fault({3, 4});
    plan.add_drop_window({0, 1, 0, 8, 0.25});
    std::ofstream os{out / "mixed.upnf"};
    upn::write_fault_plan(os, plan);
  }

  std::cout << "fixtures written to " << out.string() << "\n";
  return 0;
}
