// Engine-level tests for upn_analyze: IR construction (stripping, includes,
// declaration indexing), each pass family against in-memory inputs and the
// committed fixture trees, SARIF structural validity, and the determinism
// contract -- text and SARIF reports are byte-identical at --jobs {1, 2, 7}.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/engine.hpp"
#include "tools/analyze/ir.hpp"
#include "tools/analyze/passes.hpp"
#include "tools/analyze/sarif.hpp"

namespace upn::analyze {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

Report analyze_tree(const std::string& root, unsigned jobs = 0) {
  TreeOptions options;
  options.root = root;
  options.paths = {"src"};
  options.excludes.clear();  // fixture trees live under tests/fixtures-*
  options.jobs = jobs;
  Input input;
  std::string error;
  EXPECT_TRUE(collect_tree(options, input, error)) << error;
  return analyze(input);
}

// ---- IR construction ------------------------------------------------------

TEST(AnalyzeIr, StripsCommentsAndStringsPreservingLineLengths) {
  const Unit unit = build_unit(
      "src/util/demo.cpp",
      "int a = 1; // trailing rand()\n"
      "const char* s = \"std::endl inside\";\n"
      "/* block rand()\n"
      "   still rand() */ int b = 2;\n");
  ASSERT_EQ(unit.code.size(), 4u);
  EXPECT_EQ(unit.code[0], "int a = 1; ");
  EXPECT_EQ(unit.code[1].find("endl"), std::string::npos);
  EXPECT_EQ(unit.code[1].size(), unit.raw[1].size());
  EXPECT_EQ(unit.code[2].find("rand"), std::string::npos);
  EXPECT_NE(unit.code[3].find("int b = 2;"), std::string::npos);
}

TEST(AnalyzeIr, ScansQuotedAndSystemIncludes) {
  const Unit unit = build_unit(
      "src/core/demo.cpp",
      "#include <vector>\n"
      "#include \"src/util/rng.hpp\"\n"
      "// #include \"src/util/not_really.hpp\"\n");
  ASSERT_EQ(unit.includes.size(), 2u);
  EXPECT_FALSE(unit.includes[0].quoted);
  EXPECT_EQ(unit.includes[0].target, "vector");
  EXPECT_TRUE(unit.includes[1].quoted);
  EXPECT_EQ(unit.includes[1].target, "src/util/rng.hpp");
  EXPECT_EQ(unit.includes[1].line, 2u);
}

TEST(AnalyzeIr, ModuleOfMapsSrcSubdirectories) {
  EXPECT_EQ(module_of("src/topology/graph.hpp"), "topology");
  EXPECT_EQ(module_of("src/util/par.cpp"), "util");
  // Nested directories are their own layering units, distinct from the
  // parent module.
  EXPECT_EQ(module_of("src/routing/online/route_table.hpp"), "routing/online");
  EXPECT_EQ(module_of("src/routing/router.cpp"), "routing");
  EXPECT_EQ(module_of("tools/lint/lint.cpp"), "");
  EXPECT_EQ(module_of("tests/util_test.cpp"), "");
}

TEST(AnalyzeIr, IndexesFunctionDeclarationsWithContractFacts) {
  const Unit unit = build_unit(
      "src/util/demo.hpp",
      "#pragma once\n"
      "namespace upn {\n"
      "int checked(int v) {\n"
      "  UPN_REQUIRE(v >= 0);\n"
      "  return v + 1;\n"
      "}\n"
      "int waived(int v) {\n"
      "  // upn-contract-waive(trivial shim)\n"
      "  int r = v;\n"
      "  return r;\n"
      "}\n"
      "int bare(int v) {\n"
      "  int r = v * 2;\n"
      "  return r;\n"
      "}\n"
      "}  // namespace upn\n");
  auto find = [&](const std::string& name) -> const Declaration* {
    for (const Declaration& d : unit.decls) {
      if (d.name == name) return &d;
    }
    return nullptr;
  };
  const Declaration* checked = find("checked");
  ASSERT_NE(checked, nullptr);
  EXPECT_TRUE(checked->has_body);
  EXPECT_TRUE(checked->has_contract);
  EXPECT_FALSE(checked->has_waiver);
  const Declaration* waived = find("waived");
  ASSERT_NE(waived, nullptr);
  EXPECT_TRUE(waived->has_waiver);
  EXPECT_FALSE(waived->has_contract);
  const Declaration* bare = find("bare");
  ASSERT_NE(bare, nullptr);
  EXPECT_FALSE(bare->has_contract);
  EXPECT_FALSE(bare->has_waiver);
  EXPECT_GE(bare->body_statements, 2u);
}

TEST(AnalyzeIr, PrivateMembersAreNotPublic) {
  const Unit unit = build_unit(
      "src/util/demo.hpp",
      "#pragma once\n"
      "namespace upn {\n"
      "class Box {\n"
      " public:\n"
      "  int get() const { return v_; }\n"
      " private:\n"
      "  int hidden(int a) {\n"
      "    int b = a + 1;\n"
      "    return b;\n"
      "  }\n"
      "  int v_ = 0;\n"
      "};\n"
      "}  // namespace upn\n");
  bool saw_private = false;
  for (const Declaration& d : unit.decls) {
    if (d.name == "hidden") {
      saw_private = true;
      EXPECT_FALSE(d.is_public);
    }
    if (d.name == "get") {
      EXPECT_TRUE(d.is_public);
    }
  }
  EXPECT_TRUE(saw_private);
}

const Declaration* find_decl(const Unit& unit, const std::string& name,
                             DeclKind kind = DeclKind::kFunction) {
  for (const Declaration& d : unit.decls) {
    if (d.name == name && d.kind == kind) return &d;
  }
  return nullptr;
}

TEST(AnalyzeIr, IndexingResumesAfterAnOutOfLineDestructor) {
  const Unit unit = build_unit("src/core/demo.cpp",
                               "namespace demo {\n"
                               "Foo::~Foo() { }\n"
                               "int after(int a) {\n"
                               "  return a;\n"
                               "}\n"
                               "}\n");
  const Declaration* after = find_decl(unit, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 3u);
  EXPECT_TRUE(after->has_body);
  EXPECT_EQ(after->body_statements, 1u);
}

TEST(AnalyzeIr, MemberInitializerListsAndInClassBodiesEndTheirStatement) {
  // Brace-initialized members belong to the constructor's head, and an
  // in-class constructor, destructor or operator body ends its statement.
  const Unit unit = build_unit("src/core/demo.cpp",
                               "namespace demo {\n"
                               "class Box {\n"
                               " public:\n"
                               "  explicit Box(int v) : v_{v}, w_(v) { reset(); }\n"
                               "  ~Box() { reset(); }\n"
                               "  int operator()() const { return v_ + w_; }\n"
                               "  int get(int a) const {\n"
                               "    int b = a + v_;\n"
                               "    return b;\n"
                               "  }\n"
                               " private:\n"
                               "  int v_;\n"
                               "  int w_;\n"
                               "};\n"
                               "Box::Box(int v, int w) : v_{v}, w_{w} {\n"
                               "  UPN_REQUIRE(v >= 0);\n"
                               "}\n"
                               "int after(int a) {\n"
                               "  int b = a;\n"
                               "  return b;\n"
                               "}\n"
                               "}\n");
  const Declaration* get = find_decl(unit, "get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->line, 7u);
  EXPECT_TRUE(get->is_public);
  EXPECT_EQ(get->body_statements, 2u);
  const Declaration* after = find_decl(unit, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 18u);
  EXPECT_EQ(after->body_statements, 2u);
  // The out-of-line constructor's body is its last brace group, not {v}.
  const Declaration* ctor = find_decl(unit, "Box");
  ASSERT_NE(ctor, nullptr);
  EXPECT_TRUE(ctor->has_contract);
  // Neither a call inside a skipped body nor an operator becomes a function.
  EXPECT_EQ(find_decl(unit, "reset"), nullptr);
  EXPECT_EQ(find_decl(unit, "operator"), nullptr);
}

TEST(AnalyzeIr, IndexesEveryTraceFunctionOfSpanCpp) {
  // span.cpp defines its functions after ScopedStep's out-of-line
  // constructor and destructor; every one of them must be indexed.
  const std::string path = std::string{UPN_SOURCE_ROOT} + "/src/obs/span.cpp";
  std::ifstream in{path};
  ASSERT_TRUE(in) << path;
  std::stringstream content;
  content << in.rdbuf();
  const Unit unit = build_unit("src/obs/span.cpp", content.str());
  for (const char* name : {"set_current_step", "current_span_path", "context_suffix",
                           "trace_enabled", "start_trace", "init_trace_from_env", "trace_path",
                           "write_trace", "stop_trace", "trace_events"}) {
    const Declaration* d = find_decl(unit, name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_TRUE(d->has_body) << name;
    EXPECT_GT(d->line, 104u) << name;
  }
}

// ---- single-file rules (ported + flow) ------------------------------------

TEST(AnalyzeRules, PortedLintRulesStillFire) {
  const Unit unit = build_unit(
      "src/util/demo.cpp",
      "int r = rand();\n"
      "std::cout << x << std::endl;\n");
  const std::vector<Finding> findings = run_single_file_rules(unit);
  EXPECT_TRUE(has_rule(findings, "no-std-rand"));
  EXPECT_TRUE(has_rule(findings, "no-endl"));
}

TEST(AnalyzeRules, RngByValueFiresAndReferenceIsQuiet) {
  const Unit by_value = build_unit("src/core/demo.hpp",
                                   "#pragma once\n"
                                   "void run(upn::Rng rng);\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(by_value), "rng-by-value"));
  const Unit by_ref = build_unit("src/core/demo.hpp",
                                 "#pragma once\n"
                                 "void run(upn::Rng& rng);\n"
                                 "void run2(const Rng& rng);\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(by_ref), "rng-by-value"));
}

TEST(AnalyzeRules, NarrowingCastNeedsAdjacentContract) {
  const Unit bare = build_unit("src/core/demo.cpp",
                               "void f(long big) {\n"
                               "  auto t = static_cast<std::uint16_t>(big);\n"
                               "}\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(bare), "narrowing-cast"));
  const Unit contracted = build_unit("src/core/demo.cpp",
                                     "void f(long big) {\n"
                                     "  UPN_REQUIRE(big <= 65535);\n"
                                     "  auto t = static_cast<std::uint16_t>(big);\n"
                                     "}\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(contracted), "narrowing-cast"));
  const Unit wide = build_unit("src/core/demo.cpp",
                               "void f(long big) {\n"
                               "  auto t = static_cast<std::uint32_t>(big);\n"
                               "}\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(wide), "narrowing-cast"));
}

TEST(AnalyzeRules, RawThreadOutsideParFiresButParAndThreadIdAreExempt) {
  const Unit outside = build_unit("src/core/demo.cpp", "std::thread t{[] {}};\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(outside), "no-raw-thread"));
  const Unit inside = build_unit("src/util/par.cpp", "std::thread t{[] {}};\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(inside), "no-raw-thread"));
  const Unit id_use = build_unit("src/core/demo.cpp", "std::thread::id who;\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(id_use), "no-raw-thread"));
}

TEST(AnalyzeRules, ThreadDetachFires) {
  const Unit unit = build_unit("src/core/demo.cpp",
                               "void f(std::thread& t) { t.detach(); }\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(unit), "thread-detach"));
}

TEST(AnalyzeRules, SuppressionSilencesExactlyTheNamedRule) {
  const Unit unit = build_unit(
      "src/core/demo.cpp",
      "int r = rand();  // upn-lint-allow(no-std-rand)\n"
      "std::cout << x << std::endl;  // upn-lint-allow(no-std-rand)\n");
  const std::vector<Finding> findings = run_single_file_rules(unit);
  EXPECT_FALSE(has_rule(findings, "no-std-rand"));
  EXPECT_TRUE(has_rule(findings, "no-endl"));
}

// ---- layering -------------------------------------------------------------

TEST(AnalyzeLayering, ParsesLayersAndWaivers) {
  const LayerSpec spec = parse_layers("docs/ARCHITECTURE.layers",
                                      "# comment\n"
                                      "layer util\n"
                                      "layer core: util\n"
                                      "waive core -> pebble: legacy shim\n");
  EXPECT_TRUE(spec.errors.empty());
  ASSERT_EQ(spec.deps.count("core"), 1u);
  EXPECT_EQ(spec.deps.at("core"), std::vector<std::string>{"util"});
  EXPECT_EQ(spec.waivers.count({"core", "pebble"}), 1u);
}

TEST(AnalyzeLayering, MalformedLinesAreReported) {
  const LayerSpec spec = parse_layers("L", "nonsense here\n");
  EXPECT_TRUE(has_rule(spec.errors, "layers-malformed"));
}

TEST(AnalyzeLayering, UndeclaredEdgeAndCycleAndStaleWaiver) {
  Input input;
  input.layers_path = "docs/ARCHITECTURE.layers";
  input.layers_text =
      "layer util\n"
      "layer core: util\n"
      "layer alpha: beta\n"
      "layer beta: alpha\n"
      "waive core -> alpha: long gone\n";
  input.files.push_back({"src/util/uses_core.hpp",
                         "#pragma once\n#include \"src/core/a.hpp\"\n"});
  input.files.push_back({"src/core/a.hpp", "#pragma once\n#include \"src/core/b.hpp\"\n"});
  input.files.push_back({"src/core/b.hpp", "#pragma once\n#include \"src/core/a.hpp\"\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_TRUE(has_rule(report.findings, "layering-declared-cycle"));
  EXPECT_TRUE(has_rule(report.findings, "layering-undeclared-edge"));
  EXPECT_TRUE(has_rule(report.findings, "layering-stale-waiver"));
  EXPECT_TRUE(has_rule(report.findings, "include-cycle"));
}

TEST(AnalyzeLayering, DeclaredAndWaivedEdgesAreQuiet) {
  Input input;
  input.layers_path = "L";
  input.layers_text =
      "layer util\n"
      "layer core: util\n"
      "waive util -> core: fixture back-edge\n";
  input.files.push_back({"src/core/a.hpp", "#pragma once\n#include \"src/util/b.hpp\"\n"});
  input.files.push_back({"src/util/b.hpp", "#pragma once\nnamespace upn { using Id = int; }\n"});
  input.files.push_back({"src/util/back.hpp", "#pragma once\n#include \"src/core/a.hpp\"\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_FALSE(has_rule(report.findings, "layering-undeclared-edge"))
      << report.render_text();
  EXPECT_FALSE(has_rule(report.findings, "layering-stale-waiver"));
}

// ---- contract coverage + baseline -----------------------------------------

TEST(AnalyzeContracts, UncontractedPublicFunctionIsFlaggedOnceAndBaselineable) {
  Input input;
  input.files.push_back({"src/core/demo.hpp",
                         "#pragma once\n"
                         "namespace upn {\n"
                         "int clamp_add(int a, int b);\n"
                         "}\n"});
  input.files.push_back({"src/core/demo.cpp",
                         "#include \"src/core/demo.hpp\"\n"
                         "namespace upn {\n"
                         "int clamp_add(int a, int b) {\n"
                         "  int sum = a + b;\n"
                         "  if (sum < 0) sum = 0;\n"
                         "  return sum;\n"
                         "}\n"
                         "}\n"});
  input.jobs = 1;
  const Report flagged = analyze(input);
  ASSERT_TRUE(has_rule(flagged.findings, "contract-coverage")) << flagged.render_text();
  const std::vector<std::string> rules = rules_of(flagged.findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), std::string{"contract-coverage"}), 1);

  // The same finding keyed into the baseline moves to the baselined bucket.
  std::vector<Finding> coverage;
  for (const Finding& f : flagged.findings) {
    if (f.rule == "contract-coverage") coverage.push_back(f);
  }
  input.baseline_text = render_baseline(coverage);
  const Report baselined = analyze(input);
  EXPECT_FALSE(has_rule(baselined.findings, "contract-coverage"));
  EXPECT_TRUE(has_rule(baselined.baselined, "contract-coverage"));
}

TEST(AnalyzeContracts, ContractedWaivedAndTrivialFunctionsAreQuiet) {
  Input input;
  input.files.push_back({"src/core/demo.hpp",
                         "#pragma once\n"
                         "namespace upn {\n"
                         "inline int checked(int v) {\n"
                         "  UPN_REQUIRE(v >= 0);\n"
                         "  return v;\n"
                         "}\n"
                         "inline int waived(int v) {\n"
                         "  // upn-contract-waive(identity)\n"
                         "  int r = v;\n"
                         "  return r;\n"
                         "}\n"
                         "inline int trivial() { return 1; }\n"
                         "}\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_FALSE(has_rule(report.findings, "contract-coverage")) << report.render_text();
}

TEST(AnalyzeContracts, BaselineParserSkipsCommentsAndBlanks) {
  const std::set<std::string> entries =
      parse_baseline("# header\n\nsrc/a.hpp:f\nsrc/b.hpp:g\n");
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.count("src/a.hpp:f"), 1u);
}

// ---- include hygiene ------------------------------------------------------

TEST(AnalyzeHygiene, UnusedIncludeFlaggedUsedIncludeQuiet) {
  Input input;
  input.files.push_back({"src/util/names.hpp",
                         "#pragma once\n"
                         "namespace upn {\n"
                         "inline int forty() { return 40; }\n"
                         "}\n"});
  input.files.push_back({"src/util/user.cpp",
                         "#include \"src/util/names.hpp\"\n"
                         "int x = upn::forty();\n"});
  input.files.push_back({"src/util/nonuser.cpp",
                         "#include \"src/util/names.hpp\"\n"
                         "int y = 2;\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  ASSERT_TRUE(has_rule(report.findings, "unused-include")) << report.render_text();
  for (const Finding& f : report.findings) {
    if (f.rule == "unused-include") {
      EXPECT_EQ(f.file, "src/util/nonuser.cpp");
    }
  }
}

TEST(AnalyzeHygiene, TransitiveUseCountsAsUse) {
  Input input;
  input.files.push_back({"src/util/inner.hpp",
                         "#pragma once\n"
                         "namespace upn {\n"
                         "inline int deep() { return 7; }\n"
                         "}\n"});
  input.files.push_back({"src/util/outer.hpp",
                         "#pragma once\n"
                         "#include \"src/util/inner.hpp\"\n"
                         "namespace upn {\n"
                         "inline int shallow() { return deep(); }\n"
                         "}\n"});
  input.files.push_back({"src/util/user.cpp",
                         "#include \"src/util/outer.hpp\"\n"
                         "int x = upn::deep();\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  for (const Finding& f : report.findings) {
    EXPECT_NE(f.file, "src/util/user.cpp") << f.format();
  }
}

// ---- concurrency safety ---------------------------------------------------

TEST(AnalyzeConcurrency, ByReferenceAccumulationIntoOuterStateFires) {
  const Unit unit = build_unit(
      "src/core/sum.cpp",
      "void f(ThreadPool& pool, const std::vector<long>& in) {\n"
      "  long total = 0;\n"
      "  pool.parallel_for(in.size(), [&](std::size_t i) {\n"
      "    total += in[i];\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_concurrency_pass(unit), "par-shared-mutation"));
}

TEST(AnalyzeConcurrency, IndexDisjointAtomicAndLockedWritesAreQuiet) {
  const Unit disjoint = build_unit(
      "src/core/fill.cpp",
      "void f(ThreadPool& pool, std::vector<long>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = static_cast<long>(i);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(disjoint).empty());

  const Unit atomic = build_unit(
      "src/core/count.cpp",
      "void f(ThreadPool& pool, std::size_t n) {\n"
      "  std::atomic<long> total{0};\n"
      "  pool.parallel_for(n, [&](std::size_t i) {\n"
      "    total += static_cast<long>(i);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(atomic).empty());

  const Unit locked = build_unit(
      "src/core/merge.cpp",
      "void f(ThreadPool& pool, std::size_t n, std::vector<long>& all) {\n"
      "  std::mutex m;\n"
      "  pool.parallel_for(n, [&](std::size_t i) {\n"
      "    std::lock_guard<std::mutex> hold(m);\n"
      "    all.push_back(static_cast<long>(i));\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(locked).empty());
}

TEST(AnalyzeConcurrency, OuterRngSharedAcrossTasksFiresButSubStreamsAreQuiet) {
  const Unit shared = build_unit(
      "src/core/draw.cpp",
      "void f(ThreadPool& pool, Rng& rng, std::vector<std::uint64_t>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = rng.next_u64();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_concurrency_pass(shared), "par-shared-rng"));

  const Unit streamed = build_unit(
      "src/core/draw.cpp",
      "void f(ThreadPool& pool, std::uint64_t seed, std::vector<std::uint64_t>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    Rng rng = Rng::stream(seed, i);\n"
      "    out[i] = rng.next_u64();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(streamed).empty());
}

// ---- determinism taint ----------------------------------------------------

TEST(AnalyzeTaint, UnorderedOrderFlowsToSinkButSortSanitizes) {
  const Unit tainted = build_unit(
      "src/core/stats.cpp",
      "void f() {\n"
      "  std::unordered_map<int, int> counts;\n"
      "  long total = 0;\n"
      "  for (const auto& [k, v] : counts) {\n"
      "    total += v;\n"
      "  }\n"
      "  UPN_OBS_COUNT(\"demo.total\", total);\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(tainted), "taint-unordered-order"));

  const Unit sorted = build_unit(
      "src/core/stats.cpp",
      "void f() {\n"
      "  std::unordered_map<int, int> counts;\n"
      "  std::vector<int> values;\n"
      "  for (const auto& [k, v] : counts) {\n"
      "    values.push_back(v);\n"
      "  }\n"
      "  std::sort(values.begin(), values.end());\n"
      "  UPN_OBS_COUNT(\"demo.first\", values.empty() ? 0 : values[0]);\n"
      "}\n");
  EXPECT_TRUE(run_determinism_taint_pass(sorted).empty());
}

TEST(AnalyzeTaint, ThreadIdAndAddressSourcesFlowToSinks) {
  const Unit thread_id = build_unit(
      "src/core/who.cpp",
      "void f() {\n"
      "  const std::size_t me = std::hash<std::thread::id>{}(std::this_thread::get_id());\n"
      "  UPN_OBS_COUNT(\"demo.me\", me);\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(thread_id), "taint-thread-id"));

  const Unit address = build_unit(
      "src/core/where.cpp",
      "void f(const int* p) {\n"
      "  const auto where = reinterpret_cast<std::uintptr_t>(p);\n"
      "  UPN_OBS_COUNT(\"demo.where\", where);\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(address), "taint-address"));
}

TEST(AnalyzeTaint, TimingFlowFiresOutsideObsButObsAndHarnessAreExempt) {
  const std::string body =
      "void f() {\n"
      "  const auto t0 = std::chrono::steady_clock::now();\n"
      "  UPN_OBS_COUNT(\"demo.t0\", t0.time_since_epoch().count());\n"
      "}\n";
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(build_unit("src/core/t.cpp", body)),
                       "taint-timing"));
  EXPECT_TRUE(run_determinism_taint_pass(build_unit("src/obs/t.cpp", body)).empty());
  EXPECT_TRUE(run_determinism_taint_pass(build_unit("bench/harness.cpp", body)).empty());
}

// ---- hot-path performance -------------------------------------------------

namespace {

Input hotpath_input(const std::string& path, const std::string& text) {
  Input input;
  input.layers_path = "docs/ARCHITECTURE.layers";
  input.layers_text = "layer util\nlayer hot: util\nhotpath hot\n";
  input.files.push_back({path, text});
  input.jobs = 1;
  return input;
}

}  // namespace

TEST(AnalyzeHotpath, BannedContainerLoopAllocAndVirtualFireOnlyInHotpathModules) {
  const std::string text =
      "#pragma once\n"
      "struct Engine {\n"
      "  virtual int next_hop(int at) = 0;\n"
      "  std::map<int, int> table;\n"
      "};\n"
      "inline void churn(std::vector<int*>& out) {\n"
      "  for (int i = 0; i < 8; ++i) {\n"
      "    out.push_back(new int(i));\n"
      "  }\n"
      "}\n";
  const Report hot = analyze(hotpath_input("src/hot/engine.hpp", text));
  EXPECT_TRUE(has_rule(hot.findings, "hotpath-container")) << hot.render_text();
  EXPECT_TRUE(has_rule(hot.findings, "hotpath-alloc"));
  EXPECT_TRUE(has_rule(hot.findings, "hotpath-virtual"));

  // The identical file in a module with no hotpath directive is quiet.
  const Report cold = analyze(hotpath_input("src/util/engine.hpp", text));
  for (const Finding& f : cold.findings) {
    EXPECT_NE(f.rule.substr(0, 8), "hotpath-") << f.format();
  }
}

TEST(AnalyzeHotpath, ByValueContainerParamFiresUnlessItIsAMoveSink) {
  const Report copied = analyze(hotpath_input(
      "src/hot/api.hpp",
      "#pragma once\n"
      "inline long weigh(std::vector<long> batch) {\n"
      "  long total = 0;\n"
      "  for (long v : batch) total += v;\n"
      "  return total;\n"
      "}\n"));
  EXPECT_TRUE(has_rule(copied.findings, "hotpath-by-value-param"))
      << copied.render_text();

  // The sink idiom -- by-value then moved into place -- is the ONE sanctioned
  // by-value container signature.
  const Report sink = analyze(hotpath_input(
      "src/hot/api.hpp",
      "#pragma once\n"
      "struct Holder {\n"
      "  std::vector<long> owned;\n"
      "  void adopt(std::vector<long> batch) { owned = std::move(batch); }\n"
      "};\n"));
  EXPECT_FALSE(has_rule(sink.findings, "hotpath-by-value-param"))
      << sink.render_text();
}

TEST(AnalyzeHotpath, BaselineAbsorbsFindingsAndStaleEntriesFireTheRatchet) {
  Input input = hotpath_input("src/hot/engine.hpp",
                              "#pragma once\n"
                              "struct Engine {\n"
                              "  std::deque<int> pending;\n"
                              "};\n");
  const Report live = analyze(input);
  std::vector<Finding> hotpath_findings;
  for (const Finding& f : live.findings) {
    if (f.rule.compare(0, 8, "hotpath-") == 0) hotpath_findings.push_back(f);
  }
  ASSERT_FALSE(hotpath_findings.empty()) << live.render_text();

  // Keyed into the baseline, the finding moves to the baselined bucket.
  input.hotpath_text = render_hotpath_baseline(hotpath_findings);
  input.hotpath_path = "tools/analyze/hotpath.baseline";
  const Report absorbed = analyze(input);
  EXPECT_FALSE(has_rule(absorbed.findings, "hotpath-container"));
  EXPECT_TRUE(has_rule(absorbed.baselined, "hotpath-container"));
  EXPECT_FALSE(has_rule(absorbed.findings, "baseline-stale-entry"));

  // An entry that matches nothing must be deleted: the ratchet only shrinks.
  input.hotpath_text += "src/hot/gone.hpp:hotpath-container:map\n";
  const Report stale = analyze(input);
  ASSERT_TRUE(has_rule(stale.findings, "baseline-stale-entry")) << stale.render_text();
  for (const Finding& f : stale.findings) {
    if (f.rule != "baseline-stale-entry") continue;
    EXPECT_EQ(f.file, "tools/analyze/hotpath.baseline");
    EXPECT_EQ(f.line, 0u);
    EXPECT_NE(f.message.find("src/hot/gone.hpp:hotpath-container:map"),
              std::string::npos);
  }
}

// ---- dead functions -------------------------------------------------------

std::vector<Finding> dead_functions(const Report& report) {
  std::vector<Finding> dead;
  for (const Finding& f : report.findings) {
    if (f.rule == "dead-function") dead.push_back(f);
  }
  return dead;
}

TEST(AnalyzeDeadFunction, FiresOnAnOrphanAndIsQuietOnceReferenced) {
  Input input;
  input.files.push_back({"src/core/orphan.cpp",
                         "namespace demo {\n"
                         "int orphaned_scale(int value) {\n"
                         "  return value * 3;\n"
                         "}\n"
                         "}  // namespace demo\n"});
  input.files.push_back({"src/core/orphan.hpp",
                         "#pragma once\n"
                         "namespace demo {\n"
                         "int orphaned_scale(int value);\n"
                         "}  // namespace demo\n"});
  input.jobs = 1;
  const std::vector<Finding> live = dead_functions(analyze(input));
  // A header prototype is a self-reference, not a use.
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].file, "src/core/orphan.cpp");
  EXPECT_EQ(live[0].line, 2u);
  EXPECT_NE(live[0].message.find("'orphaned_scale'"), std::string::npos);
  EXPECT_TRUE(analyze(input).baselined.empty()) << "dead-function is never baselined";

  // One mention anywhere in the tree -- here a test outside src/ -- keeps it
  // alive.
  input.files.push_back({"tests/orphan_test.cpp",
                         "int probe() { return demo::orphaned_scale(2); }\n"});
  EXPECT_TRUE(dead_functions(analyze(input)).empty());
}

TEST(AnalyzeDeadFunction, MembersMainNonSrcAndWaivedDefinitionsAreNotFlagged) {
  Input input;
  input.files.push_back({"src/core/shapes.cpp",
                         "namespace demo {\n"
                         "struct Box {\n"
                         "  int inline_member() { return 1; }\n"
                         "};\n"
                         "int Box::out_of_line() { return 2; }\n"
                         "Box::~Box() { }\n"
                         "int waived() {  // upn-analyze-waive(dead-function: kept for a demo)\n"
                         "  return 3;\n"
                         "}\n"
                         "}  // namespace demo\n"
                         "int main() { return 0; }\n"});
  input.files.push_back({"tools/helper.cpp", "int unused_tool_helper() { return 4; }\n"});
  input.files.push_back({"src/core/after_dtor.cpp",
                         "namespace demo {\n"
                         "Box::~Box() { }\n"
                         "template <typename T>\n"
                         "T after_dtor(T value) { return value; }\n"
                         "}  // namespace demo\n"});
  input.jobs = 1;
  const std::vector<Finding> dead = dead_functions(analyze(input));
  // Only the free function that follows an out-of-line destructor is a
  // candidate, and nothing references it.
  ASSERT_EQ(dead.size(), 1u) << analyze(input).render_text();
  EXPECT_EQ(dead[0].file, "src/core/after_dtor.cpp");
  EXPECT_EQ(dead[0].line, 4u);
}

TEST(AnalyzeHotpath, KeyUsesTheQuotedDetailAndBaselineRendersSortedUnique) {
  const Finding f{"src/hot/a.hpp", 12, "hotpath-container",
                  "'deque' (std::deque) used in hot-path module 'hot'"};
  EXPECT_EQ(hotpath_key(f), "src/hot/a.hpp:hotpath-container:deque");

  const Finding g{"src/hot/a.hpp", 40, "hotpath-container",
                  "'deque' (std::deque) used in hot-path module 'hot'"};
  const Finding h{"src/hot/a.hpp", 7, "hotpath-alloc",
                  "'new' allocation inside a loop in hot-path module 'hot'"};
  const std::string rendered = render_hotpath_baseline({f, g, h});
  // Same file+rule+detail dedupes to one line; keys come out sorted.
  const std::string expected_keys =
      "src/hot/a.hpp:hotpath-alloc:new\n"
      "src/hot/a.hpp:hotpath-container:deque\n";
  EXPECT_NE(rendered.find(expected_keys), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find('#'), 0u) << "baseline starts with its comment header";
}

TEST(AnalyzeHotpath, DirectiveMustNameADeclaredModule) {
  Input input;
  input.layers_path = "docs/ARCHITECTURE.layers";
  input.layers_text = "layer util\nhotpath ghost\n";
  input.files.push_back({"src/util/a.hpp", "#pragma once\nnamespace upn {}\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_TRUE(has_rule(report.findings, "layering-undeclared-module"))
      << report.render_text();
}

TEST(AnalyzeHotpath, DirectiveParsingRejectsMalformedAndDuplicateLines) {
  const LayerSpec ok = parse_layers("L", "layer util\nhotpath util\n");
  EXPECT_TRUE(ok.errors.empty());
  EXPECT_EQ(ok.hotpaths.count("util"), 1u);

  EXPECT_TRUE(has_rule(parse_layers("L", "hotpath \n").errors, "layers-malformed"));
  EXPECT_TRUE(
      has_rule(parse_layers("L", "hotpath one two\n").errors, "layers-malformed"));
  EXPECT_TRUE(has_rule(parse_layers("L", "layer util\nhotpath util\nhotpath util\n").errors,
                       "layers-malformed"));
}

// ---- fixture trees --------------------------------------------------------

TEST(AnalyzeFixtures, CleanTreeIsClean) {
  const Report report = analyze_tree(UPN_ANALYZE_CLEAN_DIR);
  EXPECT_TRUE(report.findings.empty()) << report.render_text();
  EXPECT_GE(report.files, 3u);
}

TEST(AnalyzeFixtures, BadTreeFiresEveryPassFamily) {
  const Report report = analyze_tree(UPN_ANALYZE_BAD_DIR);
  for (const char* rule :
       {"layering-declared-cycle", "layering-undeclared-edge", "layering-stale-waiver",
        "layering-undeclared-module", "include-cycle", "contract-coverage",
        "rng-by-value", "narrowing-cast", "no-raw-thread", "thread-detach",
        "unused-include", "pragma-once", "par-shared-mutation", "par-shared-rng",
        "taint-unordered-order", "taint-timing", "taint-thread-id", "taint-address",
        "hotpath-container", "hotpath-alloc", "hotpath-virtual",
        "hotpath-by-value-param", "baseline-stale-entry", "dead-function"}) {
    EXPECT_TRUE(has_rule(report.findings, rule)) << rule;
  }
}

// ---- SARIF ----------------------------------------------------------------

TEST(AnalyzeSarif, EmittedReportValidatesStructurally) {
  const Report report = analyze_tree(UPN_ANALYZE_BAD_DIR);
  const std::string sarif = write_sarif(report.findings);
  EXPECT_EQ(validate_sarif(sarif), "");
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("upn_analyze"), std::string::npos);
}

TEST(AnalyzeSarif, EmptyFindingsStillValidate) {
  const std::string sarif = write_sarif({});
  EXPECT_EQ(validate_sarif(sarif), "");
}

TEST(AnalyzeSarif, ValidatorRejectsStructuralDamage) {
  const std::string good = write_sarif({});
  EXPECT_NE(validate_sarif("{}"), "");
  EXPECT_NE(validate_sarif("not json at all"), "");
  std::string wrong_version = good;
  const std::size_t at = wrong_version.find("\"version\": \"2.1.0\"");
  ASSERT_NE(at, std::string::npos);
  wrong_version.replace(at, 18, "\"version\": \"9.9.9\"");
  EXPECT_NE(validate_sarif(wrong_version), "");
}

TEST(AnalyzeSarif, FileScopedFindingsClampToLineOne) {
  const std::string sarif =
      write_sarif({Finding{"src/core/a.hpp", 0, "include-cycle", "cycle"}});
  EXPECT_EQ(validate_sarif(sarif), "");
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

// ---- determinism across thread counts -------------------------------------

TEST(AnalyzeDeterminism, ReportsAreByteIdenticalAtJobs127) {
  const Report one = analyze_tree(UPN_ANALYZE_BAD_DIR, 1);
  const Report two = analyze_tree(UPN_ANALYZE_BAD_DIR, 2);
  const Report seven = analyze_tree(UPN_ANALYZE_BAD_DIR, 7);
  EXPECT_EQ(one.render_text(), two.render_text());
  EXPECT_EQ(one.render_text(), seven.render_text());
  EXPECT_EQ(write_sarif(one.findings), write_sarif(two.findings));
  EXPECT_EQ(write_sarif(one.findings), write_sarif(seven.findings));
}

// ---- catalog --------------------------------------------------------------

TEST(AnalyzeCatalog, SortedUniqueAndCoversEmittedRules) {
  const std::vector<RuleInfo>& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string{catalog[i - 1].id}, std::string{catalog[i].id});
  }
  const Report report = analyze_tree(UPN_ANALYZE_BAD_DIR);
  for (const Finding& f : report.findings) {
    const bool known = std::any_of(catalog.begin(), catalog.end(),
                                   [&](const RuleInfo& r) { return f.rule == r.id; });
    EXPECT_TRUE(known) << f.rule;
  }
}

}  // namespace
}  // namespace upn::analyze
