// The whole paper, one command: construction -> simulation -> validation ->
// lemma verification -> trade-off verdict.
//
//   ./full_pipeline [--n 100] [--d 2] [--steps 16] [--seed 1]
#include <cstdlib>
#include <iostream>

#include "src/core/pipeline.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace upn;
  try {
    const Cli cli{argc, argv};
    PipelineConfig config;
    config.guest_size_hint = cli.get_u32("n", 100);
    config.butterfly_dimension = cli.get_u32("d", 2);
    config.guest_steps = cli.get_u32("steps", 16);
    config.seed = cli.get_u64("seed", 1);

    const PipelineReport report = run_paper_pipeline(config);

    std::cout << "=== Optimal Trade-Offs Between Size and Slowdown: full pipeline ===\n\n";
    Table table{{"stage", "result"}};
    auto yesno = [](bool b) { return std::string{b ? "yes" : "NO"}; };
    table.add_row({std::string{"guest n (contains G_0, c=16)"}, std::uint64_t{report.n}});
    table.add_row({std::string{"host m (butterfly)"}, std::uint64_t{report.m}});
    table.add_row({std::string{"G_0 block parameter a"}, std::uint64_t{report.a}});
    table.add_row({std::string{"planted expander beta (certified)"}, report.expander_beta});
    table.add_row({std::string{"measured slowdown s"}, report.slowdown});
    table.add_row({std::string{"load bound n/m"}, report.load_bound});
    table.add_row({std::string{"Thm 2.1 shape (n/m) log2 m"}, report.paper_shape});
    table.add_row({std::string{"inefficiency k = s m/n"}, report.inefficiency});
    table.add_row({std::string{"configurations verified"}, yesno(report.configs_verified)});
    table.add_row({std::string{"pebble protocol ops"}, report.protocol_ops});
    table.add_row({std::string{"protocol valid (Sec 3.1 rules)"},
                   yesno(report.protocol_valid)});
    table.add_row({std::string{"Lemma 3.12 holds (|Z| and bounds)"},
                   yesno(report.lemma312_holds)});
    table.add_row({std::string{"|Z_S| critical times"}, std::uint64_t{report.z_size}});
    table.add_row({std::string{"Prop 3.17 expansion caps hold"},
                   yesno(report.expansion_caps_hold)});
    table.add_row({std::string{"fragment log2 multiplicity (L3.3)"},
                   report.fragment_log2_multiplicity});
    table.add_row({std::string{"fragment sum |B_i|"}, report.fragment_sum_b});
    table.add_row({std::string{"ruled out by Thm 3.1 counting"},
                   yesno(report.ruled_out_by_counting)});
    table.print(std::cout);

    std::cout << "\nall checks pass: " << (report.all_checks_pass() ? "YES" : "NO") << "\n";
    if (!report.protocol_valid) std::cout << "protocol error: " << report.protocol_error << "\n";
    return report.all_checks_pass() ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
