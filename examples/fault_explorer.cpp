// Fault explorer: generate fault plans, inspect the damage they do to a
// host, and run self-healing universal simulations on the degraded machine.
//
//   # generate a plan (10% of links die at step 0) and assess the damage
//   ./fault_explorer --mode plan --host butterfly:3 --kind link --rate 0.1
//                    --out /tmp/faults.upnf
//   # a rack failure: everything within distance 1 of processor 12
//   ./fault_explorer --mode plan --host mesh:6x6 --kind region --center 12
//                    --radius 1 --out /tmp/faults.upnf
//   # run a guest through the degraded host and validate the protocol
//   ./fault_explorer --mode run --guest random:64:3:7 --host butterfly:3
//                    --in /tmp/faults.upnf --steps 3
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "src/core/fault_tolerant_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/parse.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

using namespace upn;

FaultPlan build_plan(const Cli& cli, const Graph& host) {
  const std::string kind = cli.get("kind", "link");
  const double rate = cli.get_double("rate", 0.1);
  const std::uint64_t seed = cli.get_u64("seed", 0xfa11);
  const auto step = cli.get_u32("step", 0);
  if (kind == "link") return make_uniform_link_faults(host, rate, seed, step);
  if (kind == "node") return make_uniform_node_faults(host, rate, seed, step);
  if (kind == "drop") return make_uniform_drops(host, rate, seed, step);
  if (kind == "region") {
    const auto center = cli.get_u32("center", 0);
    const auto radius = cli.get_u32("radius", 1);
    return make_region_fault(host, center, radius, step, seed);
  }
  throw std::invalid_argument{"unknown --kind '" + kind +
                              "' (link | node | drop | region)"};
}

void print_damage(const Graph& host, const FaultPlan& plan) {
  const DegradationReport report = assess_degradation(host, plan);
  Table table{{"quantity", "value"}};
  table.add_row({std::string{"host processors"}, std::uint64_t{report.original_nodes}});
  table.add_row({std::string{"host links"}, std::uint64_t{report.original_links}});
  table.add_row({std::string{"dead processors"}, std::uint64_t{report.dead_nodes}});
  table.add_row({std::string{"dead links"}, std::uint64_t{report.dead_links}});
  table.add_row({std::string{"drop windows"}, std::uint64_t{plan.drop_windows().size()}});
  table.add_row({std::string{"surviving components"}, std::uint64_t{report.components}});
  table.add_row({std::string{"largest component"}, std::uint64_t{report.largest_component}});
  table.add_row({std::string{"survivor min degree"}, std::uint64_t{report.min_degree}});
  table.add_row({std::string{"survivors connected"},
                 std::string{report.connected ? "yes" : "NO"}});
  table.print(std::cout);
}

int run_plan_mode(const Cli& cli, const Graph& host) {
  const FaultPlan plan = build_plan(cli, host);
  print_damage(host, plan);
  if (cli.has("out")) {
    const std::string out = cli.get("out", "");
    std::ofstream file{out};
    if (!file) {
      std::cerr << "cannot open " << out << " for writing\n";
      return EXIT_FAILURE;
    }
    write_fault_plan(file, plan);
    std::cout << "wrote plan (" << plan.link_faults().size() << " link faults, "
              << plan.node_faults().size() << " node faults, "
              << plan.drop_windows().size() << " drop windows) to " << out << "\n";
  }
  return EXIT_SUCCESS;
}

int run_sim_mode(const Cli& cli, const Graph& host) {
  const std::string guest_spec = cli.get("guest", "random:64:3:7");
  const Graph guest = make_topology(guest_spec);
  FaultPlan plan;
  if (cli.has("in")) {
    const std::string in = cli.get("in", "");
    std::ifstream file{in};
    if (!file) {
      std::cerr << "cannot open " << in << "\n";
      return EXIT_FAILURE;
    }
    plan = read_fault_plan(file);
  } else {
    plan = build_plan(cli, host);
  }
  print_damage(host, plan);

  std::vector<NodeId> embedding;
  for (NodeId u = 0; u < guest.num_nodes(); ++u) {
    embedding.push_back(u % host.num_nodes());
  }
  FaultTolerantSimulator sim{guest, host, plan, embedding};
  FaultSimOptions options;
  options.emit_protocol = true;
  options.seed = cli.get_u64("seed", 0xfa11);
  const auto steps = cli.get_u32("steps", 3);
  const FaultSimResult result = sim.run(steps, options);

  Table table{{"quantity", "value"}};
  table.add_row({std::string{"guest steps T"}, std::uint64_t{result.guest_steps}});
  table.add_row({std::string{"host steps T'"}, std::uint64_t{result.host_steps}});
  table.add_row({std::string{"  routing"}, std::uint64_t{result.comm_steps}});
  table.add_row({std::string{"  computing"}, std::uint64_t{result.compute_steps}});
  table.add_row({std::string{"  healing (replay)"}, std::uint64_t{result.replay_steps}});
  table.add_row({std::string{"fault epochs"}, std::uint64_t{result.fault_epochs}});
  table.add_row({std::string{"re-embedded guests"}, std::uint64_t{result.reembedded_guests}});
  table.add_row({std::string{"packets routed"}, result.packets_routed});
  table.add_row({std::string{"retransmissions"}, result.retransmissions});
  table.add_row({std::string{"reroutes"}, result.reroutes});
  table.add_row({std::string{"slowdown s"}, result.slowdown});
  table.add_row({std::string{"inefficiency k"}, result.inefficiency});
  table.add_row({std::string{"configs match"},
                 std::string{result.configs_match ? "yes" : "NO"}});
  table.print(std::cout);

  if (!result.completed) {
    std::cerr << "simulation FAILED: the surviving host could not carry the guest\n";
    return EXIT_FAILURE;
  }
  const ValidationResult on_original = validate_protocol(*result.protocol, guest, host);
  std::cout << "protocol vs original host: "
            << (on_original.ok ? "LEGAL" : on_original.error) << "\n";
  const Graph survivors = surviving_edges_graph(host, plan);
  const ValidationResult on_survivors = validate_protocol(*result.protocol, guest, survivors);
  std::cout << "protocol vs surviving host: "
            << (on_survivors.ok
                    ? "LEGAL"
                    : "ILLEGAL (faults activated after the hardware was used): " +
                          on_survivors.error)
            << "\n";
  return on_original.ok && result.configs_match ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli{argc, argv};
    const std::string mode = cli.get("mode", "plan");
    const std::string host_spec = cli.get("host", "butterfly:3");
    Graph host;
    try {
      host = make_topology(host_spec);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n" << topology_spec_help() << "\n";
      return EXIT_FAILURE;
    }
    if (mode == "plan") return run_plan_mode(cli, host);
    if (mode == "run") return run_sim_mode(cli, host);
    std::cerr << "unknown --mode '" << mode << "' (plan | run)\n";
    return EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
