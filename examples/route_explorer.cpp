// Route explorer: measure route_M(h) for any host / policy / port model
// from the command line (the ROUTE experiment as a playground).
//
//   ./route_explorer --host butterfly:4 --h 4 --policy greedy --instances 3
//   ./route_explorer --host torus:16x16 --h 2 --policy valiant --multiport
//   ./route_explorer --host debruijn:6 --h 1 --offline-paths
#include <cstdlib>
#include <iostream>

#include "src/routing/path_schedule.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/parse.hpp"
#include "src/topology/properties.hpp"
#include "src/util/cli.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace upn;
  try {
    const Cli cli{argc, argv};
    const Graph host = make_topology(cli.get("host", "butterfly:4"));
    const auto h = cli.get_u32("h", 2);
    const auto instances = cli.get_u32("instances", 3);
    const std::string policy_name = cli.get("policy", "greedy");
    const PortModel port_model =
        cli.has("multiport") ? PortModel::kMultiPort : PortModel::kSinglePort;
    Rng rng{cli.get_u64("seed", 1)};

    std::cout << "host: " << host.name() << "  (m = " << host.num_nodes()
              << ", max degree " << host.max_degree() << ", diameter "
              << sampled_diameter(host, 8) << "+)\n";

    if (cli.has("offline-paths")) {
      // Off-line path scheduling (known-in-advance relations).
      std::vector<double> makespans;
      std::uint32_t worst_c = 0, worst_d = 0;
      for (std::uint32_t i = 0; i < instances; ++i) {
        const HhProblem problem = random_h_relation(host.num_nodes(), h, rng);
        const PathSchedule schedule = schedule_paths(host, problem);
        if (!validate_path_schedule(host, problem, schedule)) {
          std::cerr << "schedule failed validation!\n";
          return EXIT_FAILURE;
        }
        makespans.push_back(schedule.makespan);
        worst_c = std::max(worst_c, schedule.congestion);
        worst_d = std::max(worst_d, schedule.dilation);
      }
      const Summary s = summarize(makespans);
      Table table{{"quantity", "value"}};
      table.add_row({std::string{"h"}, std::uint64_t{h}});
      table.add_row({std::string{"makespan mean"}, s.mean});
      table.add_row({std::string{"makespan worst"}, s.max});
      table.add_row({std::string{"congestion C (worst)"}, std::uint64_t{worst_c}});
      table.add_row({std::string{"dilation D (worst)"}, std::uint64_t{worst_d}});
      table.add_row({std::string{"makespan / (C+D)"},
                     s.max / static_cast<double>(worst_c + worst_d)});
      table.print(std::cout);
      return EXIT_SUCCESS;
    }

    GreedyPolicy greedy{host};
    ValiantPolicy valiant{host, rng()};
    RoutingPolicy* policy = nullptr;
    if (policy_name == "greedy") {
      policy = &greedy;
    } else if (policy_name == "valiant") {
      policy = &valiant;
    } else {
      std::cerr << "unknown --policy '" << policy_name << "' (greedy | valiant)\n";
      return EXIT_FAILURE;
    }
    const RouteTimeEstimate estimate =
        measure_route_time(host, h, *policy, port_model, instances, rng);
    Table table{{"quantity", "value"}};
    table.add_row({std::string{"policy"}, policy->name()});
    table.add_row({std::string{"port model"},
                   std::string{port_model == PortModel::kMultiPort ? "multiport"
                                                                   : "single-port"}});
    table.add_row({std::string{"h"}, std::uint64_t{h}});
    table.add_row({std::string{"route(h) worst steps"}, std::uint64_t{estimate.worst_steps}});
    table.add_row({std::string{"route(h) mean steps"}, estimate.mean_steps});
    table.add_row({std::string{"steps / h"},
                   static_cast<double>(estimate.worst_steps) / h});
    table.print(std::cout);
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << upn::topology_spec_help() << "\n";
    return EXIT_FAILURE;
  }
}
