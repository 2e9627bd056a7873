// Quickstart: simulate an arbitrary constant-degree guest network on a
// butterfly host (Theorem 2.1) and print the measured slowdown next to the
// paper's bounds.
//
//   ./quickstart [--n 256] [--steps 8] [--seed 1]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace upn;
  try {
    const Cli cli{argc, argv};
    const auto n = cli.get_u32("n", 256);
    const auto steps = cli.get_u32("steps", 8);
    Rng rng{cli.get_u64("seed", 1)};
    if (!cli.unused().empty()) {
      std::cerr << "unknown flag --" << cli.unused().front() << "\n";
      return EXIT_FAILURE;
    }

    // The guest: a random 16-regular network, i.e. a member of the paper's
    // class U'.
    const Graph guest = make_random_regular(n, kGuestDegree, rng);

    // The host: the largest butterfly with at most n processors (m <= n:
    // the regime where Theorem 2.1 is optimal by Theorem 3.1).
    const std::uint32_t d = butterfly_dimension_for_size(n);
    if (d == 0) {
      std::cerr << "n too small for a butterfly host; use --n >= 4\n";
      return EXIT_FAILURE;
    }
    const Graph host = make_butterfly(d);
    const std::uint32_t m = host.num_nodes();

    std::cout << "guest: " << guest.name() << "   host: " << host.name() << " (m=" << m
              << ")\n";
    UniversalSimulator sim{guest, host, make_random_embedding(n, m, rng)};
    UniversalSimOptions options;
    options.seed = rng();
    const UniversalSimResult result = sim.run(steps, options);

    Table table{{"quantity", "value"}};
    table.add_row({std::string{"guest steps T"}, std::uint64_t{result.guest_steps}});
    table.add_row({std::string{"host steps T'"}, std::uint64_t{result.host_steps}});
    table.add_row({std::string{"slowdown s = T'/T"}, result.slowdown});
    table.add_row({std::string{"inefficiency k = s m/n"}, result.inefficiency});
    table.add_row({std::string{"load bound n/m"}, static_cast<double>(n) / m});
    table.add_row({std::string{"paper bound (n/m) log2 m"},
                   static_cast<double>(n) / m * std::log2(static_cast<double>(m))});
    table.add_row({std::string{"configurations verified"},
                   std::string{result.configs_match ? "yes" : "NO (BUG)"}});
    table.print(std::cout);
    return result.configs_match ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
