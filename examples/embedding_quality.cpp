// Example: embedding quality across host families.
//
// The paper's Section 1 contrasts static embeddings with dynamic
// simulations.  This example measures the classic embedding quantities --
// load, dilation, congestion -- for a guest mapped onto several hosts, plus
// [15]'s spreading exponents that decide whether the guest is "mesh-like"
// (polynomial spreading, cheap to host) or "expander-like" (exponential,
// the hard case G_0 plants).
//
//   ./embedding_quality [--n 256] [--seed 3]
#include <cstdlib>
#include <iostream>

#include "src/core/embedding.hpp"
#include "src/core/embedding_metrics.hpp"
#include "src/lowerbound/spreading.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/debruijn.hpp"
#include "src/topology/expander.hpp"
#include "src/topology/mesh_of_trees.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace upn;
  try {
    const Cli cli{argc, argv};
    const auto n = cli.get_u32("n", 256);
    Rng rng{cli.get_u64("seed", 3)};

    const Graph guest = make_random_regular(n, kGuestDegree, rng);
    std::cout << "guest: " << guest.name() << "\n\n";

    Table table{{"host", "m", "load", "dilation", "avg dil", "congestion",
                 "slowdown LB"}};
    std::vector<Graph> hosts;
    hosts.push_back(make_butterfly(3));
    hosts.push_back(make_debruijn(5));
    hosts.push_back(make_torus(6, 6));
    hosts.push_back(make_mesh_of_trees(4));
    for (const Graph& host : hosts) {
      const auto f = make_random_embedding(n, host.num_nodes(), rng);
      const EmbeddingMetrics metrics = analyze_embedding(guest, host, f);
      table.add_row({host.name(), std::uint64_t{host.num_nodes()},
                     std::uint64_t{metrics.load}, std::uint64_t{metrics.dilation},
                     metrics.avg_dilation, std::uint64_t{metrics.congestion},
                     std::uint64_t{metrics.slowdown_lower_bound()}});
    }
    table.print(std::cout);

    std::cout << "\nSpreading exponents ([15]): is the guest mesh-like or "
                 "expander-like?\n";
    Table spread{{"graph", "poly exponent", "exp rate (bits/step)",
                  "polynomial (C=8, e=2)?"}};
    const Graph torus = make_torus(16, 16);
    Rng srng{9};
    for (const Graph* g : {&torus, &guest}) {
      const SpreadingProfile profile = measure_spreading(*g, 8, 8, srng);
      spread.add_row({g->name(), profile.poly_exponent, profile.exp_rate,
                      std::string{has_polynomial_spreading(profile, 8.0, 2.0) ? "yes" : "no"}});
    }
    spread.print(std::cout);
    std::cout << "\n16-regular random guests spread exponentially -- the reason the\n"
                 "lower bound's G_0 plants an expander (Definition 3.9).\n";
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
