// Figure 1 regeneration: build the dependency tree of a (4a^2)-torus block
// of Gamma_{G_0} (Lemma 3.10) and emit it as ASCII statistics plus Graphviz
// DOT on request.
//
//   ./dependency_tree_viz [--a 2] [--root 0] [--dot]
#include <cstdlib>
#include <iostream>

#include "src/lowerbound/dependency_tree.hpp"
#include "src/topology/multitorus.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace upn;
  try {
    const Cli cli{argc, argv};
    const auto a = cli.get_u32("a", 2);
    const auto root_index = cli.get_u32("root", 0);
    const bool dot = cli.has("dot");

    const std::uint32_t block_side = 2 * a;
    const std::uint32_t n = 4 * block_side * block_side;  // 2x2 blocks
    const MultitorusLayout layout = multitorus_layout(n, block_side);
    const Graph mt = make_multitorus(n, block_side);
    const auto block = layout.block_nodes(0);
    if (root_index >= block.size()) {
      std::cerr << "--root must be < " << block.size() << "\n";
      return EXIT_FAILURE;
    }
    const DependencyTree tree = build_block_dependency_tree(layout, 0, block[root_index]);
    const bool valid = validate_dependency_tree(tree, mt, block);

    if (dot) {
      std::cout << dependency_tree_to_dot(tree);
      return valid ? EXIT_SUCCESS : EXIT_FAILURE;
    }

    Table table{{"quantity", "value"}};
    table.add_row({std::string{"a (block half-side)"}, std::uint64_t{a}});
    table.add_row({std::string{"block size 4a^2"}, std::uint64_t{block.size()}});
    table.add_row({std::string{"root vertex P_i"}, std::uint64_t{tree.root_vertex()}});
    table.add_row({std::string{"tree size"}, std::uint64_t{tree.size()}});
    table.add_row({std::string{"size budget 48a^2"}, std::uint64_t{48 * a * a}});
    table.add_row({std::string{"size / a^2 (measured constant)"},
                   static_cast<double>(tree.size()) / (a * a)});
    table.add_row({std::string{"depth (paper: ~a, measured ~2a+)"},
                   std::uint64_t{tree.depth}});
    table.add_row({std::string{"leaves (= block nodes)"}, std::uint64_t{tree.leaves.size()}});
    table.add_row({std::string{"binary/Gamma-edge/leaf-cover valid"},
                   std::string{valid ? "yes" : "NO (BUG)"}});
    table.print(std::cout);
    std::cout << "\nRe-run with --dot for the Graphviz rendering of Figure 1.\n";
    return valid ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
