// Static embeddings f: guest processors -> host processors.
//
// Theorem 2.1's proof starts from "a mapping f of the nodes of G to the
// nodes of M such that each node Q of M gets at most ceil(n/m) of the nodes
// of G".  Any balanced f works for the theorem; we provide a deterministic
// block embedding, a random balanced embedding, and bookkeeping helpers.
#pragma once

#include <cstdint>
#include <vector>

#include "src/topology/graph.hpp"
#include "src/util/rng.hpp"

namespace upn {

/// Deterministic block embedding: guest u -> host u % m (load <= ceil(n/m),
/// spread as evenly as possible).
[[nodiscard]] std::vector<NodeId> make_block_embedding(std::uint32_t n, std::uint32_t m);

/// Random balanced embedding: a random permutation of the block embedding's
/// slot multiset, so load stays <= ceil(n/m) but placement is uniform.
[[nodiscard]] std::vector<NodeId> make_random_embedding(std::uint32_t n, std::uint32_t m,
                                                        Rng& rng);

/// The one check every simulator entry point makes before any routing:
/// throws std::invalid_argument (message prefixed by `who`) unless
/// `embedding` has n entries, all below m.
void validate_embedding(const std::vector<NodeId>& embedding, std::uint32_t n, std::uint32_t m,
                        const char* who);

/// guests_of[q] = guest nodes mapped to host q, ascending.
[[nodiscard]] std::vector<std::vector<NodeId>> invert_embedding(
    const std::vector<NodeId>& embedding, std::uint32_t m);

/// max_q |f^{-1}(q)|: the load of the embedding.
[[nodiscard]] std::uint32_t embedding_load(const std::vector<NodeId>& embedding,
                                           std::uint32_t m);

}  // namespace upn
