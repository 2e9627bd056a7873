#include "src/core/embedding.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/util/contracts.hpp"

namespace upn {

std::vector<NodeId> make_block_embedding(std::uint32_t n, std::uint32_t m) {
  if (m == 0) throw std::invalid_argument{"make_block_embedding: m must be positive"};
  std::vector<NodeId> embedding(n);
  for (std::uint32_t u = 0; u < n; ++u) embedding[u] = u % m;
  UPN_ENSURE(n == 0 || embedding_load(embedding, m) <= (n + m - 1) / m,
             "block embedding must be balanced (load <= ceil(n/m))");
  return embedding;
}

std::vector<NodeId> make_random_embedding(std::uint32_t n, std::uint32_t m, Rng& rng) {
  std::vector<NodeId> embedding = make_block_embedding(n, m);
  rng.shuffle(embedding);
  UPN_ENSURE(n == 0 || embedding_load(embedding, m) <= (n + m - 1) / m,
             "shuffling must preserve the balanced load bound");
  return embedding;
}

void validate_embedding(const std::vector<NodeId>& embedding, std::uint32_t n, std::uint32_t m,
                        const char* who) {
  // upn-contract-waive(validates caller input; every violation throws std::invalid_argument)
  if (embedding.size() != n) {
    throw std::invalid_argument{std::string{who} + ": embedding size != guest size"};
  }
  for (const NodeId q : embedding) {
    if (q >= m) throw std::invalid_argument{std::string{who} + ": embedding target out of range"};
  }
}

std::vector<std::vector<NodeId>> invert_embedding(const std::vector<NodeId>& embedding,
                                                  std::uint32_t m) {
  std::vector<std::vector<NodeId>> guests_of(m);
  for (std::uint32_t u = 0; u < embedding.size(); ++u) {
    if (embedding[u] >= m) throw std::out_of_range{"invert_embedding: host id out of range"};
    guests_of[embedding[u]].push_back(u);
  }
  std::size_t total = 0;
  for (const auto& bucket : guests_of) total += bucket.size();
  UPN_ENSURE(total == embedding.size(), "inversion must partition the guest set");
  return guests_of;
}

std::uint32_t embedding_load(const std::vector<NodeId>& embedding, std::uint32_t m) {
  UPN_REQUIRE(m > 0 || embedding.empty(), "embedding_load: m == 0 only for empty embeddings");
  std::vector<std::uint32_t> load(m, 0);
  std::uint32_t worst = 0;
  for (const NodeId q : embedding) {
    if (q >= m) throw std::out_of_range{"embedding_load: host id out of range"};
    worst = std::max(worst, ++load[q]);
  }
  return worst;
}

}  // namespace upn
