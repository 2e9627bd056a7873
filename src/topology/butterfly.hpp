// Butterfly networks.
//
// The d-dimensional (ordinary/unwrapped) butterfly has (d+1) * 2^d nodes
// (level, row) with level in [0, d] and row in [0, 2^d); its edges are the
// "straight" edges ((l, r), (l+1, r)) and the "cross" edges
// ((l, r), (l+1, r XOR 2^l)).  The wrapped butterfly identifies levels by
// connecting level d back to level 0 and has d * 2^d nodes.
//
// The butterfly is the paper's canonical small universal host: Theorem 2.1
// plus Waksman off-line routing makes a size-m butterfly n-universal with
// slowdown O((n/m) log m) for m <= n, which Section 3 proves optimal.
#pragma once

#include <cstdint>

#include "src/topology/graph.hpp"

namespace upn {

/// Coordinate bookkeeping for butterfly node ids (row-major within a level).
struct ButterflyLayout {
  std::uint32_t dimension = 0;  ///< d
  bool wrapped = false;

  [[nodiscard]] constexpr std::uint32_t rows() const noexcept { return 1u << dimension; }
  [[nodiscard]] constexpr std::uint32_t levels() const noexcept {
    return wrapped ? dimension : dimension + 1;
  }
  [[nodiscard]] constexpr std::uint32_t num_nodes() const noexcept {
    return levels() * rows();
  }
  [[nodiscard]] constexpr NodeId id(std::uint32_t level, std::uint32_t row) const noexcept {
    return level * rows() + row;
  }
  [[nodiscard]] constexpr std::uint32_t level_of(NodeId v) const noexcept {
    return v / rows();
  }
  [[nodiscard]] constexpr std::uint32_t row_of(NodeId v) const noexcept { return v % rows(); }
};

/// The d-dimensional unwrapped butterfly ((d+1) 2^d nodes, degree <= 4).
[[nodiscard]] Graph make_butterfly(std::uint32_t dimension);

/// The d-dimensional wrapped butterfly (d 2^d nodes, degree 4 for d >= 3).
[[nodiscard]] Graph make_wrapped_butterfly(std::uint32_t dimension);

/// Largest dimension d such that the unwrapped butterfly's (d+1) 2^d nodes
/// are at most max_nodes; returns 0 if even d = 1 (4 nodes) does not fit.
[[nodiscard]] std::uint32_t butterfly_dimension_for_size(std::uint32_t max_nodes);

}  // namespace upn
