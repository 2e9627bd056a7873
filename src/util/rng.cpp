#include "src/util/rng.hpp"

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 upn_uint128;
#endif

namespace upn {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // upn-contract-waive(every bound is legal, 0 and 1 give 0; the per-draw hot path of every seeded choice)
  if (bound <= 1) return 0;
#ifdef __SIZEOF_INT128__
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = (*this)();
  upn_uint128 m = static_cast<upn_uint128>(x) * static_cast<upn_uint128>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<upn_uint128>(x) * static_cast<upn_uint128>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
#else
  // Portable rejection sampling.
  const std::uint64_t limit = max() - max() % bound;
  std::uint64_t x = (*this)();
  while (x >= limit) x = (*this)();
  return x % bound;
#endif
}

std::vector<std::uint32_t> Rng::permutation(std::uint32_t n) noexcept {
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(perm);
  return perm;
}

}  // namespace upn
