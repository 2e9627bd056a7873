#include "src/pebble/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace upn {

ProtocolMetrics::ProtocolMetrics(const Protocol& protocol)
    : n_(protocol.num_guests()),
      m_(protocol.num_hosts()),
      T_(protocol.guest_steps()),
      host_steps_(protocol.host_steps()),
      words_((protocol.num_hosts() + 63) / 64) {
  const std::size_t keys = static_cast<std::size_t>(T_) * n_;
  holders_.assign(keys * words_, 0);
  generators_.assign(keys * words_, 0);
  first_gen_.assign(keys, kNeverGenerated);

  // Protocol::add keeps proc < m, node < n and time <= T, so every key and
  // word below is in range.
  for (std::uint32_t step = 0; step < protocol.host_steps(); ++step) {
    for (const Op& op : protocol.steps()[step]) {
      const PebbleType& p = op.pebble;
      if (op.kind == OpKind::kSend) continue;  // sender already holds it
      if (p.time < 1) {
        if (op.kind == OpKind::kGenerate) {
          throw std::out_of_range{"ProtocolMetrics: generated pebble time out of range"};
        }
        continue;  // an initial pebble: everyone holds it already
      }
      const std::size_t key = index(p.node, p.time - 1);
      const std::size_t word = key * words_ + op.proc / 64;
      const std::uint64_t bit = std::uint64_t{1} << (op.proc % 64);
      holders_[word] |= bit;
      ++placements_;
      if (op.kind == OpKind::kGenerate) {
        generators_[word] |= bit;
        first_gen_[key] = std::min(first_gen_[key], step + 1);
      }
    }
  }
  // q_{i,t} once, here: weight() must stay a single load, since without
  // -mpopcnt std::popcount is a software sequence.
  weight_.resize(keys);
  for (std::size_t key = 0; key < keys; ++key) weight_[key] = cardinality(holders_, key);
}

std::uint32_t ProtocolMetrics::cardinality(const std::vector<std::uint64_t>& sets,
                                            std::size_t key) const {
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < words_; ++w) {
    count += static_cast<std::uint32_t>(std::popcount(sets[key * words_ + w]));
  }
  return count;
}

std::vector<std::uint32_t> ProtocolMetrics::members(const std::vector<std::uint64_t>& sets,
                                                    std::size_t key, std::uint32_t count) const {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::uint32_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = sets[key * words_ + w]; bits != 0; bits &= bits - 1) {
      out.push_back(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
  return out;
}

std::vector<std::uint32_t> ProtocolMetrics::representatives(NodeId i, std::uint32_t t) const {
  if (t == 0) {
    std::vector<std::uint32_t> all(m_);
    for (std::uint32_t q = 0; q < m_; ++q) all[q] = q;
    return all;
  }
  if (i >= n_ || t > T_) throw std::out_of_range{"representatives: out of range"};
  const std::size_t key = index(i, t - 1);
  return members(holders_, key, weight_[key]);
}

std::uint32_t ProtocolMetrics::weight(NodeId i, std::uint32_t t) const {
  if (t == 0) return m_;
  if (i >= n_ || t > T_) throw std::out_of_range{"weight: out of range"};
  return weight_[index(i, t - 1)];
}

std::vector<std::uint32_t> ProtocolMetrics::generators(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t >= T_) throw std::out_of_range{"generators: out of range"};
  const std::size_t key = index(i, t);
  return members(generators_, key, cardinality(generators_, key));
}

std::uint32_t ProtocolMetrics::first_generation_step(NodeId i, std::uint32_t t) const {
  if (t == 0) return 0;
  if (i >= n_ || t > T_) throw std::out_of_range{"first_generation_step: out of range"};
  return first_gen_[index(i, t - 1)];
}

std::uint32_t ProtocolMetrics::generating_count(std::uint32_t t, std::uint32_t tau) const {
  std::uint32_t count = 0;
  for (NodeId i = 0; i < n_; ++i) {
    const std::uint32_t first = first_generation_step(i, t);
    if (first != kNeverGenerated && first <= tau) ++count;
  }
  return count;
}

std::uint64_t ProtocolMetrics::total_weight_at(std::uint32_t t) const {
  std::uint64_t total = 0;
  for (NodeId i = 0; i < n_; ++i) total += weight(i, t);
  return total;
}

}  // namespace upn
