// Verbatim preservation of the pre-rewrite ProtocolMetrics -- see the header
// for why this code must stay the vector-per-key version.
#include "tests/support/reference_metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace upn::testing {

ReferenceMetrics::ReferenceMetrics(const Protocol& protocol)
    : n_(protocol.num_guests()),
      m_(protocol.num_hosts()),
      T_(protocol.guest_steps()),
      host_steps_(protocol.host_steps()) {
  holders_.resize(static_cast<std::size_t>(T_) * n_);
  generators_.resize(static_cast<std::size_t>(T_) * n_);
  first_gen_.assign(static_cast<std::size_t>(T_) * n_, kNeverGenerated);

  for (std::uint32_t step = 0; step < protocol.host_steps(); ++step) {
    for (const Op& op : protocol.steps()[step]) {
      const PebbleType& p = op.pebble;
      switch (op.kind) {
        case OpKind::kSend:
          break;  // sender already holds it
        case OpKind::kReceive:
          if (p.time >= 1) {
            holders_[index(p.node, p.time - 1)].push_back(op.proc);
            ++placements_;
          }
          break;
        case OpKind::kGenerate: {
          if (p.time < 1 || p.time > T_) {
            throw std::out_of_range{"ProtocolMetrics: generated pebble time out of range"};
          }
          holders_[index(p.node, p.time - 1)].push_back(op.proc);
          ++placements_;
          generators_[index(p.node, p.time - 1)].push_back(op.proc);
          auto& first = first_gen_[index(p.node, p.time - 1)];
          first = std::min(first, step + 1);
          break;
        }
      }
    }
  }
  for (auto& list : holders_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  for (auto& list : generators_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

std::vector<std::uint32_t> ReferenceMetrics::representatives(NodeId i, std::uint32_t t) const {
  if (t == 0) {
    std::vector<std::uint32_t> all(m_);
    for (std::uint32_t q = 0; q < m_; ++q) all[q] = q;
    return all;
  }
  if (i >= n_ || t > T_) throw std::out_of_range{"representatives: out of range"};
  return holders_[index(i, t - 1)];
}

std::uint32_t ReferenceMetrics::weight(NodeId i, std::uint32_t t) const {
  if (t == 0) return m_;
  if (i >= n_ || t > T_) throw std::out_of_range{"weight: out of range"};
  return static_cast<std::uint32_t>(holders_[index(i, t - 1)].size());
}

std::vector<std::uint32_t> ReferenceMetrics::generators(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t >= T_) throw std::out_of_range{"generators: out of range"};
  return generators_[index(i, t)];
}

std::uint32_t ReferenceMetrics::first_generation_step(NodeId i, std::uint32_t t) const {
  if (t == 0) return 0;
  if (i >= n_ || t > T_) throw std::out_of_range{"first_generation_step: out of range"};
  return first_gen_[index(i, t - 1)];
}

std::uint32_t ReferenceMetrics::generating_count(std::uint32_t t, std::uint32_t tau) const {
  std::uint32_t count = 0;
  for (NodeId i = 0; i < n_; ++i) {
    const std::uint32_t first = first_generation_step(i, t);
    if (first != kNeverGenerated && first <= tau) ++count;
  }
  return count;
}

std::uint64_t ReferenceMetrics::total_weight_at(std::uint32_t t) const {
  std::uint64_t total = 0;
  for (NodeId i = 0; i < n_; ++i) total += weight(i, t);
  return total;
}

}  // namespace upn::testing
