// The pre-rewrite ProtocolMetrics, preserved as the differential-testing
// oracle for the bitset version in src/pebble/metrics.cpp.
//
// Here every pebble key owns two small std::vectors (holders and
// generators) that are pushed per op, then sorted and deduplicated.  It is
// deliberately NOT part of the src/ library and must never be "optimized":
// its value is that it computes Q_S(i, t), Q'_S(i, t) and q_{i,t} the slow,
// obviously-correct way.  tests/metrics_differential_test.cpp asserts equal
// answers from both, for every (i, t), on protocols from every emitter.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pebble/metrics.hpp"
#include "src/pebble/protocol.hpp"

namespace upn::testing {

class ReferenceMetrics {
 public:
  /// Replays the protocol once and indexes all sets.  The protocol is
  /// assumed valid (run validate_protocol first).
  explicit ReferenceMetrics(const Protocol& protocol);

  [[nodiscard]] std::uint32_t num_guests() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_hosts() const noexcept { return m_; }
  [[nodiscard]] std::uint32_t guest_steps() const noexcept { return T_; }
  [[nodiscard]] std::uint32_t host_steps() const noexcept { return host_steps_; }

  /// k = T' m / (T n), Section 3.1.
  [[nodiscard]] double inefficiency() const noexcept {
    return (T_ == 0 || n_ == 0)
               ? 0.0
               : static_cast<double>(host_steps_) * m_ /
                     (static_cast<double>(T_) * n_);
  }

  /// Q_S(i, t): sorted processor ids holding (P_i, t) at the end.  For t = 0
  /// this is all processors (initial pebbles) and is returned as such.
  [[nodiscard]] std::vector<std::uint32_t> representatives(NodeId i, std::uint32_t t) const;

  /// q_{i,t} = |Q_S(i, t)|.
  [[nodiscard]] std::uint32_t weight(NodeId i, std::uint32_t t) const;

  /// Q'_S(i, t): sorted processors that generate (P_i, t+1) at some step.
  [[nodiscard]] std::vector<std::uint32_t> generators(NodeId i, std::uint32_t t) const;

  /// Earliest host step (1-based count of completed steps) after which a
  /// generated pebble (P_i, t) exists; kNeverGenerated if none.  For t = 0
  /// returns 0 (initial pebbles exist from the start).
  [[nodiscard]] std::uint32_t first_generation_step(NodeId i, std::uint32_t t) const;

  /// |E_t(tau)|, Definition 3.16.
  [[nodiscard]] std::uint32_t generating_count(std::uint32_t t, std::uint32_t tau) const;

  /// Sum over all i of q_{i,t}.
  [[nodiscard]] std::uint64_t total_weight_at(std::uint32_t t) const;

  /// Total pebbles placed (generated + received + initial are excluded):
  /// bounded by T' * m in the paper's counting.
  [[nodiscard]] std::uint64_t total_placements() const noexcept { return placements_; }

 private:
  [[nodiscard]] std::size_t index(NodeId i, std::uint32_t t) const noexcept {
    return static_cast<std::size_t>(t) * n_ + i;
  }

  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t T_;
  std::uint32_t host_steps_ = 0;
  std::uint64_t placements_ = 0;
  /// holders_[(t-1)*n + i] for t >= 1: sorted procs holding (P_i, t).
  std::vector<std::vector<std::uint32_t>> holders_;
  /// generators_[(t)*n + i] for t <= T-1: procs generating (P_i, t+1).
  std::vector<std::vector<std::uint32_t>> generators_;
  /// first_gen_[(t-1)*n + i]: earliest step count after which (P_i,t) exists.
  std::vector<std::uint32_t> first_gen_;
};

}  // namespace upn::testing
