// Strict replay validation of simulation protocols against the rules of
// Section 3.1.  A protocol that validates is, by construction, a legal
// simulation in the paper's model -- the universal simulator's output is
// checked here rather than trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/pebble/protocol.hpp"
#include "src/topology/graph.hpp"
#include "src/util/par.hpp"

namespace upn {

struct ValidationResult {
  bool ok = false;
  std::string error;        ///< empty when ok
  std::uint64_t pebbles_generated = 0;
  std::uint64_t pebbles_sent = 0;
  std::uint64_t pebbles_received = 0;

  explicit operator bool() const noexcept { return ok; }
};

/// Replays `protocol` against the guest and host topologies.  Checks, per
/// host step and processor:
///   * at most one operation (Protocol::add enforces this only through a
///     contract, which log mode and UPN_NDEBUG_CONTRACTS let through, so it
///     is checked again here, before the other rules of the step);
///   * GENERATE (P_i, t): 1 <= t <= T and the processor holds (P_i, t-1)
///     and (P_j, t-1) for every guest neighbor j of i;
///   * SEND: the pebble is held and the partner is a host neighbor;
///   * RECEIVE: mirrored by a SEND of the same pebble from the partner in
///     the same step, and the partner is a host neighbor;
///   * termination: every final pebble (P_i, T) was generated somewhere.
///
/// Cost: O(1) expected per SEND and RECEIVE, O(deg) per GENERATE, plus
/// O(m + n) per call.  A RECEIVE finds its SEND through a per-processor
/// stamp naming the processor's op in the current step, not by a scan.
/// Each processor's holdings are a flat open-addressing table of 64-bit
/// holding words keyed by pebble (t-1)*n + i (time-0 pebbles are never
/// stored), so memory is O(m + n + words touched) <= O(m + n + ops) -- never
/// an m*n*T array, whatever the header claims.
[[nodiscard]] ValidationResult validate_protocol(const Protocol& protocol, const Graph& guest,
                                                 const Graph& host);

/// One unit of batch validation: a protocol replayed against its own guest
/// and host topologies (pointers must stay valid for the whole batch call).
struct ValidationJob {
  const Protocol* protocol = nullptr;
  const Graph* guest = nullptr;
  const Graph* host = nullptr;
};

/// Validates every job on the pool, one task per protocol.  Verdicts are
/// collected by job index, so the result vector (ok flags, error strings,
/// pebble counts) is byte-identical to validating the jobs serially in
/// order, for any pool size.
[[nodiscard]] std::vector<ValidationResult> validate_protocols(
    const std::vector<ValidationJob>& jobs, ThreadPool& pool);

}  // namespace upn
