#include "src/pebble/validator.hpp"

#include <bit>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

/// One processor's holdings of non-initial pebbles: an open-addressing map
/// (linear probing, load <= 1/2) from a word index to that word's 64
/// holding bits.  A pebble (P_i, t >= 1) has key (t-1)*n + i, word key >> 6
/// and bit key & 63.  Time-0 pebbles are never stored -- everyone holds
/// them.  An untouched processor owns no slots, so memory is O(words set).
class Holdings {
 public:
  [[nodiscard]] bool test(std::uint64_t key) const noexcept {
    if (slots_.empty()) return false;
    const std::uint64_t tag = (key >> 6) + 1;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = home(tag);; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.tag == tag) return ((slot.bits >> (key & 63)) & 1) != 0;
      if (slot.tag == 0) return false;
    }
  }

  void set(std::uint64_t key) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::uint64_t tag = (key >> 6) + 1;
    Slot& slot = find_or_claim(tag);
    slot.bits |= std::uint64_t{1} << (key & 63);
  }

 private:
  struct Slot {
    std::uint64_t tag = 0;  ///< word index + 1; 0 marks an empty slot
    std::uint64_t bits = 0;
  };

  /// Fibonacci hashing onto the top bits: consecutive words spread out.
  [[nodiscard]] std::size_t home(std::uint64_t tag) const noexcept {
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >>
                                    (65 - std::bit_width(slots_.size())));
  }

  Slot& find_or_claim(std::uint64_t tag) noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = home(tag);; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.tag == tag) return slot;
      if (slot.tag == 0) {
        slot.tag = tag;
        ++used_;
        return slot;
      }
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    used_ = 0;
    for (const Slot& slot : old) {
      if (slot.tag != 0) find_or_claim(slot.tag).bits = slot.bits;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, empty until the first set
  std::size_t used_ = 0;
};

/// Which op a processor performed in the current host step.
struct Stamp {
  std::uint32_t step = 0;   ///< host step + 1 of its latest op; 0 = never acted
  std::uint32_t index = 0;  ///< position of that op within the step
};

std::string describe(const Op& op) {
  const char* kind = op.kind == OpKind::kGenerate ? "generate"
                     : op.kind == OpKind::kSend   ? "send"
                                                  : "receive";
  return std::string{kind} + "(P" + std::to_string(op.pebble.node) + "," +
         std::to_string(op.pebble.time) + ") at proc " + std::to_string(op.proc);
}

}  // namespace

ValidationResult validate_protocol(const Protocol& protocol, const Graph& guest,
                                   const Graph& host) {
  UPN_OBS_SPAN("pebble.validator.replay");
  UPN_OBS_COUNT("pebble.validator.validations", 1);
  ValidationResult result;
  // Every rejection funnels through here so the span/step context lands in
  // the message and the violation counter stays exact.
  auto fail = [&result](std::string why) -> ValidationResult& {
    UPN_OBS_COUNT("pebble.validator.violations", 1);
    result.error = std::move(why) + obs::context_suffix();
    return result;
  };
  if (guest.num_nodes() != protocol.num_guests() || host.num_nodes() != protocol.num_hosts()) {
    return fail("graph sizes do not match protocol header");
  }
  const std::uint32_t T = protocol.guest_steps();
  const std::uint64_t n = protocol.num_guests();

  // Time-0 pebbles are implicitly held by everyone ("at the beginning, each
  // processor of M contains all the initial pebbles").
  std::vector<Holdings> holdings(protocol.num_hosts());
  auto holds = [&](std::uint32_t proc, NodeId node, std::uint32_t time) {
    return time == 0 || holdings[proc].test((time - 1) * n + node);
  };

  std::vector<Stamp> stamps(protocol.num_hosts());
  std::vector<char> final_generated(protocol.num_guests(), 0);

  for (std::uint32_t step = 0; step < protocol.host_steps(); ++step) {
    UPN_OBS_STEP(step);
    const auto& ops = protocol.steps()[step];
    const std::uint32_t stamp = step + 1;
    // Zeroth pass: at most one op per processor.  Protocol::add enforces
    // this only through a contract, which log mode and
    // UPN_NDEBUG_CONTRACTS let through.  It also makes each stamp name the
    // processor's unique op, which the receive match below relies on.
    for (std::uint32_t k = 0; k < ops.size(); ++k) {
      Stamp& s = stamps[ops[k].proc];
      if (s.step == stamp) {
        return fail("step " + std::to_string(step) + ": " + describe(ops[k]) +
                    ": processor already acted this step");
      }
      s = Stamp{stamp, k};
    }
    // First pass: verify sends (content must already be held).
    for (const Op& op : ops) {
      if (op.kind != OpKind::kSend) continue;
      if (!host.has_edge(op.proc, op.partner)) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": partner is not a host neighbor");
      }
      if (!holds(op.proc, op.pebble.node, op.pebble.time)) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": sender does not hold the pebble");
      }
      ++result.pebbles_sent;
    }
    // Second pass: receives and generates.
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kSend:
          break;
        case OpKind::kReceive: {
          // The partner's only op this step must be the mirrored SEND.  A
          // matched SEND passed the first pass's has_edge(partner, proc),
          // and host edges are symmetric, so the edge is looked up only on
          // the way to a rejection, which still names the edge first.
          const Stamp& s = stamps[op.partner];
          const Op* send = s.step == stamp ? &ops[s.index] : nullptr;
          if (send == nullptr || send->kind != OpKind::kSend || send->partner != op.proc ||
              send->pebble != op.pebble) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        (host.has_edge(op.proc, op.partner)
                             ? ": no matching send from partner"
                             : ": partner is not a host neighbor"));
          }
          if (op.pebble.time != 0) {
            holdings[op.proc].set((op.pebble.time - 1) * n + op.pebble.node);
          }
          ++result.pebbles_received;
          break;
        }
        case OpKind::kGenerate: {
          const std::uint32_t t = op.pebble.time;
          if (t == 0 || t > T) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": generated time out of range");
          }
          if (!holds(op.proc, op.pebble.node, t - 1)) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": missing own predecessor");
          }
          for (const NodeId j : guest.neighbors(op.pebble.node)) {
            if (!holds(op.proc, j, t - 1)) {
              return fail("step " + std::to_string(step) + ": " + describe(op) +
                          ": missing neighbor predecessor P" + std::to_string(j));
            }
          }
          holdings[op.proc].set((t - 1) * n + op.pebble.node);
          if (t == T) final_generated[op.pebble.node] = 1;
          ++result.pebbles_generated;
          break;
        }
      }
    }
  }

  // For T = 0 the final pebbles ARE the initial pebbles, present by fiat.
  for (NodeId i = 0; T > 0 && i < protocol.num_guests(); ++i) {
    if (!final_generated[i]) {
      return fail("final pebble (P" + std::to_string(i) + "," + std::to_string(T) +
                  ") was never generated");
    }
  }
  result.ok = true;
  UPN_OBS_COUNT("pebble.validator.sends", result.pebbles_sent);
  UPN_OBS_COUNT("pebble.validator.receives", result.pebbles_received);
  UPN_OBS_COUNT("pebble.validator.generates", result.pebbles_generated);
  return result;
}

std::vector<ValidationResult> validate_protocols(const std::vector<ValidationJob>& jobs,
                                                 ThreadPool& pool) {
  return pool.parallel_map<ValidationResult>(jobs.size(), [&](std::size_t i) {
    const ValidationJob& job = jobs[i];
    const bool complete = job.protocol != nullptr && job.guest != nullptr && job.host != nullptr;
    UPN_REQUIRE(complete, "validate_protocols: null job member");
    if (!complete) {
      // Log-and-continue mode: a failed verdict instead of a null dereference.
      ValidationResult rejected;
      rejected.error = "validate_protocols: null job member";
      return rejected;
    }
    return validate_protocol(*job.protocol, *job.guest, *job.host);
  });
}

}  // namespace upn
