#include "src/core/guest_driver.hpp"

#include <algorithm>
#include <utility>

#include "src/core/embedding.hpp"
#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

std::uint32_t emit_generate_rounds(Protocol* protocol,
                                   const std::vector<std::vector<NodeId>>& lists,
                                   std::uint32_t t) {
  std::uint32_t rounds = 0;
  for (const auto& bucket : lists) {
    rounds = std::max(rounds, static_cast<std::uint32_t>(bucket.size()));
  }
  UPN_REQUIRE(protocol == nullptr || lists.size() <= protocol->num_hosts(),
              "generate rounds need one guest list per host");
  if (protocol == nullptr) return rounds;
  UPN_OBS_SPAN("pebble.emit");
  for (std::uint32_t round = 0; round < rounds; ++round) {
    protocol->begin_step();
    for (std::uint32_t q = 0; q < lists.size(); ++q) {
      if (round < lists[q].size()) {
        protocol->add(Op{OpKind::kGenerate, q, PebbleType{lists[q][round], t}, 0});
      }
    }
  }
  return rounds;
}

GuestDriver::GuestDriver(const Graph& guest, std::uint32_t host_nodes,
                         std::vector<NodeId> embedding, const char* who)
    : guest_(&guest), host_nodes_(host_nodes), who_(who) {
  rebind(std::move(embedding));
}

void GuestDriver::rebind(std::vector<NodeId> embedding) {
  const Graph& guest = *guest_;
  validate_embedding(embedding, guest.num_nodes(), host_nodes_, who_);
  embedding_ = std::move(embedding);
  guests_of_ = invert_embedding(embedding_, host_nodes_);
  load_ = embedding_load(embedding_, host_nodes_);
  // Theorem 2.1's starting point: every host gets at most ceil(n/m) guests,
  // so load * m must cover the guest set.
  UPN_ENSURE(static_cast<std::uint64_t>(load_) * host_nodes_ >= guest.num_nodes(),
             "embedding load must cover all guests");

  // Demand u -> v lands in v's CSR slot for u.  Scanning u ascending visits
  // each v's neighbours in ascending order, which is v's (sorted) CSR order,
  // so a per-receiver cursor finds every slot without a search.
  const std::uint32_t* off = guest.offsets().data();
  const NodeId* adj = guest.adjacency().data();
  std::vector<std::uint32_t> cursor(off, off + guest.num_nodes());
  sender_.clear();
  receiver_.clear();
  slot_.clear();
  for (NodeId u = 0; u < guest.num_nodes(); ++u) {
    for (std::uint32_t s = off[u]; s < off[u + 1]; ++s) {
      const NodeId v = adj[s];
      const std::uint32_t in = cursor[v]++;
      UPN_INVARIANT(adj[in] == u, "guest adjacency must be sorted and symmetric");
      if (embedding_[u] == embedding_[v]) continue;
      sender_.push_back(u);
      receiver_.push_back(v);
      slot_.push_back(in);
    }
  }
}

HhProblem GuestDriver::host_problem(std::uint32_t num_nodes) const {
  UPN_REQUIRE(num_nodes >= host_nodes_, "the relation's hosts must fit the problem");
  HhProblem problem{num_nodes};
  for (std::size_t d = 0; d < sender_.size(); ++d) {
    problem.add(embedding_[sender_[d]], embedding_[receiver_[d]]);
  }
  return problem;
}

std::vector<Packet> GuestDriver::packets() const {
  UPN_REQUIRE(configs_.size() == guest_->num_nodes(), "packets() is for a run's comm step");
  std::vector<Packet> packets(sender_.size());
  for (std::size_t d = 0; d < packets.size(); ++d) {
    Packet& p = packets[d];
    p.src = embedding_[sender_[d]];
    p.dst = embedding_[receiver_[d]];
    p.via = p.dst;
    p.payload = configs_[sender_[d]];
    p.tag = sender_[d];
    p.tag2 = receiver_[d];
  }
  return packets;
}

void GuestDriver::deliver_all() {
  UPN_REQUIRE(configs_.size() == guest_->num_nodes(), "deliver_all() is for a run's comm step");
  for (std::size_t d = 0; d < slot_.size(); ++d) inbox_[slot_[d]] = configs_[sender_[d]];
}

void GuestDriver::emit_route(const RouteResult& routed, std::uint32_t pebble_time) {
  if (protocol_ == nullptr) return;
  UPN_OBS_SPAN("pebble.emit");
  std::size_t cursor = 0;
  for (std::uint32_t step = 0; step < routed.steps; ++step) {
    protocol_->begin_step();
    for (; cursor < routed.transfers.size() && routed.transfers[cursor].step == step;
         ++cursor) {
      const Transfer& tr = routed.transfers[cursor];
      const PebbleType pebble{routed.packets[tr.packet].tag, pebble_time};
      protocol_->add(Op{OpKind::kSend, tr.from, pebble, tr.to});
      if (tr.dropped == 0) protocol_->add(Op{OpKind::kReceive, tr.to, pebble, tr.from});
    }
  }
  UPN_ENSURE(cursor == routed.transfers.size(), "every logged transfer must be emitted");
}

std::uint32_t GuestDriver::generate(const std::vector<std::vector<NodeId>>& lists,
                                    std::uint32_t t) {
  UPN_REQUIRE(lists.size() == host_nodes_, "generate needs one guest list per host");
  const std::uint32_t rounds = emit_generate_rounds(protocol_, lists, t);
  totals_.compute_steps += rounds;
  return rounds;
}

DriverTotals GuestDriver::run(std::uint32_t guest_steps, std::uint64_t seed,
                              [[maybe_unused]] const DriverSpans& spans, Protocol* protocol,
                              const CommStep& comm) {
  const Graph& guest = *guest_;
  const std::uint32_t n = guest.num_nodes();
  const std::uint32_t* off = guest.offsets().data();
  const NodeId* adj = guest.adjacency().data();

  protocol_ = protocol;
  totals_ = DriverTotals{};
  configs_.resize(n);
  next_.resize(n);
  for (NodeId u = 0; u < n; ++u) configs_[u] = initial_config(seed, u);
  // Guests boot knowing their neighbours' start state.
  inbox_.resize(guest.adjacency().size());
  for (std::size_t s = 0; s < inbox_.size(); ++s) inbox_[s] = initial_config(seed, adj[s]);

  std::vector<Config> gathered;
  gathered.reserve(guest.max_degree());
  totals_.completed = true;
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    UPN_OBS_STEP(t);
    {
      UPN_OBS_SPAN(spans.route);
      totals_.completed = comm(t);
    }
    if (!totals_.completed) break;

    UPN_OBS_SPAN(spans.compute);
    for (NodeId v = 0; v < n; ++v) {
      gathered.clear();
      for (std::uint32_t s = off[v]; s < off[v + 1]; ++s) {
        const NodeId w = adj[s];
        gathered.push_back(embedding_[w] == embedding_[v] ? configs_[w] : inbox_[s]);
      }
      next_[v] = next_config(configs_[v], gathered);
    }
    configs_.swap(next_);
    generate(guests_of_, t);
  }
  protocol_ = nullptr;

  // Every router step and every computation round became exactly one
  // pebble-protocol step, so the protocol's T' is the simulated T'.
  totals_.host_steps = totals_.comm_steps + totals_.compute_steps;
  UPN_ENSURE(protocol == nullptr || protocol->host_steps() == totals_.host_steps,
             "emitted protocol must account for every host step");
  totals_.slowdown =
      guest_steps == 0 ? 0.0 : static_cast<double>(totals_.host_steps) / guest_steps;
  totals_.inefficiency = n == 0 ? 0.0 : totals_.slowdown * host_nodes_ / n;

  // ---- End-to-end verification against the direct execution. ----
  UPN_OBS_SPAN(spans.validate);
  if (totals_.completed) {
    totals_.configs_match = run_reference(guest, seed, guest_steps) == configs_;
  }
  configs_ = {};
  next_ = {};
  inbox_ = {};
  return totals_;
}

}  // namespace upn
