#include "perfbench/staged_pipeline.hpp"

#include <cmath>

#include "src/core/embedding.hpp"
#include "src/obs/span.hpp"
#include "src/pebble/fragment.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"

namespace upn::perfbench {

PipelineInputs::PipelineInputs(const PipelineConfig& config) : config_(config) {
  // Same Rng, same draw order as run_paper_pipeline().
  Rng rng{config.seed};
  {
    const obs::ScopedSpan span{"bench.topology.build"};
    host_ = make_butterfly(config.butterfly_dimension);
    m_ = host_.num_nodes();
    a_ = g0_block_parameter(m_);
    n_ = g0_round_guest_size(config.guest_size_hint, a_);
    g0_ = make_g0(n_, m_, rng);
    guest_ = make_random_regular_with_subgraph(g0_.graph, kGuestDegree, rng);
  }
  {
    const obs::ScopedSpan span{"bench.core.embed"};
    sim_ = std::make_unique<UniversalSimulator>(guest_, host_,
                                                make_random_embedding(n_, m_, rng));
  }
  options_.emit_protocol = true;
  options_.seed = rng();
}

void PipelineInputs::fill_lazy_tables() {
  const obs::ScopedSpan span{"bench.setup.lazy_fill"};
  UniversalSimOptions warm = options_;
  warm.emit_protocol = false;
  static_cast<void>(sim_->run(1, warm));
}

PipelineReport run_pipeline_stages(PipelineInputs& inputs, PipelineRunStats* stats) {
  const PipelineConfig& config = inputs.config();
  const Graph& guest = inputs.guest();
  const Graph& host = inputs.host();
  PipelineReport report;
  report.n = inputs.n();
  report.m = inputs.m();
  report.a = inputs.a();
  report.expander_beta = inputs.g0().expander.beta;

  UniversalSimResult result;
  const std::uint64_t start_ns = obs::now_ns();
  {
    const obs::ScopedSpan span{"bench.sim.run"};
    result = inputs.simulator().run(config.guest_steps, inputs.options());
  }
  const std::uint64_t sim_run_ns = obs::now_ns() - start_ns;
  report.slowdown = result.slowdown;
  report.inefficiency = result.inefficiency;
  report.load_bound = static_cast<double>(report.n) / report.m;
  report.paper_shape = report.load_bound * std::log2(static_cast<double>(report.m));
  report.configs_verified = result.configs_match;
  if (stats != nullptr) {
    stats->host_steps = result.host_steps;
    stats->comm_steps = result.comm_steps;
    stats->packets_routed = result.packets_routed;
    stats->sim_run_s = static_cast<double>(sim_run_ns) * 1e-9;
  }

  {
    const obs::ScopedSpan span{"bench.pebble.validate"};
    const ValidationResult validation = validate_protocol(*result.protocol, guest, host);
    report.protocol_valid = validation.ok;
    report.protocol_error = validation.error;
  }
  report.protocol_ops = result.protocol->num_ops();

  std::unique_ptr<ProtocolMetrics> metrics;
  {
    const obs::ScopedSpan span{"bench.lowerbound.metrics"};
    metrics = std::make_unique<ProtocolMetrics>(*result.protocol);
  }
  {
    const obs::ScopedSpan span{"bench.lowerbound.lemma312"};
    const Lemma312Report lemma = verify_lemma312(*metrics, inputs.g0());
    report.z_size = static_cast<std::uint32_t>(lemma.z_set.size());
    report.lemma312_holds = lemma.z_large_enough && !lemma.choices.empty();
    for (const Lemma312Choice& choice : lemma.choices) {
      report.lemma312_holds = report.lemma312_holds && choice.roots_ok && choice.trees_ok;
    }
  }
  {
    const obs::ScopedSpan span{"bench.lowerbound.expansion"};
    const ExpansionReport expansion =
        analyze_expansion(*metrics, inputs.g0().expander.alpha, inputs.g0().expander.beta);
    report.expansion_caps_hold = expansion.all_ok;
  }
  {
    const obs::ScopedSpan span{"bench.lowerbound.fragment"};
    const Fragment fragment = extract_fragment(*metrics, config.guest_steps / 2);
    report.fragment_log2_multiplicity = log2_multiplicity_bound(fragment, kGuestDegree);
    report.fragment_sum_b = fragment.total_b_size();
  }
  {
    const obs::ScopedSpan span{"bench.lowerbound.verdict"};
    const TradeoffVerdict verdict = check_network(report.n, report.m, report.slowdown);
    report.ruled_out_by_counting = verdict.ruled_out_paper_constants;
  }
  return report;
}

}  // namespace upn::perfbench
