// run_paper_pipeline() split at the boundary between set-up and a verified
// run, so the benchmark can time each stage on its own.
//
// PipelineInputs is the construction half: host, G_0, the planted guest, the
// embedding and the simulator, drawn from one Rng in exactly the order
// run_paper_pipeline() draws them.  run_pipeline_stages() is the rest: the
// emitting Theorem 2.1 run, protocol validation, ProtocolMetrics, Lemma 3.12,
// the expansion analysis, the fragment and the Theorem 3.1 verdict.  For the
// same PipelineConfig the report equals run_paper_pipeline() field for field
// (perfbench_test checks this).
#pragma once

#include <cstdint>
#include <memory>

#include "src/core/pipeline.hpp"
#include "src/core/universal_sim.hpp"
#include "src/topology/g0.hpp"
#include "src/topology/graph.hpp"

namespace upn::perfbench {

class PipelineInputs {
 public:
  /// Builds host, G_0, guest, embedding and simulator for `config`.
  explicit PipelineInputs(const PipelineConfig& config);

  PipelineInputs(const PipelineInputs&) = delete;
  PipelineInputs& operator=(const PipelineInputs&) = delete;

  /// Routes one guest step without emission, so the simulator's lazy
  /// distance tables are filled before the first verified run.
  void fill_lazy_tables();

  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Graph& host() const noexcept { return host_; }
  [[nodiscard]] const Graph& guest() const noexcept { return guest_; }
  [[nodiscard]] const G0& g0() const noexcept { return g0_; }
  [[nodiscard]] UniversalSimulator& simulator() noexcept { return *sim_; }
  /// Options of the verified run: emission on, configuration seed drawn
  /// from the pipeline Rng after the embedding.
  [[nodiscard]] const UniversalSimOptions& options() const noexcept { return options_; }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t m() const noexcept { return m_; }
  [[nodiscard]] std::uint32_t a() const noexcept { return a_; }

 private:
  PipelineConfig config_;
  std::uint32_t n_ = 0;
  std::uint32_t m_ = 0;
  std::uint32_t a_ = 0;
  Graph host_;
  G0 g0_;
  Graph guest_;
  std::unique_ptr<UniversalSimulator> sim_;
  UniversalSimOptions options_;
};

/// By-products of one staged run that the report omits.
struct PipelineRunStats {
  std::uint32_t host_steps = 0;  ///< T'
  std::uint32_t comm_steps = 0;
  std::uint64_t packets_routed = 0;
  double sim_run_s = 0.0;        ///< wall time of the emitting simulator run
};

/// The verified-run half of run_paper_pipeline(), one span per stage.
[[nodiscard]] PipelineReport run_pipeline_stages(PipelineInputs& inputs,
                                                 PipelineRunStats* stats = nullptr);

}  // namespace upn::perfbench
