#pragma once
// ACBM — adaptive cost block matching, the paper's contribution (§3.2).
//
// Per block:
//   1. compute Intra_SAD of the reference (current-frame) block;
//   2. run PBM;
//   3. accept the PBM vector if Intra_SAD + SAD_PBM < α + β·Qp²  (T1 — the
//      quantiser will absorb the residual anyway; spending 961 SADs and many
//      MV bits on a low-activity block buys nothing), or if
//      SAD_PBM < γ·Intra_SAD  (T2 — PBM found a near-minimal match for a
//      textured block, cf. the §3.1 characterization);
//   4. otherwise the block is critical: run FSBM and keep the better match.
//
// The class is a drop-in MotionEstimator, so the encoder and every bench
// treat {FSBM, PBM, ACBM, ...} uniformly.

#include <cstdint>
#include <vector>

#include "core/decision.hpp"
#include "core/params.hpp"
#include "me/estimator.hpp"
#include "me/full_search.hpp"
#include "me/pbm.hpp"

namespace acbm::core {

class Acbm final : public me::MotionEstimator {
 public:
  explicit Acbm(AcbmParams params = AcbmParams::paper_defaults());

  me::EstimateResult estimate(const me::BlockContext& ctx) override;

  [[nodiscard]] std::string_view name() const override { return "ACBM"; }

  /// Step 2 runs PBM, which reads the current field.
  [[nodiscard]] bool reads_current_field() const override { return true; }

  /// Clears statistics and the decision log.
  void reset() override;

  /// Copies parameters and the logging flag; statistics and the decision
  /// log start empty (the clone() contract).
  [[nodiscard]] std::unique_ptr<me::MotionEstimator> clone() const override;

  /// Adds `worker`'s AcbmStats into this instance's, appends its decision
  /// log, and clears both from the worker. The merged log is kept sorted in
  /// (frame, raster) order so it is byte-identical to a serial run's log no
  /// matter how blocks were partitioned across workers. `worker` must be an
  /// Acbm (it is checked); anything else throws std::invalid_argument.
  void merge_stats(me::MotionEstimator& worker) override;

  [[nodiscard]] const AcbmParams& params() const { return params_; }
  void set_params(AcbmParams params) { params_ = params; }

  [[nodiscard]] const AcbmStats& stats() const { return stats_; }

  /// When enabled, every block appends a BlockDecision to decision_log().
  /// Off by default (the log grows by one entry per macroblock).
  void set_record_log(bool on) { record_log_ = on; }
  [[nodiscard]] const std::vector<BlockDecision>& decision_log() const {
    return decision_log_;
  }

 private:
  AcbmParams params_;
  me::Pbm pbm_;
  me::FullSearch full_search_;
  AcbmStats stats_;
  bool record_log_ = false;
  std::vector<BlockDecision> decision_log_;
};

}  // namespace acbm::core
