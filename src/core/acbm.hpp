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

#include <atomic>
#include <cstdint>
#include <mutex>
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

  /// Safe to call concurrently on distinct blocks: each block is decided on
  /// its own, and only the counters and the decision log are shared.
  me::EstimateResult estimate(const me::BlockContext& ctx) const override;

  [[nodiscard]] std::string_view name() const override { return "ACBM"; }

  /// Step 2 runs PBM, which reads the current field.
  [[nodiscard]] bool reads_current_field() const override { return true; }

  /// Clears statistics and the decision log.
  void reset() override;

  [[nodiscard]] const AcbmParams& params() const { return params_; }

  /// Snapshot of the counters. Totals are sums over blocks, so they do not
  /// depend on which thread decided which block.
  [[nodiscard]] AcbmStats stats() const;

  /// When enabled, every block records a BlockDecision in decision_log().
  /// Off by default (the log grows by one entry per macroblock). May be
  /// flipped between frames; it applies to every block estimated after.
  void set_record_log(bool on) {
    record_log_.store(on, std::memory_order_relaxed);
  }
  /// Snapshot of the log, in (frame, by, bx) order whatever order the
  /// blocks were estimated in.
  [[nodiscard]] std::vector<BlockDecision> decision_log() const;

 private:
  AcbmParams params_;
  me::Pbm pbm_;
  me::FullSearch full_search_;
  std::atomic<bool> record_log_{false};
  // Per-outcome block and position totals; blocks is their sum.
  mutable std::atomic<std::uint64_t> outcome_blocks_[3] = {};
  mutable std::atomic<std::uint64_t> total_positions_{0};
  mutable std::mutex log_mutex_;
  mutable std::vector<BlockDecision> decision_log_;  ///< log_mutex_
};

}  // namespace acbm::core
