#include "core/acbm.hpp"

#include <algorithm>

#include "me/sad.hpp"

namespace acbm::core {

Acbm::Acbm(AcbmParams params) : params_(params) {}

me::EstimateResult Acbm::estimate(const me::BlockContext& ctx) const {
  // Step 1: texture statistic of the current block. This costs one
  // block-sized pass, the same arithmetic as one SAD; it is charged to the
  // position counter so Table 1's comparison against FSBM's 969 is fair.
  const std::uint32_t texture =
      me::intra_sad(*ctx.cur, ctx.x, ctx.y, ctx.bw, ctx.bh);

  // Step 2: predictive search.
  const me::EstimateResult pbm = pbm_.estimate(ctx);

  BlockDecision decision;
  decision.frame = ctx.frame;
  decision.bx = ctx.bx;
  decision.by = ctx.by;
  decision.intra_sad = texture;
  decision.pbm_sad = pbm.sad;
  decision.pbm_mv = pbm.mv;

  me::EstimateResult result = pbm;
  result.positions += 1;  // the Intra_SAD pass
  result.sad_evaluations += 1;

  // Step 3: the two acceptance tests (T1 then T2, as in §3.2).
  const double t1 = static_cast<double>(texture) + pbm.sad;
  if (t1 < params_.threshold(ctx.qp)) {
    decision.outcome = AcbmOutcome::kAcceptLowActivity;
  } else if (static_cast<double>(pbm.sad) <
             params_.gamma * static_cast<double>(texture)) {
    decision.outcome = AcbmOutcome::kAcceptGoodMatch;
  } else {
    // Step 4: critical block — full search, keep the better of the two
    // matches (PBM's half-pel point can undercut FSBM's refinement basin).
    decision.outcome = AcbmOutcome::kCritical;
    me::EstimateResult full = full_search_.estimate(ctx);
    const std::uint32_t combined_positions = result.positions + full.positions;
    const std::uint32_t combined_sads =
        result.sad_evaluations + full.sad_evaluations;
    if (full.sad <= pbm.sad) {
      result = full;
    }
    result.positions = combined_positions;
    result.sad_evaluations = combined_sads;
    result.used_full_search = true;
  }

  result.intra_sad = texture;
  decision.final_mv = result.mv;
  decision.positions = result.positions;

  outcome_blocks_[static_cast<int>(decision.outcome)].fetch_add(
      1, std::memory_order_relaxed);
  total_positions_.fetch_add(result.positions, std::memory_order_relaxed);
  if (record_log_.load(std::memory_order_relaxed)) {
    // Rows finish out of order under parallel encoding; inserting at the
    // upper bound keeps the log in the serial (frame, by, bx) order.
    const auto before = [](const BlockDecision& a, const BlockDecision& b) {
      if (a.frame != b.frame) return a.frame < b.frame;
      return a.by != b.by ? a.by < b.by : a.bx < b.bx;
    };
    const std::lock_guard<std::mutex> lock(log_mutex_);
    decision_log_.insert(std::upper_bound(decision_log_.begin(),
                                          decision_log_.end(), decision,
                                          before),
                         decision);
  }
  return result;
}

void Acbm::reset() {
  for (std::atomic<std::uint64_t>& count : outcome_blocks_) {
    count.store(0, std::memory_order_relaxed);
  }
  total_positions_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(log_mutex_);
  decision_log_.clear();
}

AcbmStats Acbm::stats() const {
  AcbmStats stats;
  const auto count = [this](AcbmOutcome outcome) {
    return outcome_blocks_[static_cast<int>(outcome)].load(
        std::memory_order_relaxed);
  };
  stats.accepted_low_activity = count(AcbmOutcome::kAcceptLowActivity);
  stats.accepted_good_match = count(AcbmOutcome::kAcceptGoodMatch);
  stats.critical = count(AcbmOutcome::kCritical);
  stats.blocks =
      stats.accepted_low_activity + stats.accepted_good_match + stats.critical;
  stats.total_positions = total_positions_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<BlockDecision> Acbm::decision_log() const {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  return decision_log_;
}

}  // namespace acbm::core
