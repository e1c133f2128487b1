#pragma once
// FSBM — full search block matching (paper §2.3).
//
// Exhaustive raster scan of every integer-pel position in the window,
// followed by 8-point half-pel refinement. For the paper's p = 15 this is
// 961 + 8 = 969 positions per block, the reference complexity against which
// Table 1 is normalised. Given a row's block sums (BlockContext::sums),
// estimate() skips the SADs of candidates the multilevel successive
// elimination bound proves cannot win: first whole candidate rows, then
// sad_x4 groups, then, when the cost prices rate, groups whose every
// candidate's priced bound loses. The chosen vector, its SAD and the 969
// positions stay those of the exhaustive scan, and
// EstimateResult::sad_evaluations counts the SADs it computed.

#include <cstdint>

#include "me/decimation.hpp"
#include "me/estimator.hpp"

namespace acbm::me {

/// Extended result used by the §3.1 characterization harness, which needs
/// the SAD distribution over the whole window, not just the minimum.
struct FullSearchResult {
  EstimateResult best;                  ///< final (half-pel) choice
  Mv best_integer_mv;                   ///< winner of the integer scan
  std::uint32_t best_integer_sad = 0;   ///< its SAD
  std::uint32_t integer_positions = 0;  ///< integer candidates scored
  /// Σ SAD over the integer scan; SAD_deviation = sad_sum − N·SAD_min.
  std::uint64_t integer_sad_sum = 0;

  /// The paper's SAD_deviation statistic (§3.1).
  [[nodiscard]] std::uint64_t sad_deviation() const {
    return integer_sad_sum - static_cast<std::uint64_t>(integer_positions) *
                                 best_integer_sad;
  }
};

class FullSearch final : public MotionEstimator {
 public:
  /// `pattern` optionally applies pixel decimation to the SAD (the second
  /// family of fast algorithms from the paper's introduction, refs [6–8]);
  /// kNone reproduces the exact FSBM of the paper.
  explicit FullSearch(DecimationPattern pattern = DecimationPattern::kNone)
      : pattern_(pattern) {}

  EstimateResult estimate(const BlockContext& ctx) const override;

  /// Full-detail search for the characterization harness. Never prunes:
  /// integer_sad_sum needs every integer candidate's SAD.
  [[nodiscard]] FullSearchResult search_full(const BlockContext& ctx) const;

  /// Plain FSBM prunes with the row's block sums; the decimated scan does
  /// not read them.
  [[nodiscard]] bool wants_block_sums() const override {
    return pattern_ == DecimationPattern::kNone;
  }

  [[nodiscard]] std::string_view name() const override {
    return pattern_ == DecimationPattern::kNone ? "FSBM" : "FSBM-dec";
  }

 private:
  DecimationPattern pattern_;
};

}  // namespace acbm::me
