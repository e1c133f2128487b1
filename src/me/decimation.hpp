#pragma once
// Pixel-decimation SAD — the paper's second family of fast block matching
// (introduction refs [6–8]): reduce the number of pixels entering each match
// instead of the number of candidates.

#include <cstdint>

#include "me/estimator.hpp"
#include "video/plane.hpp"

namespace acbm::me {

enum class DecimationPattern {
  kNone,           ///< all bw×bh samples
  kQuincunx4to1,   ///< checkerboard-of-checkerboards: 1 of 4 samples
  kRowSkip2to1,    ///< every other row (Chan & Siu style)
};

/// Number of samples the pattern keeps out of a bw×bh block.
[[nodiscard]] int decimated_sample_count(DecimationPattern pattern, int bw,
                                         int bh);

/// SAD over the pattern's subset of samples. Values are comparable between
/// candidates under the same pattern, not across patterns.
[[nodiscard]] std::uint32_t sad_block_decimated(
    const video::Plane& cur, int cx, int cy, const video::Plane& ref, int rx,
    int ry, int bw, int bh, DecimationPattern pattern);

/// Full-window integer search using decimated SAD for ranking, then exact
/// SAD at the winner and standard half-pel refinement. The position count
/// still reflects candidate evaluations (decimation reduces per-position
/// work, not the number of positions — matching how refs [6–8] report cost).
[[nodiscard]] EstimateResult estimate_decimated_full_search(
    const BlockContext& ctx, DecimationPattern pattern);

/// Adaptive pixel decimation in the spirit of Chan & Siu (paper ref [7]):
/// per block, the texture statistic Intra_SAD selects the sampling density —
/// flat blocks match reliably from a quarter of the samples, textured
/// blocks get the full kernel. Thresholds are in Intra_SAD units for a
/// 16×16 block and scale with block area for other sizes.
class AdaptiveDecimationSearch final : public MotionEstimator {
 public:
  struct Thresholds {
    std::uint32_t quarter_below = 1500;  ///< Intra_SAD < this → 4:1 sampling
    std::uint32_t half_below = 4000;     ///< ... < this → 2:1, else full
  };

  AdaptiveDecimationSearch() = default;
  explicit AdaptiveDecimationSearch(Thresholds thresholds)
      : thresholds_(thresholds) {}

  EstimateResult estimate(const BlockContext& ctx) const override;

  [[nodiscard]] std::string_view name() const override { return "FSBM-adec"; }

  /// Pattern the thresholds select for a given texture level (exposed for
  /// tests and the ablation bench).
  [[nodiscard]] DecimationPattern pattern_for(std::uint32_t intra_sad,
                                              int bw, int bh) const;

 private:
  Thresholds thresholds_{};
};

/// Combined subsampling of pixels AND candidates after Yu, Zhou & Chen
/// (paper ref [6]): rank a 2:1 checkerboard of integer candidates with 4:1
/// decimated SAD, then re-rank the winner's full 8-neighbourhood with exact
/// SAD and half-pel refine. Roughly an 8× arithmetic reduction against
/// FSBM at near-full-search quality on natural content.
class SubsampledFullSearch final : public MotionEstimator {
 public:
  EstimateResult estimate(const BlockContext& ctx) const override;

  [[nodiscard]] std::string_view name() const override { return "FSBM-sub"; }
};

}  // namespace acbm::me
