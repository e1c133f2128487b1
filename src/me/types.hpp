#pragma once
// Shared value types for the motion-estimation library.
//
// Motion vectors are stored in HALF-PEL units throughout (H.263 convention):
// mv = {3, -2} means +1.5 samples right, 1 sample up. Integer-pel search
// operates on even values; half-pel refinement toggles the low bit.

#include <cstdint>
#include <optional>

namespace acbm::me {

/// Macroblock size used by the paper (16×16 luma).
inline constexpr int kBlockSize = 16;

/// A motion vector in half-pel units.
struct Mv {
  int x = 0;
  int y = 0;

  friend bool operator==(const Mv&, const Mv&) = default;

  [[nodiscard]] Mv operator+(const Mv& o) const { return {x + o.x, y + o.y}; }
  [[nodiscard]] Mv operator-(const Mv& o) const { return {x - o.x, y - o.y}; }

  /// True when both components sit on the integer-pel grid.
  [[nodiscard]] bool is_integer() const {
    return (x & 1) == 0 && (y & 1) == 0;
  }

  /// Chebyshev (L∞) norm in half-pel units; the characterization harness
  /// classifies MV errors by this metric.
  [[nodiscard]] int linf() const {
    const int ax = x < 0 ? -x : x;
    const int ay = y < 0 ? -y : y;
    return ax > ay ? ax : ay;
  }
};

/// Creates a half-pel Mv from integer-pel components.
[[nodiscard]] constexpr Mv mv_from_fullpel(int fx, int fy) {
  return {fx * 2, fy * 2};
}

/// Result of one block's motion search.
struct EstimateResult {
  Mv mv;                        ///< chosen vector, half-pel units
  std::uint32_t sad = 0;        ///< SAD at the chosen position
  /// Candidate positions decided: the paper's Table 1 count. A position
  /// pruned by a proof that it cannot win counts without a SAD.
  std::uint32_t positions = 0;
  bool used_full_search = false;  ///< ACBM: block was classified critical
  /// SADs actually computed, counted like positions (ACBM's Intra_SAD pass
  /// is one of each); at most positions, and equal to it for every search
  /// that prunes nothing.
  std::uint32_t sad_evaluations = 0;
  /// The block's Intra_SAD (me::intra_sad over ctx.bw × ctx.bh), when the
  /// estimator computed it on the way (ACBM's texture test, FSBM-adec's
  /// pattern choice); the encoder's INTRA/INTER test reuses it.
  std::optional<std::uint32_t> intra_sad;
};

}  // namespace acbm::me
