#pragma once
// The Lagrangian motion cost J(mv) = D(mv) + λ·R(mv) from §2.1 of the paper.
//
// D is the block SAD; R is the number of bits needed to transmit the vector,
// which depends on the predictor because H.263-family codecs code MVs
// differentially. The rate model here is the exact bit length our codec's
// entropy layer produces (signed exp-Golomb per component), so the search
// optimises the true transmitted rate rather than an approximation.

#include <cstdint>

#include "me/types.hpp"
#include "util/expgolomb.hpp"

namespace acbm::me {

/// Bits needed to code `mv` differentially against `pred` (both half-pel).
[[nodiscard]] inline std::uint32_t mv_rate_bits(Mv mv, Mv pred) {
  const Mv d = mv - pred;
  return static_cast<std::uint32_t>(util::se_bit_length(d.x) +
                                    util::se_bit_length(d.y));
}

/// Lagrangian cost model for motion search.
class MotionCost {
 public:
  /// `lambda` converts bits into SAD units. The repository default follows
  /// λ_motion = kLambdaScale·Qp (SAD domain; see DESIGN.md §6).
  explicit MotionCost(double lambda, Mv pred = {})
      : lambda_fixed_(static_cast<std::uint64_t>(lambda * 256.0)),
        pred_(pred) {}

  static constexpr double kLambdaScale = 0.92;

  /// Builds the cost model for a quantiser step.
  [[nodiscard]] static MotionCost for_qp(int qp, Mv pred = {}) {
    return MotionCost(kLambdaScale * qp, pred);
  }

  [[nodiscard]] Mv predictor() const { return pred_; }

  /// False when ⌊λ·256⌋ is 0: every cost is then SAD·256.
  [[nodiscard]] bool prices_rate() const { return lambda_fixed_ != 0; }

  /// J = SAD + λ·R(mv − pred), scaled to integers for tie-stable
  /// comparisons inside search loops: SAD·256 + ⌊λ·256⌋·R. λ is truncated
  /// to 1/256 once, at construction, so pricing a candidate is two bit
  /// widths, a multiply and an add. Costs are only compared, never
  /// accumulated; the truncation moves a candidate's J by less than R/256
  /// SAD units.
  [[nodiscard]] std::uint64_t cost_fixed(std::uint32_t sad, Mv mv) const {
    return (static_cast<std::uint64_t>(sad) << 8) +
           lambda_fixed_ * mv_rate_bits(mv, pred_);
  }

 private:
  std::uint64_t lambda_fixed_;  ///< ⌊λ·256⌋
  Mv pred_;
};

}  // namespace acbm::me
