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

namespace acbm::me {

/// Bits needed to code `mv` differentially against `pred` (both half-pel).
[[nodiscard]] std::uint32_t mv_rate_bits(Mv mv, Mv pred);

/// Lagrangian cost model for motion search.
class MotionCost {
 public:
  /// `lambda` converts bits into SAD units. The repository default follows
  /// λ_motion = kLambdaScale·Qp (SAD domain; see DESIGN.md §6).
  explicit MotionCost(double lambda, Mv pred = {}) : lambda_(lambda),
                                                     pred_(pred) {}

  static constexpr double kLambdaScale = 0.92;

  /// Builds the cost model for a quantiser step.
  [[nodiscard]] static MotionCost for_qp(int qp, Mv pred = {}) {
    return MotionCost(kLambdaScale * qp, pred);
  }

  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] Mv predictor() const { return pred_; }

  /// J = SAD + λ·R(mv − pred).
  [[nodiscard]] double cost(std::uint32_t sad, Mv mv) const {
    return static_cast<double>(sad) +
           lambda_ * static_cast<double>(mv_rate_bits(mv, pred_));
  }

  /// Integer-scaled cost for tie-stable comparisons inside search loops
  /// (costs are compared, never accumulated, so scaling by 256 is exact
  /// enough for λ with two fractional digits).
  [[nodiscard]] std::uint64_t cost_fixed(std::uint32_t sad, Mv mv) const {
    return (static_cast<std::uint64_t>(sad) << 8) +
           static_cast<std::uint64_t>(lambda_ * 256.0) * mv_rate_bits(mv, pred_);
  }

 private:
  double lambda_;
  Mv pred_;
};

}  // namespace acbm::me
