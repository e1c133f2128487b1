#pragma once
// PBM — predictive block matching (paper §2.2, after Chimienti et al. [9]).
//
// Three steps: (1) evaluate the spatio-temporal candidate predictors,
// (2) keep the one with lowest SAD, (3) refine locally — an iterative ±1
// integer-pel descent followed by the 8-point half-pel refinement. Total
// cost is tens of SADs per block, and the resulting field is smooth because
// every vector starts from its neighbours' motion. The known failure mode —
// getting trapped in a local minimum on textured or erratic content — is
// exactly what ACBM's criticality test detects.

#include "me/estimator.hpp"

namespace acbm::me {

class Pbm final : public MotionEstimator {
 public:
  /// `max_descent_iterations` bounds step (3)'s integer descent; the default
  /// keeps worst-case complexity bounded (Chimienti's "complexity-bounded"
  /// property) at ~6 + 8·8 + 8 ≈ 80 SADs.
  explicit Pbm(int max_descent_iterations = 8)
      : max_descent_iterations_(max_descent_iterations) {}

  EstimateResult estimate(const BlockContext& ctx) const override;

  [[nodiscard]] std::string_view name() const override { return "PBM"; }

  /// The left, above and above-right candidates come from the current field.
  [[nodiscard]] bool reads_current_field() const override { return true; }

 private:
  int max_descent_iterations_;
};

}  // namespace acbm::me
