#pragma once
// The candidate-reduction baselines the paper's introduction positions ACBM
// against (refs [3–5] and their successors), as six recipes over the moves
// of me/halfpel.hpp. Each starts at the zero vector, pays for every
// position once (visited set) and ends with half-pel refinement:
//
//   TSS   three-step search (Liu/Zeng/Liou [3]): the square at a step of
//         roughly half the range, recentred and halved down to one sample
//         (8, 4, 2, 1 for p = 15).
//   NTSS  new three-step search (Li, Zeng & Liou 1994, the paper's [3]):
//         TSS's first square plus the unit square around the origin, with
//         two halfway stops — minimum at the origin: stop; minimum on the
//         unit square: probe that point's unit square and stop — else TSS
//         continues from the step-s winner.
//   4SS   four-step search (Po & Ma [4]): the ±2-sample square recentres
//         while its minimum moves, then a ±1 square.
//   DS    diamond search (Zhu & Ma): the large diamond (8 points at L1
//         distance 2) recentres, then the small cross polishes.
//   HEXBS hexagon-based search (Zhu, Lin & Chau 2002): a 6-point hexagon
//         recentres (3 new points per move), then the unit square — not the
//         original 4-point diamond, which cannot reach diagonal neighbours;
//         production implementations (x264's hex) finish the same way.
//   CDS   cross-diamond search (Cheung & Po [5]): the unit cross around the
//         origin (stop if it stays there), the ±2 cross, then — unless the
//         minimum is within one sample (quasi-stationary) — DS's walk; the
//         small cross finishes both branches.
//
// Each recentring walk is bounded by the moves that cross the whole window.

#include "me/estimator.hpp"

namespace acbm::me {

class PatternSearch final : public MotionEstimator {
 public:
  /// Registered under name(): TSS NTSS 4SS DS HEXBS CDS.
  enum class Kind { kTss, kNtss, kFss, kDs, kHexbs, kCds };

  explicit PatternSearch(Kind kind) : kind_(kind) {}

  EstimateResult estimate(const BlockContext& ctx) const override;

  [[nodiscard]] std::string_view name() const override;

 private:
  Kind kind_;
};

}  // namespace acbm::me
