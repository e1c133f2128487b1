#include "me/pbm.hpp"

#include "me/halfpel.hpp"
#include "me/predictors.hpp"
#include "me/search_support.hpp"

namespace acbm::me {

EstimateResult Pbm::estimate(const BlockContext& ctx) const {
  // Visited-tracking: predictors, descent and half-pel refinement may touch
  // the same position twice; each position must be paid for exactly once.
  SearchState state(ctx, /*track_visited=*/true);

  // Step 1+2: evaluate the predictor set, keep the lowest SAD.
  for (Mv cand : pbm_candidates(ctx)) {
    state.try_candidate(cand);
  }
  if (!state.has_best()) {
    // Degenerate window (can only happen with pathological clamping) —
    // fall back to the zero vector.
    state.try_candidate(ctx.window.clamp({0, 0}));
  }

  // Step 3a: bounded integer-pel descent around the best predictor.
  descend(state, kSquare, 2, max_descent_iterations_);

  // Step 3b: half-pel refinement (paper: "normally, the refinement step is
  // performed in a half pixel grid").
  refine_halfpel(state);

  return state.result();
}

}  // namespace acbm::me
