#include "me/full_search.hpp"

#include "me/halfpel.hpp"
#include "me/search_support.hpp"
#include "simd/dispatch.hpp"

namespace acbm::me {

namespace {

/// Runs the integer raster scan; leaves `state` positioned at the best
/// integer candidate. FSBM is the most SAD-bound estimator, so each
/// candidate row is scored four horizontally adjacent candidates per call
/// through the dispatched table's sad_x4 (the current block is loaded once
/// per group), and the row's leftover tail goes through try_candidate.
/// Every candidate still gets its exact SAD, so positions, Σ SAD and the
/// tie-broken winner are those of a one-by-one scan.
void integer_scan(SearchState& state, const BlockContext& ctx) {
  const simd::SadKernels& kernels = simd::active_kernels();
  const video::Plane& ref = ctx.ref->integer_plane();
  const std::uint8_t* cur = ctx.cur->row(ctx.y) + ctx.x;
  // Even half-pel coordinates are the integer grid.
  const int min_x = ctx.window.min_x + (ctx.window.min_x & 1);
  const int min_y = ctx.window.min_y + (ctx.window.min_y & 1);
  for (int my = min_y; my <= ctx.window.max_y; my += 2) {
    const std::uint8_t* ref_row = ref.row(ctx.y + my / 2) + ctx.x;
    int mx = min_x;
    for (; mx + 6 <= ctx.window.max_x; mx += 8) {
      std::uint32_t sad[4];
      kernels.sad_x4(cur, ctx.cur->stride(), ref_row + mx / 2, ref.stride(),
                     ctx.bw, ctx.bh, sad);
      for (int k = 0; k < 4; ++k) {
        state.offer({mx + 2 * k, my}, sad[k]);
      }
    }
    for (; mx <= ctx.window.max_x; mx += 2) {
      state.try_candidate({mx, my});
    }
  }
}

}  // namespace

EstimateResult FullSearch::estimate(const BlockContext& ctx) const {
  if (pattern_ != DecimationPattern::kNone) {
    return estimate_decimated_full_search(ctx, pattern_);
  }
  SearchState state(ctx);
  integer_scan(state, ctx);
  refine_halfpel(state);
  EstimateResult result = state.result();
  result.used_full_search = true;
  return result;
}

FullSearchResult FullSearch::search_full(const BlockContext& ctx) const {
  SearchState state(ctx);
  integer_scan(state, ctx);

  FullSearchResult full;
  full.best_integer_mv = state.best_mv();
  full.best_integer_sad = state.best_sad();
  full.integer_positions = state.positions();
  full.integer_sad_sum = state.sad_sum();

  refine_halfpel(state);
  full.best = state.result();
  full.best.used_full_search = true;
  return full;
}

}  // namespace acbm::me
