#include "me/full_search.hpp"

#include <algorithm>
#include <cstdlib>

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
///
/// With `sums`, a group (or tail candidate) is skipped when the successive
/// elimination bound |ΣB − ΣR| ≤ SAD proves that none of its candidates can
/// win or tie, so the winner is the exhaustive scan's. The group's smallest
/// bound is checked against SearchState::sad_bound() first, which holds at
/// any λ. When the cost prices rate and that check fails, each candidate's
/// bound is priced with its own vector bits (SearchState::cannot_win),
/// which prunes more. The group holding the zero vector is scored first, to
/// seed the bound. Skipped candidates still count as positions. Without
/// `sums` every candidate gets its exact SAD, so Σ SAD covers the whole
/// window; in both cases positions and the tie-broken winner are those of a
/// one-by-one scan.
void integer_scan(SearchState& state, const BlockContext& ctx,
                  const BlockSumBand* sums) {
  const simd::SadKernels& kernels = simd::active_kernels();
  const video::Plane& ref = ctx.ref->integer_plane();
  const std::uint8_t* cur = ctx.cur->row(ctx.y) + ctx.x;
  // Even half-pel coordinates are the integer grid.
  const int min_x = ctx.window.min_x + (ctx.window.min_x & 1);
  const int min_y = ctx.window.min_y + (ctx.window.min_y & 1);
  const int max_x = ctx.window.max_x - (ctx.window.max_x & 1);
  // Each row is groups of four from min_x up to group_end, then a tail of
  // fewer than four single candidates.
  const int row_count = max_x >= min_x ? (max_x - min_x) / 2 + 1 : 0;
  const int group_end = min_x + 8 * (row_count / 4);
  const int cur_sum =
      sums != nullptr
          ? static_cast<int>(block_sum(*ctx.cur, ctx.x, ctx.y, ctx.bw, ctx.bh))
          : 0;
  const bool priced = ctx.cost.prices_rate();
  // True when none of `count` candidates from (mx, my) rightward can win.
  const auto pruned = [&](int mx, int my, int count) {
    const std::uint16_t* ref_sums = sums->at(ctx.x + mx / 2, ctx.y + my / 2);
    int bound = std::abs(cur_sum - ref_sums[0]);
    for (int k = 1; k < count; ++k) {
      bound = std::min(bound, std::abs(cur_sum - ref_sums[k]));
    }
    if (static_cast<std::uint64_t>(bound) > state.sad_bound()) {
      return true;
    }
    if (!priced) {
      return false;
    }
    for (int k = 0; k < count; ++k) {
      const auto lb =
          static_cast<std::uint32_t>(std::abs(cur_sum - ref_sums[k]));
      if (!state.cannot_win(lb, {mx + 2 * k, my})) {
        return false;
      }
    }
    return true;
  };
  // Scores the unit of row `my` that starts at `mx`: a group of four below
  // group_end, one candidate from there on.
  const auto score = [&](int mx, int my) {
    const int count = mx < group_end ? 4 : 1;
    if (sums != nullptr && pruned(mx, my, count)) {
      state.skip(static_cast<std::uint32_t>(count));
      return;
    }
    if (count == 1) {
      state.try_candidate({mx, my});
      return;
    }
    std::uint32_t sad[4];
    kernels.sad_x4(cur, ctx.cur->stride(),
                   ref.row(ctx.y + my / 2) + ctx.x + mx / 2, ref.stride(),
                   ctx.bw, ctx.bh, sad);
    for (int k = 0; k < 4; ++k) {
      state.offer({mx + 2 * k, my}, sad[k]);
    }
  };

  // The unit holding the zero vector (if the window holds it) is scored
  // before the scan: still blocks are common, so it sets a tight bound
  // early.
  int seed_mx = max_x + 2;  // no unit starts here
  if (ctx.window.contains({0, 0})) {
    seed_mx = 0 < group_end ? min_x + 8 * ((0 - min_x) / 8) : 0;
    score(seed_mx, 0);
  }
  for (int my = min_y; my <= ctx.window.max_y; my += 2) {
    for (int mx = min_x; mx <= max_x; mx += mx < group_end ? 8 : 2) {
      if (my != 0 || mx != seed_mx) {
        score(mx, my);
      }
    }
  }
}

}  // namespace

EstimateResult FullSearch::estimate(const BlockContext& ctx) const {
  if (pattern_ != DecimationPattern::kNone) {
    return estimate_decimated_full_search(ctx, pattern_);
  }
  // The band sums 16×16 blocks; other block sizes, or a window reaching
  // past the band, scan exhaustively.
  const bool prune = ctx.sums != nullptr &&
                     ctx.bw == BlockSumBand::kSide &&
                     ctx.bh == BlockSumBand::kSide &&
                     ctx.sums->covers(ctx.x, ctx.y, ctx.window);
  SearchState state(ctx);
  integer_scan(state, ctx, prune ? ctx.sums : nullptr);
  refine_halfpel(state);
  EstimateResult result = state.result();
  result.used_full_search = true;
  return result;
}

FullSearchResult FullSearch::search_full(const BlockContext& ctx) const {
  // No bound: Σ SAD (SAD_deviation, §3.1) needs every candidate's SAD.
  SearchState state(ctx);
  integer_scan(state, ctx, nullptr);

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
