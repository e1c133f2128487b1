#include "me/pattern_search.hpp"

#include <algorithm>

#include "me/halfpel.hpp"
#include "me/search_support.hpp"

namespace acbm::me {

namespace {

// Offsets on the integer grid; the recipes probe them at scale 2.
constexpr Mv kCross[] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};
constexpr Mv kDiamond[] = {{0, -2}, {-1, -1}, {1, -1}, {-2, 0},
                           {2, 0},  {-1, 1},  {1, 1},  {0, 2}};
constexpr Mv kHexagon[] = {{-2, 0}, {2, 0},  {-1, -2},
                           {1, -2}, {-1, 2}, {1, 2}};

/// TSS's first step in integer samples: the largest power of two not
/// exceeding half the range (the window is in half-pel units).
int first_step(const SearchWindow& window) {
  const int range = std::max(window.max_x, window.max_y) / 2;
  int step = 1;
  while (step * 2 <= (range + 1) / 2) {
    step *= 2;
  }
  return step;
}

/// Recentres the square at `step` samples, halving it down to one sample.
void halving_steps(SearchState& state, int step) {
  for (; step >= 1; step /= 2) {
    probe(state, state.best_mv(), kSquare, 2 * step);
  }
}

/// Walk bound of the diamond and the hexagon.
int diamond_moves(const SearchWindow& w) {
  return (w.max_x - w.min_x + w.max_y - w.min_y) / 2 + 2;
}

void tss(SearchState& state) {
  halving_steps(state, first_step(state.ctx().window));
}

void ntss(SearchState& state) {
  const int step = first_step(state.ctx().window);
  probe(state, {0, 0}, kSquare, 2 * step);
  probe(state, {0, 0}, kSquare, 2);
  const Mv first = state.best_mv();
  if (first == Mv{0, 0}) {
    return;  // stationary block: 17 positions paid
  }
  if (first.linf() <= 2) {
    // On the unit square: its own unit square costs 3 new points at a
    // corner and 5 at an edge, as in the paper.
    probe(state, first, kSquare, 2);
    return;
  }
  halving_steps(state, step / 2);
}

void fss(SearchState& state) {
  const SearchWindow& w = state.ctx().window;
  descend(state, kSquare, 4,
          (w.max_x - w.min_x) / 4 + (w.max_y - w.min_y) / 4 + 2);
  probe(state, state.best_mv(), kSquare, 2);
}

void ds(SearchState& state) {
  descend(state, kDiamond, 2, diamond_moves(state.ctx().window));
  probe(state, state.best_mv(), kCross, 2);
}

void hexbs(SearchState& state) {
  descend(state, kHexagon, 2, diamond_moves(state.ctx().window));
  probe(state, state.best_mv(), kSquare, 2);
}

void cds(SearchState& state) {
  probe(state, {0, 0}, kCross, 2);
  if (state.best_mv() == Mv{0, 0}) {
    return;  // stationary block
  }
  probe(state, {0, 0}, kCross, 4);
  if (state.best_mv().linf() > 2) {
    descend(state, kDiamond, 2, diamond_moves(state.ctx().window));
  }
  probe(state, state.best_mv(), kCross, 2);
}

}  // namespace

EstimateResult PatternSearch::estimate(const BlockContext& ctx) const {
  SearchState state(ctx, /*track_visited=*/true);
  state.try_candidate({0, 0});
  switch (kind_) {
    case Kind::kTss:
      tss(state);
      break;
    case Kind::kNtss:
      ntss(state);
      break;
    case Kind::kFss:
      fss(state);
      break;
    case Kind::kDs:
      ds(state);
      break;
    case Kind::kHexbs:
      hexbs(state);
      break;
    case Kind::kCds:
      cds(state);
      break;
  }
  refine_halfpel(state);
  return state.result();
}

std::string_view PatternSearch::name() const {
  constexpr std::string_view kNames[] = {"TSS", "NTSS",  "4SS",
                                         "DS",  "HEXBS", "CDS"};
  return kNames[static_cast<int>(kind_)];
}

}  // namespace acbm::me
