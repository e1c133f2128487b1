#include "me/halfpel.hpp"

namespace acbm::me {

bool probe(SearchState& state, Mv centre, std::span<const Mv> pattern,
           int scale) {
  bool moved = false;
  for (const Mv& offset : pattern) {
    moved |= state.try_candidate(
        {centre.x + offset.x * scale, centre.y + offset.y * scale});
  }
  return moved;
}

void descend(SearchState& state, std::span<const Mv> pattern, int scale,
             int max_moves) {
  for (int move = 0; move < max_moves; ++move) {
    if (!probe(state, state.best_mv(), pattern, scale)) {
      return;
    }
  }
}

void refine_halfpel(SearchState& state) {
  if (state.ctx().half_pel) {
    probe(state, state.best_mv(), kSquare, 1);
  }
}

}  // namespace acbm::me
