#pragma once
// The moves every search algorithm is built from.
//
// A pattern is a list of offsets on a unit grid; probing it at `scale`
// evaluates centre + offset·scale (half-pel units, so scale 2 is one integer
// sample). Searches differ only in which patterns they probe, at which
// scales, and when they stop; the loops themselves live here once.
//
// Probe order within one pattern never changes a result: SearchState's
// tie-break is a total order, so after a probe the best is the minimum of
// the centre and every candidate, and the positions paid are the same set,
// whatever the order.

#include <span>

#include "me/search_support.hpp"

namespace acbm::me {

/// The unit 8-neighbour square, raster order.
inline constexpr Mv kSquare[] = {{-1, -1}, {0, -1}, {1, -1}, {-1, 0},
                                 {1, 0},   {-1, 1}, {0, 1},  {1, 1}};

/// Probes centre + offset·scale for every offset in `pattern`. Returns true
/// when the best moved.
bool probe(SearchState& state, Mv centre, std::span<const Mv> pattern,
           int scale);

/// Recentring: probes `pattern` at `scale` around the current best while
/// the best moves, at most `max_moves` times. PBM's local refinement is
/// descend(state, kSquare, 2, iters); the fast searches' large-pattern
/// phases are the same walk with their own pattern, scale and bound.
void descend(SearchState& state, std::span<const Mv> pattern, int scale,
             int max_moves);

/// H.263 half-pel precision: after the integer-pel minimum is found, the 8
/// surrounding half-pel positions are probed (paper §2.3: "the FSBM
/// considers 8 additional half pixel candidates around the position pointed
/// by the integer pixel motion vector"). No-op when the context disables
/// half-pel.
void refine_halfpel(SearchState& state);

}  // namespace acbm::me
