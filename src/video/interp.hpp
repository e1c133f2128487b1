#pragma once
// Half-pel addressing (H.263 convention).
//
// Matching (the fused interpolate+SAD kernels, me::sad_block_halfpel) and
// motion compensation (codec::predict_block) interpolate a whole block on
// the fly from the integer-pel plane; no phase plane is ever built.
// `split_halfpel()` turns a half-pel coordinate into an integer-plane
// origin and a phase for both; `HalfpelPlanes` is the borrowed reference
// handle the search paths take.
//
// Rounding follows H.263: (a+b+1)>>1 and (a+b+c+d+2)>>2.

#include <cassert>

#include "video/plane.hpp"

namespace acbm::video {

/// A half-pel coordinate h (integer position X is h = 2X) split as
/// h = 2·integer + phase, phase ∈ {0, 1}: `integer` rounds toward −∞, so
/// h = −1 is sample −1 at the half phase.
struct HalfpelSplit {
  int integer;
  int phase;
};
[[nodiscard]] constexpr HalfpelSplit split_halfpel(int h) {
  const int phase = h & 1;
  return {(h - phase) >> 1, phase};
}

/// Non-owning half-pel view of a reference picture: one pointer to its
/// integer-pel plane, whose border must be extended at least one sample
/// deep. The viewed plane must outlive the view, and every sample a reader
/// touches (border included) must be final before it is read — the frame
/// pipeline binds ME onto the previous frame's reconstruction while its
/// lower rows are still being filled, with a row-readiness counter gating
/// the reads.
class HalfpelPlanes {
 public:
  HalfpelPlanes() = default;
  explicit HalfpelPlanes(const Plane& src) : plane_(&src) {}
  HalfpelPlanes(const Plane&&) = delete;  // would view a dead temporary

  /// Points the view at *src (not owned).
  void bind(const Plane* src) { plane_ = src; }

  /// The viewed integer-pel plane; the view must be bound.
  [[nodiscard]] const Plane& integer_plane() const {
    assert(plane_ != nullptr);
    return *plane_;
  }

 private:
  const Plane* plane_ = nullptr;
};

}  // namespace acbm::video
