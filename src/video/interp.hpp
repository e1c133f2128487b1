#pragma once
// Half-pel bilinear interpolation (H.263 convention).
//
// Both the motion estimators (half-pel refinement) and the codec's motion
// compensation sample reference pictures on a half-pel grid, and both
// interpolate on the fly from the integer-pel plane: candidate matching
// through the fused interpolate+SAD kernels (me::sad_block_halfpel) and
// prediction through codec::predict_luma. No pre-interpolated phase plane
// is ever built. `sample_halfpel()` computes one sample directly;
// `HalfpelPlanes` is the borrowed reference handle those paths take.
//
// Rounding follows H.263: (a+b+1)>>1 and (a+b+c+d+2)>>2.

#include <cassert>
#include <cstdint>

#include "video/plane.hpp"

namespace acbm::video {

/// Returns the reference sample at half-pel position (hx, hy), where hx/hy
/// are in half-pel units (integer position X maps to hx = 2X). Coordinates
/// may extend into the plane border (minus one sample for interpolation).
[[nodiscard]] std::uint8_t sample_halfpel(const Plane& p, int hx, int hy);

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
