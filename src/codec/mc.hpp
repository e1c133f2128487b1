#pragma once
// Motion compensation: forming the inter prediction from the reconstructed
// reference picture.
//
// One per-block routine, predict_block(), serves every plane. Chroma
// derives its vector by halving the luma vector with the H.263 rounding
// rule (fractions 1/4, 1/2, 3/4 of a chroma sample all round to 1/2) and
// interpolates its own plane the same way.

#include <cstdint>

#include "me/types.hpp"
#include "video/interp.hpp"
#include "video/plane.hpp"

namespace acbm::codec {

/// Copies the bw×bh prediction for the block at (x, y) of `ref` displaced by
/// `mv` (half-pel units of that plane) into dst (row-major, `stride`
/// samples per row), interpolating from the integer plane; the read must
/// stay inside the plane's border (asserted).
void predict_block(const video::Plane& ref, int x, int y, me::Mv mv, int bw,
                   int bh, std::uint8_t* dst, int stride);

/// H.263 chroma vector derivation: half the luma vector, rounded so any
/// fractional part becomes a half-sample position. Input and output are in
/// half-pel units of their respective planes.
[[nodiscard]] me::Mv derive_chroma_mv(me::Mv luma_mv);

/// Forwards kept only because bench/e2e times MC under these per-plane
/// names; the codec calls predict_block() directly.
inline void predict_luma(const video::HalfpelPlanes& ref, int x, int y,
                         me::Mv mv, int bw, int bh, std::uint8_t* dst,
                         int stride) {
  predict_block(ref.integer_plane(), x, y, mv, bw, bh, dst, stride);
}
inline void predict_chroma(const video::Plane& ref_chroma, int cx, int cy,
                           me::Mv cmv, int bw, int bh, std::uint8_t* dst,
                           int stride) {
  predict_block(ref_chroma, cx, cy, cmv, bw, bh, dst, stride);
}

}  // namespace acbm::codec
