#pragma once
// Motion compensation: forming the inter prediction from the reconstructed
// reference picture.
//
// Luma interpolates on the fly from the reference's integer plane (through
// the borrowed video::HalfpelPlanes view); chroma derives its vector by
// halving the luma vector with the H.263 rounding rule (fractions 1/4, 1/2,
// 3/4 of a chroma sample all round to 1/2) and interpolates the same way.

#include <cstdint>

#include "me/types.hpp"
#include "video/interp.hpp"
#include "video/plane.hpp"

namespace acbm::codec {

/// Copies the bw×bh luma prediction for the block at (x, y) displaced by
/// `mv` (half-pel) into dst (row-major, `stride` samples per row).
void predict_luma(const video::HalfpelPlanes& ref, int x, int y, me::Mv mv,
                  int bw, int bh, std::uint8_t* dst, int stride);

/// H.263 chroma vector derivation: half the luma vector, rounded so any
/// fractional part becomes a half-sample position. Input and output are in
/// half-pel units of their respective planes.
[[nodiscard]] me::Mv derive_chroma_mv(me::Mv luma_mv);

/// Copies the bw×bh chroma prediction for the chroma-plane block at
/// (cx, cy) displaced by `cmv` (chroma half-pel units).
void predict_chroma(const video::Plane& ref_chroma, int cx, int cy, me::Mv cmv,
                    int bw, int bh, std::uint8_t* dst, int stride);

}  // namespace acbm::codec
