#include "codec/mc.hpp"

#include <cassert>

namespace acbm::codec {

void predict_block(const video::Plane& ref, int x, int y, me::Mv mv, int bw,
                   int bh, std::uint8_t* dst, int stride) {
  // H.263 rounding, no phase plane; the phase is constant over the block,
  // so it is split off once and picks one row loop.
  const video::HalfpelSplit sx = video::split_halfpel(mv.x);
  const video::HalfpelSplit sy = video::split_halfpel(mv.y);
  const int rx = x + sx.integer;
  const int ry = y + sy.integer;
  // Plane::row() checks only y, and ASan cannot see an x overrun that stays
  // inside the plane's storage: check the whole read footprint.
  assert(rx >= -ref.border() &&
         rx + bw + sx.phase <= ref.width() + ref.border());
  assert(ry >= -ref.border() &&
         ry + bh + sy.phase <= ref.height() + ref.border());
  for (int row = 0; row < bh; ++row) {
    const std::uint8_t* r0 = ref.row(ry + row) + rx;
    const std::uint8_t* r1 = sy.phase != 0 ? r0 + ref.stride() : r0;
    std::uint8_t* out = dst + static_cast<std::ptrdiff_t>(row) * stride;
    if (sx.phase == 0 && sy.phase == 0) {
      for (int col = 0; col < bw; ++col) {
        out[col] = r0[col];
      }
    } else if (sy.phase == 0) {
      for (int col = 0; col < bw; ++col) {
        out[col] = static_cast<std::uint8_t>((r0[col] + r0[col + 1] + 1) >> 1);
      }
    } else if (sx.phase == 0) {
      for (int col = 0; col < bw; ++col) {
        out[col] = static_cast<std::uint8_t>((r0[col] + r1[col] + 1) >> 1);
      }
    } else {
      for (int col = 0; col < bw; ++col) {
        out[col] = static_cast<std::uint8_t>(
            (r0[col] + r0[col + 1] + r1[col] + r1[col + 1] + 2) >> 2);
      }
    }
  }
}

me::Mv derive_chroma_mv(me::Mv luma_mv) {
  // luma_mv is in luma half-pels; the true chroma displacement is
  // luma_mv / 2 chroma half-pels. H.263 rounds fractional chroma positions
  // (luma_mv mod 4 ∈ {1,2,3} → half-sample) toward the half-pel grid.
  auto round_component = [](int v) {
    const int sign = v < 0 ? -1 : 1;
    const int a = v < 0 ? -v : v;
    const int whole = a >> 2;          // full chroma samples
    const int frac = a & 3;            // quarters of a chroma sample
    return sign * (whole * 2 + (frac != 0 ? 1 : 0));
  };
  return {round_component(luma_mv.x), round_component(luma_mv.y)};
}

}  // namespace acbm::codec
