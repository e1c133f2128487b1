#include "codec/mc.hpp"

namespace acbm::codec {

void predict_luma(const video::HalfpelPlanes& ref, int x, int y, me::Mv mv,
                  int bw, int bh, std::uint8_t* dst, int stride) {
  // Interpolates on the fly from the integer plane (H.263 rounding): one
  // block's worth of bilinear taps per coded macroblock, no phase plane.
  const int phase_h = mv.x & 1;
  const int phase_v = mv.y & 1;
  const video::Plane& plane = ref.integer_plane();
  const int rx = x + ((mv.x - phase_h) >> 1);
  const int ry = y + ((mv.y - phase_v) >> 1);
  for (int row = 0; row < bh; ++row) {
    const std::uint8_t* r0 = plane.row(ry + row) + rx;
    const std::uint8_t* r1 = phase_v != 0 ? r0 + plane.stride() : r0;
    std::uint8_t* out = dst + static_cast<std::ptrdiff_t>(row) * stride;
    if (phase_h == 0 && phase_v == 0) {
      for (int col = 0; col < bw; ++col) {
        out[col] = r0[col];
      }
    } else if (phase_v == 0) {
      for (int col = 0; col < bw; ++col) {
        out[col] = static_cast<std::uint8_t>((r0[col] + r0[col + 1] + 1) >> 1);
      }
    } else if (phase_h == 0) {
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

void predict_chroma(const video::Plane& ref_chroma, int cx, int cy, me::Mv cmv,
                    int bw, int bh, std::uint8_t* dst, int stride) {
  for (int row = 0; row < bh; ++row) {
    std::uint8_t* out = dst + static_cast<std::ptrdiff_t>(row) * stride;
    for (int col = 0; col < bw; ++col) {
      out[col] = video::sample_halfpel(ref_chroma, (cx + col) * 2 + cmv.x,
                                       (cy + row) * 2 + cmv.y);
    }
  }
}

}  // namespace acbm::codec
