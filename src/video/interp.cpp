#include "video/interp.hpp"

namespace acbm::video {

std::uint8_t sample_halfpel(const Plane& p, int hx, int hy) {
  const int phase_h = hx & 1;
  const int phase_v = hy & 1;
  const int x = (hx - phase_h) >> 1;
  const int y = (hy - phase_v) >> 1;
  if (phase_h == 0 && phase_v == 0) {
    return p.at(x, y);
  }
  if (phase_v == 0) {
    return static_cast<std::uint8_t>((p.at(x, y) + p.at(x + 1, y) + 1) >> 1);
  }
  if (phase_h == 0) {
    return static_cast<std::uint8_t>((p.at(x, y) + p.at(x, y + 1) + 1) >> 1);
  }
  return static_cast<std::uint8_t>(
      (p.at(x, y) + p.at(x + 1, y) + p.at(x, y + 1) + p.at(x + 1, y + 1) + 2) >>
      2);
}

}  // namespace acbm::video
