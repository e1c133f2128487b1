#include "video/pad.hpp"

#include <cassert>
#include <cstring>

namespace acbm::video {

Plane crop(const Plane& src, int x0, int y0, int w, int h, int border) {
  assert(w > 0 && h > 0);
  assert(x0 >= -src.border() && x0 + w <= src.width() + src.border());
  assert(y0 >= -src.border() && y0 + h <= src.height() + src.border());
  Plane out(w, h, border);
  for (int y = 0; y < h; ++y) {
    std::memcpy(out.row(y), src.row(y0 + y) + x0, static_cast<std::size_t>(w));
  }
  out.extend_border();
  return out;
}

Plane crop_with_context(const Plane& src, int x0, int y0, int w, int h,
                        int border) {
  assert(w > 0 && h > 0);
  assert(x0 - border >= -src.border() &&
         x0 + w + border <= src.width() + src.border());
  assert(y0 - border >= -src.border() &&
         y0 + h + border <= src.height() + src.border());
  Plane out(w, h, border);
  for (int y = -border; y < h + border; ++y) {
    std::memcpy(out.row(y) - border, src.row(y0 + y) + x0 - border,
                static_cast<std::size_t>(w + 2 * border));
  }
  return out;
}

}  // namespace acbm::video
