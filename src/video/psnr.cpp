#include "video/psnr.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace acbm::video {

namespace {

double sum_squared_error(const Plane& a, const Plane& b) {
  assert(a.width() == b.width() && a.height() == b.height());
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    const std::uint8_t* ra = a.row(y);
    const std::uint8_t* rb = b.row(y);
    for (int x = 0; x < a.width(); ++x) {
      const double d = static_cast<double>(ra[x]) - static_cast<double>(rb[x]);
      sse += d * d;
    }
  }
  return sse;
}

double mse_to_psnr(double m) {
  if (m <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return 10.0 * std::log10(255.0 * 255.0 / m);
}

}  // namespace

double mse(const Plane& a, const Plane& b) {
  const double n = static_cast<double>(a.width()) * a.height();
  return n > 0 ? sum_squared_error(a, b) / n : 0.0;
}

double psnr(const Plane& a, const Plane& b) { return mse_to_psnr(mse(a, b)); }

double psnr_luma(const Frame& a, const Frame& b) {
  return psnr(a.y(), b.y());
}

FramePsnr psnr_frame(const Frame& a, const Frame& b) {
  const double sse_y = sum_squared_error(a.y(), b.y());
  const double sse = sse_y + sum_squared_error(a.cb(), b.cb()) +
                     sum_squared_error(a.cr(), b.cr());
  const double n = static_cast<double>(a.width()) * a.height();
  return {mse_to_psnr(n > 0 ? sse_y / n : 0.0),
          mse_to_psnr(n > 0 ? sse / (n * 3.0 / 2.0) : 0.0)};
}

}  // namespace acbm::video
