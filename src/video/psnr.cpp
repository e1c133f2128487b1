#include "video/psnr.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace acbm::video {

namespace {

// Exact in integers: a row's sum fits a uint32 up to a width of 65,535
// (255²·65,535 < 2³²), the 16-bit header's limit, and the total stays below
// 2⁵³, so it converts to double without rounding — the same value a
// double-precision running sum would reach.
std::uint64_t sum_squared_error(const Plane& a, const Plane& b) {
  assert(a.width() == b.width() && a.height() == b.height());
  assert(a.width() <= 65535);
  std::uint64_t sse = 0;
  for (int y = 0; y < a.height(); ++y) {
    const std::uint8_t* ra = a.row(y);
    const std::uint8_t* rb = b.row(y);
    std::uint32_t row = 0;
    for (int x = 0; x < a.width(); ++x) {
      const int d = int(ra[x]) - int(rb[x]);
      row += static_cast<std::uint32_t>(d * d);
    }
    sse += row;
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
  return n > 0 ? static_cast<double>(sum_squared_error(a, b)) / n : 0.0;
}

double psnr(const Plane& a, const Plane& b) { return mse_to_psnr(mse(a, b)); }

double psnr_luma(const Frame& a, const Frame& b) {
  return psnr(a.y(), b.y());
}

FramePsnr psnr_frame(const Frame& a, const Frame& b) {
  const std::uint64_t sse_y = sum_squared_error(a.y(), b.y());
  const std::uint64_t sse = sse_y + sum_squared_error(a.cb(), b.cb()) +
                            sum_squared_error(a.cr(), b.cr());
  const double n = static_cast<double>(a.width()) * a.height();
  return {mse_to_psnr(n > 0 ? static_cast<double>(sse_y) / n : 0.0),
          mse_to_psnr(n > 0 ? static_cast<double>(sse) / (n * 3.0 / 2.0)
                            : 0.0)};
}

}  // namespace acbm::video
