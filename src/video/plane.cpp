#include "video/plane.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>

namespace acbm::video {

Plane::Plane(int width, int height, int border)
    : width_(width),
      height_(height),
      border_(border),
      stride_(width + 2 * border) {
  assert(width >= 0 && height >= 0 && border >= 0);
  data_.assign(static_cast<std::size_t>(stride_) *
                   static_cast<std::size_t>(height + 2 * border),
               0);
}

std::size_t Plane::index(int x, int y) const {
  assert(x >= -border_ && x < width_ + border_);
  assert(y >= -border_ && y < height_ + border_);
  return static_cast<std::size_t>(y + border_) *
             static_cast<std::size_t>(stride_) +
         static_cast<std::size_t>(x + border_);
}

void Plane::extend_border() {
  if (empty() || border_ == 0) {
    return;
  }
  // Left/right replication for each visible row.
  for (int y = 0; y < height_; ++y) {
    std::uint8_t* r = row(y);
    std::memset(r - border_, r[0], static_cast<std::size_t>(border_));
    std::memset(r + width_, r[width_ - 1], static_cast<std::size_t>(border_));
  }
  // Top/bottom replication of whole padded rows.
  const std::size_t full = static_cast<std::size_t>(stride_);
  const std::uint8_t* top = row(0) - border_;
  const std::uint8_t* bottom = row(height_ - 1) - border_;
  for (int y = 1; y <= border_; ++y) {
    std::memcpy(row(-y) - border_, top, full);
    std::memcpy(row(height_ - 1 + y) - border_, bottom, full);
  }
}

void Plane::extend_border_rows(int y0, int y1) {
  if (empty() || border_ == 0 || y0 >= y1) {
    return;
  }
  assert(y0 >= 0 && y1 <= height_);
  for (int y = y0; y < y1; ++y) {
    std::uint8_t* r = row(y);
    std::memset(r - border_, r[0], static_cast<std::size_t>(border_));
    std::memset(r + width_, r[width_ - 1], static_cast<std::size_t>(border_));
  }
  // The top/bottom bands replicate the full padded edge row, so they can
  // only be produced together with the strip that owns that edge row (whose
  // horizontal extension just ran above).
  const std::size_t full = static_cast<std::size_t>(stride_);
  if (y0 == 0) {
    const std::uint8_t* top = row(0) - border_;
    for (int y = 1; y <= border_; ++y) {
      std::memcpy(row(-y) - border_, top, full);
    }
  }
  if (y1 == height_) {
    const std::uint8_t* bottom = row(height_ - 1) - border_;
    for (int y = 1; y <= border_; ++y) {
      std::memcpy(row(height_ - 1 + y) - border_, bottom, full);
    }
  }
}

void Plane::fill(std::uint8_t value) {
  for (int y = 0; y < height_; ++y) {
    std::memset(row(y), value, static_cast<std::size_t>(width_));
  }
}

std::uint64_t Plane::absolute_difference(const Plane& other) const {
  assert(other.width_ == width_ && other.height_ == height_);
  std::uint64_t total = 0;
  for (int y = 0; y < height_; ++y) {
    const std::uint8_t* a = row(y);
    const std::uint8_t* b = other.row(y);
    for (int x = 0; x < width_; ++x) {
      total += static_cast<std::uint64_t>(std::abs(int(a[x]) - int(b[x])));
    }
  }
  return total;
}

bool Plane::visible_equals(const Plane& other) const {
  if (other.width_ != width_ || other.height_ != height_) {
    return false;
  }
  for (int y = 0; y < height_; ++y) {
    if (std::memcmp(row(y), other.row(y),
                    static_cast<std::size_t>(width_)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace acbm::video
