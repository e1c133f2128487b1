#include "me/block_sums.hpp"

#include <algorithm>
#include <cassert>

#include "me/sad.hpp"

namespace acbm::me {

namespace {

/// out[i] = in[i] + in[i + step] for i < n.
void add_shifted(const std::uint16_t* in, int step, int n,
                 std::uint16_t* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint16_t>(in[i] + in[i + step]);
  }
}

}  // namespace

BlockSumBand::QuadSums BlockSumBand::quad_sums(const video::Plane& plane,
                                               int x, int y) {
  QuadSums out{};
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(
        block_sum(plane, x + (i & 1) * kSubSide, y + (i >> 1) * kSubSide,
                  kSubSide, kSubSide));
  }
  return out;
}

void BlockSumBand::build(const video::Plane& ref, int block_y, int range_p) {
  assert(range_p >= 0 && range_p <= ref.border());
  x0_ = -range_p;
  y0_ = block_y - range_p;
  cols_ = ref.width() - kSubSide + 2 * range_p + 1;
  rows_ = 2 * range_p + 1 + kSubSide;
  // Samples of one reference row that some origin's sub-block covers.
  const int span = cols_ + kSubSide - 1;
  // bounds() reads up to kLanes − 1 entries past the last row.
  sums_.resize(static_cast<std::size_t>(rows_) *
                   static_cast<std::size_t>(cols_) +
               kLanes - 1);
  column_.assign(static_cast<std::size_t>(span), 0);
  pairs_.resize(static_cast<std::size_t>(span));
  quads_.resize(static_cast<std::size_t>(span));

  // column_[i]: Σ of the 8 samples below (x0 + i, y0 + j), slid down one
  // row per table row. Every loop below runs over a whole row of
  // contiguous samples, which the compiler vectorizes.
  for (int r = 0; r < kSubSide; ++r) {
    const std::uint8_t* row = ref.row(y0_ + r) + x0_;
    for (int i = 0; i < span; ++i) {
      column_[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(
          column_[static_cast<std::size_t>(i)] + row[i]);
    }
  }
  for (int j = 0; j < rows_; ++j) {
    // Horizontal 8-sums in log steps: widths 2, 4, then 8.
    add_shifted(column_.data(), 1, span - 1, pairs_.data());
    add_shifted(pairs_.data(), 2, span - 3, quads_.data());
    add_shifted(quads_.data(), 4, cols_,
                sums_.data() + static_cast<std::ptrdiff_t>(j) * cols_);
    if (j + 1 < rows_) {
      const std::uint8_t* enter = ref.row(y0_ + j + kSubSide) + x0_;
      const std::uint8_t* leave = ref.row(y0_ + j) + x0_;
      for (int i = 0; i < span; ++i) {
        column_[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(
            column_[static_cast<std::size_t>(i)] + enter[i] - leave[i]);
      }
    }
  }
}

bool BlockSumBand::covers(int x, int y, const SearchWindow& window) const {
  // The window's integer candidates: its even half-pel coordinates. A
  // candidate's right and bottom sub-blocks start kSubSide further on.
  const int lo_x = x + (window.min_x + (window.min_x & 1)) / 2;
  const int hi_x = x + (window.max_x - (window.max_x & 1)) / 2 + kSubSide;
  const int lo_y = y + (window.min_y + (window.min_y & 1)) / 2;
  const int hi_y = y + (window.max_y - (window.max_y & 1)) / 2 + kSubSide;
  return lo_x >= x0_ && hi_x < x0_ + cols_ && lo_y >= y0_ &&
         hi_y < y0_ + rows_;
}

std::uint16_t BlockSumBand::bounds(const QuadSums& cur, int x, int y,
                                   int count, std::uint16_t* out) const {
  const std::uint16_t* top = at(x, y);
  const std::uint16_t* bottom = at(x, y + kSubSide);
  const auto absdiff = [](std::uint16_t a, std::uint16_t b) {
    return static_cast<std::uint16_t>(a > b ? a - b : b - a);
  };
  // One plain loop over the whole candidate row in 16-bit lanes, which the
  // compiler vectorizes; each term is at most 16,320, the sum at most
  // 65,280. It runs on to a whole number of vectors, so no scalar tail of
  // four differences per candidate runs: the entries past `count` read the
  // next table row or the table's padding, and the minimum ignores them.
  const int padded = (count + kLanes - 1) / kLanes * kLanes;
  for (int k = 0; k < padded; ++k) {
    out[k] = static_cast<std::uint16_t>(
        absdiff(cur[0], top[k]) + absdiff(cur[1], top[k + kSubSide]) +
        absdiff(cur[2], bottom[k]) + absdiff(cur[3], bottom[k + kSubSide]));
  }
  std::uint16_t least = 0xFFFF;
  for (int k = 0; k < count; ++k) {
    least = std::min(least, out[k]);
  }
  return least;
}

}  // namespace acbm::me
