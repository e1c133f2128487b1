#include "me/block_sums.hpp"

#include <cassert>

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

void BlockSumBand::build(const video::Plane& ref, int block_y, int range_p) {
  assert(range_p >= 0 && range_p <= ref.border());
  x0_ = -range_p;
  y0_ = block_y - range_p;
  cols_ = ref.width() - kSide + 2 * range_p + 1;
  rows_ = 2 * range_p + 1;
  // Samples of one reference row that some origin's block covers.
  const int span = cols_ + kSide - 1;
  sums_.resize(static_cast<std::size_t>(rows_) *
               static_cast<std::size_t>(cols_));
  column_.assign(static_cast<std::size_t>(span), 0);
  pairs_.resize(static_cast<std::size_t>(span));
  quads_.resize(static_cast<std::size_t>(span));

  // column_[i]: Σ of the 16 samples below (x0 + i, y0 + j), slid down one
  // row per table row. Every loop below runs over a whole row of
  // contiguous samples, which the compiler vectorizes.
  for (int r = 0; r < kSide; ++r) {
    const std::uint8_t* row = ref.row(y0_ + r) + x0_;
    for (int i = 0; i < span; ++i) {
      column_[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(
          column_[static_cast<std::size_t>(i)] + row[i]);
    }
  }
  for (int j = 0; j < rows_; ++j) {
    // Horizontal 16-sums in log steps: widths 2, 4, 8, then 16.
    add_shifted(column_.data(), 1, span - 1, pairs_.data());
    add_shifted(pairs_.data(), 2, span - 3, quads_.data());
    add_shifted(quads_.data(), 4, span - 7, pairs_.data());
    add_shifted(pairs_.data(), 8, cols_,
                sums_.data() + static_cast<std::ptrdiff_t>(j) * cols_);
    if (j + 1 < rows_) {
      const std::uint8_t* enter = ref.row(y0_ + j + kSide) + x0_;
      const std::uint8_t* leave = ref.row(y0_ + j) + x0_;
      for (int i = 0; i < span; ++i) {
        column_[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(
            column_[static_cast<std::size_t>(i)] + enter[i] - leave[i]);
      }
    }
  }
}

bool BlockSumBand::covers(int x, int y, const SearchWindow& window) const {
  // The window's integer candidates: its even half-pel coordinates.
  const int lo_x = x + (window.min_x + (window.min_x & 1)) / 2;
  const int hi_x = x + (window.max_x - (window.max_x & 1)) / 2;
  const int lo_y = y + (window.min_y + (window.min_y & 1)) / 2;
  const int hi_y = y + (window.max_y - (window.max_y & 1)) / 2;
  return lo_x >= x0_ && hi_x < x0_ + cols_ && lo_y >= y0_ &&
         hi_y < y0_ + rows_;
}

}  // namespace acbm::me
