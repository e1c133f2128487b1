#pragma once
// A single 8-bit sample plane (luma or chroma) with an explicit replicated
// border.
//
// Motion estimation with a ±p search window plus half-pel refinement reads up
// to p+1 samples outside the picture; rather than branch per pixel, every
// Plane owns a border of `border()` samples on all four sides and the search
// code indexes freely in [-border, size+border). `extend_border()` replicates
// edge samples outward (the H.263 unrestricted-MV convention).

#include <cstdint>
#include <span>
#include <vector>

namespace acbm::video {

class Plane {
 public:
  /// Default border sized for the paper's p=15 search plus half-pel overread.
  static constexpr int kDefaultBorder = 24;

  Plane() = default;

  /// Creates a plane of `width`×`height` visible samples with `border`
  /// padding samples on each side, zero-initialised.
  Plane(int width, int height, int border = kDefaultBorder);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int border() const { return border_; }
  /// Distance in samples between vertically adjacent samples.
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] bool empty() const { return width_ == 0 || height_ == 0; }

  /// Sample accessor; (x, y) may range over [-border, width+border) ×
  /// [-border, height+border). Debug builds assert the bound.
  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return data_[index(x, y)];
  }
  void set(int x, int y, std::uint8_t v) { data_[index(x, y)] = v; }

  /// Pointer to the first *visible* sample of row y (y may be in the border
  /// range); pointer arithmetic within [-border, width+border) is valid.
  [[nodiscard]] const std::uint8_t* row(int y) const {
    return data_.data() + index(0, y);
  }
  [[nodiscard]] std::uint8_t* row(int y) { return data_.data() + index(0, y); }

  /// Replicates the outermost visible samples into the border region.
  /// Call after any bulk write to the visible area.
  void extend_border();

  /// Partial extend_border(): replicates the left/right border of visible
  /// rows [y0, y1) only, plus the top border band when y0 == 0 and the
  /// bottom band when y1 == height(). Lets a producer publish a picture in
  /// horizontal strips with each strip's border valid the moment the strip
  /// is — calling it over every strip of a picture is sample-identical to
  /// one extend_border(). Disjoint strips may be extended concurrently.
  void extend_border_rows(int y0, int y1);

  /// Fills the visible area with a constant value (border untouched).
  void fill(std::uint8_t value);

  /// Sum of absolute per-sample differences over the visible area.
  [[nodiscard]] std::uint64_t absolute_difference(const Plane& other) const;

  /// True when the visible areas are sample-for-sample identical.
  [[nodiscard]] bool visible_equals(const Plane& other) const;

 private:
  [[nodiscard]] std::size_t index(int x, int y) const;

  int width_ = 0;
  int height_ = 0;
  int border_ = 0;
  int stride_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace acbm::video
