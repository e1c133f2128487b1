#pragma once
// Reference block sums for successive elimination.
//
// For a current block B and a reference block R of the same size,
// |ΣB − ΣR| ≤ SAD(B, R): the absolute difference of the sums never exceeds
// the sum of the absolute differences (Li & Salari, "Successive elimination
// algorithm for motion estimation", IEEE TIP 4(1), 1995). A full search that
// knows ΣR at every candidate origin can therefore prove that a candidate
// cannot beat the best so far without computing its SAD.
//
// A BlockSumBand holds ΣR for every 16×16 reference block an unrestricted
// ±p window of one macroblock row can reach: origins x ∈ [−p, W − 16 + p]
// and y ∈ [y0 − p, y0 + p] for the row whose top is y0. That is
// (2p + 1) rows × (W − 16 + 2p + 1) columns of uint16 (a 16×16 sum of 8-bit
// samples is at most 65,280). The encoder builds one band per macroblock row
// per P-frame, so the row's blocks share it, and FullSearch reads it through
// BlockContext::sums.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "me/window.hpp"
#include "video/plane.hpp"

namespace acbm::me {

class BlockSumBand {
 public:
  /// Side of the summed blocks: the macroblock.
  static constexpr int kSide = kBlockSize;

  /// Fills the table for the block row whose top is `block_y`, searched at
  /// ±`range_p` integer samples. Reads `ref` rows block_y − p … block_y + p
  /// + 15 and columns −p … W + p − 1, so its border must be extended and at
  /// least `range_p` deep. Storage is kept across calls.
  void build(const video::Plane& ref, int block_y, int range_p);

  /// True when the band holds the sum of every integer candidate of
  /// `window` (half-pel units) for the block whose top-left is (x, y).
  [[nodiscard]] bool covers(int x, int y, const SearchWindow& window) const;

  /// The sums of origins (x, y), (x + 1, y), …: row y of the table from
  /// column x on. (x, y) must lie inside the band.
  [[nodiscard]] const std::uint16_t* at(int x, int y) const {
    return sums_.data() +
           static_cast<std::ptrdiff_t>(y - y0_) * cols_ + (x - x0_);
  }

 private:
  int x0_ = 0;  ///< origin of table entry (0, 0), samples
  int y0_ = 0;
  int cols_ = 0;
  int rows_ = 0;
  std::vector<std::uint16_t> sums_;    ///< rows_ × cols_
  std::vector<std::uint16_t> column_;  ///< 16-row column sums, slid down
  std::vector<std::uint16_t> pairs_;   ///< horizontal partial sums
  std::vector<std::uint16_t> quads_;
};

}  // namespace acbm::me
