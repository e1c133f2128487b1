#pragma once
// Reference sub-block sums for multilevel successive elimination.
//
// For a current block B and a reference block R of the same size,
// |ΣB − ΣR| ≤ SAD(B, R): the absolute difference of the sums never exceeds
// the sum of the absolute differences (Li & Salari, "Successive elimination
// algorithm for motion estimation", IEEE TIP 4(1), 1995). Splitting both
// 16×16 blocks into four 8×8 sub-blocks Bᵢ, Rᵢ and applying the same
// inequality to each gives the tighter bound
//
//   |ΣB − ΣR| ≤ lb = Σᵢ₌₀..₃ |ΣBᵢ − ΣRᵢ| ≤ SAD(B, R)
//
// (Gao, Duanmu & Zou, "A multilevel successive elimination algorithm for
// block matching motion estimation", IEEE TIP 9(3), 2000). A full search
// that knows the ΣRᵢ at every candidate origin can therefore prove that a
// candidate cannot beat the best so far without computing its SAD.
//
// A BlockSumBand holds the 8×8 sum of every reference origin that a
// sub-block of an unrestricted ±p window of one macroblock row can reach:
// origins x ∈ [−p, W − 8 + p] and y ∈ [y0 − p, y0 + p + 8] for the row
// whose top is y0. That is (2p + 9) rows × (W + 2p − 7) columns of uint16,
// read from the same reference rows as the candidates' 16×16 blocks. An
// 8×8 sum of 8-bit samples is at most 64·255 = 16,320, so lb is at most
// 4·16,320 = 65,280 and fits uint16 too: neither a table entry nor a bound
// can wrap. The encoder builds one band per macroblock row per P-frame, so
// the row's blocks share it, and FullSearch reads it through
// BlockContext::sums.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "me/window.hpp"
#include "video/plane.hpp"

namespace acbm::me {

class BlockSumBand {
 public:
  /// Side of the searched blocks: the macroblock.
  static constexpr int kSide = kBlockSize;
  /// Side of the summed sub-blocks: a quarter of the macroblock.
  static constexpr int kSubSide = kSide / 2;

  /// The four 8×8 sums of a 16×16 block: top-left, top-right, bottom-left,
  /// bottom-right.
  using QuadSums = std::array<std::uint16_t, 4>;

  /// The sub-block sums of the 16×16 block of `plane` at (x, y).
  [[nodiscard]] static QuadSums quad_sums(const video::Plane& plane, int x,
                                          int y);

  /// Fills the table for the block row whose top is `block_y`, searched at
  /// ±`range_p` integer samples. Reads `ref` rows block_y − p … block_y + p
  /// + 15 and columns −p … W + p − 1, so its border must be extended and at
  /// least `range_p` deep. Storage is kept across calls.
  void build(const video::Plane& ref, int block_y, int range_p);

  /// True when the band holds the sub-block sums of every integer candidate
  /// of `window` (half-pel units) for the block whose top-left is (x, y).
  [[nodiscard]] bool covers(int x, int y, const SearchWindow& window) const;

  /// Entries bounds() computes per vector: `out` must have room for
  /// `count` rounded up to a multiple of kLanes.
  static constexpr int kLanes = 8;

  /// The multilevel bound of the 16×16 candidates at origins (x + k, y),
  /// k < count, for a current block with sub-block sums `cur`:
  /// out[k] = Σᵢ |cur[i] − ΣRᵢ(x + k, y)|. Returns the smallest. Every
  /// candidate must lie inside the band; the entries of `out` from `count`
  /// to the next multiple of kLanes are overwritten.
  std::uint16_t bounds(const QuadSums& cur, int x, int y, int count,
                       std::uint16_t* out) const;

  /// The 8×8 sums of origins (x, y), (x + 1, y), …: row y of the table
  /// from column x on. (x, y) must lie inside the band.
  [[nodiscard]] const std::uint16_t* at(int x, int y) const {
    return sums_.data() +
           static_cast<std::ptrdiff_t>(y - y0_) * cols_ + (x - x0_);
  }

 private:
  int x0_ = 0;  ///< origin of table entry (0, 0), samples
  int y0_ = 0;
  int cols_ = 0;
  int rows_ = 0;
  std::vector<std::uint16_t> sums_;    ///< rows_ × cols_, then padding
  std::vector<std::uint16_t> column_;  ///< 8-row column sums, slid down
  std::vector<std::uint16_t> pairs_;   ///< horizontal partial sums
  std::vector<std::uint16_t> quads_;
};

}  // namespace acbm::me
