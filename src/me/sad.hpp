#pragma once
// Sum-of-absolute-differences kernels plus the paper's two block statistics.
//
// Every matching metric in the repository funnels through these functions so
// the complexity accounting (Table 1 counts SAD evaluations) has a single
// source of truth. Since the SIMD subsystem landed, the SAD entry points are
// thin wrappers over the runtime-dispatched kernel table in simd/dispatch.hpp
// (scalar reference, SSE2, AVX2 — all bit-identical); the block statistics
// (Intra_SAD, mean) stay scalar here because they run once per block, not
// once per candidate.
//
// EARLY-EXIT CONTRACT (shared by every kernel variant): sad_block compares
// its running total against `early_exit` after each group of
// simd::kEarlyExitRowQuantum (= 4) rows — not after every row — and after
// the final, possibly shorter, group. On exceeding the bound it returns the
// exact partial SAD accumulated so far, which is > early_exit (safe for
// min-tracking loops) and ≤ the true block SAD. Hoisting the check to
// row-group granularity is what allows vector kernels to batch multiple
// rows per instruction while returning bit-identical values to the scalar
// reference, checkpoint for checkpoint.

#include <cstdint>

#include "video/interp.hpp"
#include "video/plane.hpp"

namespace acbm::me {

/// Sentinel meaning "no early-exit bound".
inline constexpr std::uint32_t kNoEarlyExit = 0xFFFFFFFFu;

/// @brief SAD between the `bw`×`bh` block of `cur` at (cx, cy) and the block
/// of `ref` at (rx, ry). Reference coordinates may reach into the border.
///
/// Routes through the active simd::SadKernels table. If the running sum
/// exceeds `early_exit` at a row-group checkpoint (see the contract above)
/// the function returns a partial value > early_exit without finishing the
/// block.
[[nodiscard]] std::uint32_t sad_block(const video::Plane& cur, int cx, int cy,
                                      const video::Plane& ref, int rx, int ry,
                                      int bw, int bh,
                                      std::uint32_t early_exit = kNoEarlyExit);

/// @brief SAD against a half-pel reference position. (hx, hy) is the
/// half-pel coordinate of the reference block origin: hx = 2·rx + phase.
///
/// Resolves the coordinate to an integer-plane origin plus phase pair and
/// routes through the active kernel table's FUSED interpolate+SAD slot —
/// reference samples are synthesised on the fly (H.263 rounding), no
/// pre-interpolated phase plane is read or built. Same early-exit contract
/// (and bit-identical values) as matching a pre-interpolated plane with
/// sad_block.
[[nodiscard]] std::uint32_t sad_block_halfpel(
    const video::Plane& cur, int cx, int cy, const video::HalfpelPlanes& ref,
    int hx, int hy, int bw, int bh,
    std::uint32_t early_exit = kNoEarlyExit);

/// The paper's Intra_SAD: Σ |p(i,j) − µ| over the block, with µ the block
/// mean (rounded to nearest). High values identify textured blocks.
[[nodiscard]] std::uint32_t intra_sad(const video::Plane& cur, int cx, int cy,
                                      int bw, int bh);

/// Block mean, rounded to nearest integer — exposed for tests and reuse by
/// the codec's INTRA/INTER decision.
[[nodiscard]] std::uint32_t block_mean(const video::Plane& cur, int cx, int cy,
                                       int bw, int bh);

}  // namespace acbm::me
