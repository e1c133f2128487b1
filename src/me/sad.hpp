#pragma once
// Sum-of-absolute-differences kernels plus the paper's two block statistics.
//
// Every matching metric in the repository funnels through these functions, so
// the SADs a search computes (EstimateResult::sad_evaluations) have a single
// source of truth. Since the SIMD subsystem landed, the SAD entry points are
// thin wrappers over the runtime-dispatched kernel table in simd/dispatch.hpp
// (scalar reference, SSE2, AVX2 — all bit-identical); the block statistics
// (Intra_SAD, mean) stay scalar here because they run once per block, not
// once per candidate.
//
// Every entry point returns the exact SAD of the whole block: a scored
// position is one full SAD, and ACBM's SAD_deviation (Σ SAD − N·SAD_min)
// needs the true value of every candidate. Table 1 counts positions, which
// also include the candidates full search proves cannot win without a SAD
// (me/block_sums.hpp).

#include <cstdint>

#include "video/interp.hpp"
#include "video/plane.hpp"

namespace acbm::me {

/// @brief SAD between the `bw`×`bh` block of `cur` at (cx, cy) and the block
/// of `ref` at (rx, ry). Reference coordinates may reach into the border.
///
/// Routes through the active simd::SadKernels table.
[[nodiscard]] std::uint32_t sad_block(const video::Plane& cur, int cx, int cy,
                                      const video::Plane& ref, int rx, int ry,
                                      int bw, int bh);

/// @brief SAD against a half-pel reference position. (hx, hy) is the
/// half-pel coordinate of the reference block origin: hx = 2·rx + phase.
///
/// Resolves the coordinate to an integer-plane origin plus phase pair and
/// routes through the active kernel table's FUSED interpolate+SAD slot —
/// reference samples are synthesised on the fly (H.263 rounding), no
/// pre-interpolated phase plane is read or built. Bit-identical to matching
/// a pre-interpolated plane with sad_block.
[[nodiscard]] std::uint32_t sad_block_halfpel(
    const video::Plane& cur, int cx, int cy, const video::HalfpelPlanes& ref,
    int hx, int hy, int bw, int bh);

/// The paper's Intra_SAD: Σ |p(i,j) − µ| over the block, with µ the block
/// mean (rounded to nearest). High values identify textured blocks.
[[nodiscard]] std::uint32_t intra_sad(const video::Plane& cur, int cx, int cy,
                                      int bw, int bh);

/// Σ of the block's samples: block_mean's numerator, and the ΣB of full
/// search's successive elimination bound (me/block_sums.hpp).
[[nodiscard]] std::uint32_t block_sum(const video::Plane& cur, int cx, int cy,
                                      int bw, int bh);

/// Block mean, rounded to nearest integer — exposed for tests and reuse by
/// the codec's INTRA/INTER decision.
[[nodiscard]] std::uint32_t block_mean(const video::Plane& cur, int cx, int cy,
                                       int bw, int bh);

}  // namespace acbm::me
