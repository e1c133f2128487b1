#pragma once
// The SAD kernel function table — the contract every ISA variant implements.
//
// Motion estimation spends nearly all of its time inside the SAD inner loop,
// so that loop is the one place in the repository with per-ISA code. The
// rest of the system never names an instruction set: `me::sad_block` and
// friends call through the table returned by `simd::active_kernels()`
// (see dispatch.hpp), and every variant of the table computes *bit-identical
// results* — the scalar implementation is the ground truth, and
// tests/simd_sad_test.cpp holds the SSE2/AVX2 variants to exact equality
// over randomized and saturated blocks and offsets. Every kernel returns the
// exact sum over its block: the paper's complexity count and ACBM's
// SAD_deviation statistic both need the full SAD of each candidate.
//
// Kernels operate on raw row pointers + strides rather than video::Plane so
// the ISA translation units depend on nothing but this header. Callers are
// responsible for bounds: a kernel reads exactly `bw` samples from each of
// `bh` rows (every other row for the decimated patterns) starting at the
// given pointers — no overread, which keeps the kernels sanitizer-clean
// against video::Plane's border guarantee.

#include <cstdint>

namespace acbm::simd {

/// @brief Full-block SAD; also the signature of the decimated slots, which
/// sum only their pattern's sampled positions.
///
/// @param cur        first sample of the current block's top row
/// @param cur_stride distance in samples between vertically adjacent rows
/// @param ref        first sample of the reference block's top row
/// @param ref_stride reference row stride in samples
/// @param bw,bh      block width/height in samples (any positive values)
/// @return the exact SAD over the whole block; every ISA variant returns
///         the same value for the same inputs.
using SadFn = std::uint32_t (*)(const std::uint8_t* cur, int cur_stride,
                                const std::uint8_t* ref, int ref_stride,
                                int bw, int bh);

/// @brief Fused half-pel interpolate + SAD.
///
/// `ref` points at the INTEGER-pel reference sample (rX, rY) = the floor of
/// the half-pel block origin; (phase_h, phase_v) ∈ {0,1}² select the H.263
/// bilinear phase. The kernel synthesises each interpolated reference
/// sample on the fly — (a+b+1)>>1 for the H/V phases, (a+b+c+d+2)>>2 for
/// HV — and returns the exact sum of |cur − interp| over the block, so every
/// variant returns bit-identical values to matching a pre-interpolated phase
/// plane with the plain SAD kernel. A kernel reads `bw + phase_h` samples
/// from each of `bh + phase_v` reference rows; the caller guarantees those
/// bounds (half-pel origins stay one sample inside the integer plane's
/// border, which covers the +1 overread).
///
/// Phase (0, 0) degrades to the plain SAD — callers need not special-case
/// integer candidates.
using SadHalfpelFn = std::uint32_t (*)(const std::uint8_t* cur, int cur_stride,
                                       const std::uint8_t* ref, int ref_stride,
                                       int phase_h, int phase_v, int bw,
                                       int bh);

/// @brief Four-candidate full-block SAD.
///
/// Writes to `out[k]` the exact SAD of the `bw`×`bh` block at `cur` against
/// the reference block at `ref + k`, for k = 0..3 — four horizontally
/// adjacent integer candidates scored in one call, each current row loaded
/// once for all four. Every out[k] equals SadFn(cur, ..., ref + k, ...) in
/// every variant. The kernel reads exactly `bw + 3` samples from each of
/// `bh` reference rows (and `bw` from each current row); the caller
/// guarantees those bounds. Same pointer/stride conventions as SadFn.
using SadX4Fn = void (*)(const std::uint8_t* cur, int cur_stride,
                         const std::uint8_t* ref, int ref_stride, int bw,
                         int bh, std::uint32_t out[4]);

/// @brief One ISA's complete set of SAD kernels.
///
/// Populated once per compiled variant (scalar always; SSE2/AVX2 when the
/// CMake feature probe enables them) and selected at runtime by
/// simd::dispatch. All function pointers are always non-null.
struct SadKernels {
  /// Full-block SAD (see SadFn).
  SadFn sad;

  /// Fused interpolate+SAD against the integer-pel reference (see
  /// SadHalfpelFn). me::sad_block_halfpel resolves half-pel coordinates to
  /// an integer origin + phase pair and calls this slot directly; no
  /// pre-interpolated phase planes are involved, so the reference is only
  /// ever the integer-pel plane.
  SadHalfpelFn sad_halfpel;

  /// Four adjacent integer candidates per call (see SadX4Fn). The full
  /// search's integer raster scan scores each candidate row in groups of
  /// four through this slot.
  SadX4Fn sad_x4;

  /// Quincunx 4:1 decimation (Liu–Zaccarin pattern A): every other row is
  /// sampled, and within a sampled row every other column, with the column
  /// phase alternating between sampled rows: row y contributes columns
  /// x ≡ (y>>1)&1 (mod 2), y even. Matches me::DecimationPattern::kQuincunx4to1.
  SadFn sad_quincunx;

  /// Row-skip 2:1 decimation (Chan & Siu): full rows, every other row
  /// (y = 0, 2, 4, ...). Matches me::DecimationPattern::kRowSkip2to1.
  SadFn sad_rowskip;

  /// Stable lowercase identifier: "scalar", "sse2", "avx2". Used by the
  /// --kernel CLI flag and bench output.
  const char* name;
};

namespace detail {
/// Per-variant table accessors. The scalar table always exists; the ISA
/// accessors return nullptr when the variant was compiled out (feature probe
/// failure, non-x86 target, or -DACBM_DISABLE_SIMD=ON).
[[nodiscard]] const SadKernels* scalar_kernels();
[[nodiscard]] const SadKernels* sse2_kernels();
[[nodiscard]] const SadKernels* avx2_kernels();
}  // namespace detail

}  // namespace acbm::simd
