#pragma once
// The 8×8 transform kernel table — forward DCT, quantisation,
// dequantisation and the rounding inverse DCT, per ISA.
//
// Same contract as the SAD table (sad_kernels.hpp): the scalar variant in
// transform_scalar.cpp is the ground truth, and every SSE2/AVX2 variant
// returns *bit-identical* results for every input in the documented domain
// — tests/simd_transform_test.cpp compares doubles with memcmp. The codec's
// public entry points (codec::forward_dct8x8, quantize_block,
// dequantize_block, inverse_dct8x8_to_int) call through the table returned
// by simd::active_transforms(), which --kernel / select_kernels() switch
// together with the SAD table.
//
// How the vector variants stay exact:
//   * Each pass of the separable 8×8 product vectorises across independent
//     OUTPUTS, never across the terms of one sum: a lane holds one output,
//     starts at +0.0 and adds basis·sample products for k = 0..7 in
//     ascending order, as separate IEEE multiplies and adds (no FMA; these
//     TUs are built with -ffp-contract=off and without -mfma). Each step
//     broadcasts one scalar and multiplies it by a contiguous 8-wide row.
//   * A term known to be ±0 for every output (an all-zero coefficient row
//     or column) may be skipped: an accumulator that starts at +0.0 never
//     becomes −0.0, and adding ±0 to it changes no bit.
//   * Quantisation divides with the IEEE-exact vector divide and clamps in
//     the double domain before truncating, which equals the scalar
//     truncate-then-clamp for every finite value.
//   * lround (half away from zero) for |x| < 2^31 is t = trunc(x),
//     f = x − t (exact), r = t + (f ≥ 0.5) − (f ≤ −0.5).
//
// Kernels take raw 64-element row-major arrays so the ISA translation units
// depend on nothing outside src/simd.

#include <cstdint>

namespace acbm::simd {

/// Samples in one 8×8 transform block.
inline constexpr int kBlockSamples = 64;

/// Orthonormal 1-D DCT basis: basis[u][x] = C(u)·cos((2x+1)uπ/16)/2 with
/// C(0) = 1/√2 and C(u) = 1 otherwise. Shared by every variant so all of
/// them multiply by the same doubles.
using DctBasis = double[8][8];
[[nodiscard]] const DctBasis& dct_basis();

/// The transpose, transposed[x][u] = basis[u][x]: the forward row pass
/// multiplies each sample by a contiguous row of it.
[[nodiscard]] const DctBasis& dct_basis_transposed();

/// @brief Forward DCT: spatial samples/residuals (row-major) → coefficients.
/// Row pass tmp[y][u] = Σ_x basis[u][x]·in[y][x], then column pass
/// out[v][u] = Σ_y basis[v][y]·tmp[y][u], each sum from +0.0, k ascending.
using ForwardDctFn = void (*)(const std::int16_t in[kBlockSamples],
                              double out[kBlockSamples]);

/// @brief H.263 quantisation of a whole block (see codec/quant.hpp for the
/// rule). For intra blocks levels[0] is set to 0 (the caller codes the DC
/// out of band). qp ∈ [1, 31].
using QuantizeFn = void (*)(const double coeffs[kBlockSamples],
                            std::int16_t levels[kBlockSamples], int qp,
                            bool intra);

/// @brief H.263 dequantisation of a whole block, clamped to ±2047. For
/// intra blocks coeffs[0] is set to 0. Exact for every int16 level;
/// qp ∈ [1, 31].
using DequantizeFn = void (*)(const std::int16_t levels[kBlockSamples],
                              std::int16_t coeffs[kBlockSamples], int qp,
                              bool intra);

/// @brief Inverse DCT of integer coefficients, each output rounded with
/// lround and clamped to [−limit, limit]; limit ∈ [0, 32767]. Column pass
/// tmp[y][u] = Σ_v basis[v][y]·in[v][u], then row pass
/// out[y][x] = Σ_u basis[u][x]·tmp[y][u], each sum from +0.0, k ascending.
using InverseDctToIntFn = void (*)(const std::int16_t in[kBlockSamples],
                                   std::int16_t out[kBlockSamples], int limit);

/// @brief One ISA's complete set of transform kernels; every pointer is
/// non-null.
struct TransformKernels {
  ForwardDctFn forward_dct;
  QuantizeFn quantize;
  DequantizeFn dequantize;
  InverseDctToIntFn inverse_dct_to_int;
  /// Same identifiers as SadKernels::name: "scalar", "sse2", "avx2".
  const char* name;
};

/// @brief Scalar inverse DCT to doubles (unrounded), in the summation order
/// documented on InverseDctToIntFn (the scalar variant and
/// codec::inverse_dct8x8 use it).
void inverse_dct8x8_scalar(const double in[kBlockSamples],
                           double out[kBlockSamples]);

/// @brief The scalar per-coefficient quantiser rules the block kernels apply
/// (codec::quant_ac / codec::dequant_ac forward here).
[[nodiscard]] std::int16_t quantize_coeff_scalar(double coeff, int qp,
                                                 bool intra);
[[nodiscard]] std::int16_t dequantize_level_scalar(std::int16_t level,
                                                   int qp);

namespace detail {
/// Per-variant table accessors, gated exactly like the SAD accessors: the
/// ISA ones return nullptr when the variant was compiled out.
[[nodiscard]] const TransformKernels* scalar_transforms();
[[nodiscard]] const TransformKernels* sse2_transforms();
[[nodiscard]] const TransformKernels* avx2_transforms();
}  // namespace detail

}  // namespace acbm::simd
