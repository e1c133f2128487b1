#pragma once
// 8×8 orthonormal type-II DCT / type-III IDCT.
//
// The transform pair is exact to floating-point precision; quantization is
// the only lossy stage in the codec. With the orthonormal scaling the DC
// coefficient equals 8·(block mean), so intra DC fits H.263's fixed
// step-8 quantizer (levels 1..254 cover means 0..255).
//
// The block transforms run on the active simd::TransformKernels variant
// (see simd/transform_kernels.hpp for the exact summation order every
// variant reproduces bit for bit); --kernel selects it with the SAD table.

#include <cstdint>

namespace acbm::codec {

inline constexpr int kDctSize = 8;
inline constexpr int kDctSamples = kDctSize * kDctSize;

/// Forward DCT: spatial samples/residuals (row-major) → coefficients.
void forward_dct8x8(const std::int16_t in[kDctSamples],
                    double out[kDctSamples]);

/// Inverse DCT: coefficients → spatial values (row-major, unrounded).
void inverse_dct8x8(const double in[kDctSamples], double out[kDctSamples]);

/// Inverse DCT from integer (dequantized) coefficients, rounded to the
/// nearest integer (lround) and clamped to [-limit, limit], with
/// 0 <= limit <= 32767. The codec uses limit = 512.
void inverse_dct8x8_to_int(const std::int16_t in[kDctSamples],
                           std::int16_t out[kDctSamples], int limit = 512);

}  // namespace acbm::codec
