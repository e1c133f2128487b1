#pragma once
// H.263-style quantization (TMN reference behaviour).
//
//   intra DC : fixed step 8, level clamped to [1, 254]
//   intra AC : LEVEL = COF / (2·QP)                      (no dead zone)
//   inter    : LEVEL = (|COF| − QP/2) / (2·QP) · sign    (dead zone QP/2)
//   dequant  : |COF'| = QP·(2·|LEVEL| + 1)   − (QP even ? 1 : 0), 0 if LEVEL=0
//
// The Qp-proportional step is what gives the paper's β·Qp² term its meaning:
// the quantiser absorbs matching errors up to O(Qp) per coefficient, so the
// tolerable SAD scales with Qp (and the Lagrangian λ with Qp²-in-SSD ≡ Qp-in-
// SAD).

#include <cstdint>

#include "codec/dct.hpp"

namespace acbm::codec {

/// Valid H.263 quantiser range.
inline constexpr int kMinQp = 1;
inline constexpr int kMaxQp = 31;

/// Quantizes one AC (or inter-DC) coefficient.
[[nodiscard]] std::int16_t quant_ac(double coeff, int qp, bool intra);

/// Dequantizes one AC (or inter-DC) level.
[[nodiscard]] std::int16_t dequant_ac(std::int16_t level, int qp);

/// Quantizes the intra DC coefficient (orthonormal DCT: DC = 8·mean).
[[nodiscard]] std::uint8_t quant_intra_dc(double coeff);

/// Dequantizes the intra DC level.
[[nodiscard]] std::int16_t dequant_intra_dc(std::uint8_t level);

/// Block forms, run on the active simd::TransformKernels variant (each one
/// bit-identical to applying quant_ac / dequant_ac per coefficient). For
/// intra blocks, index 0 holds the DC and is NOT touched by quantize_block
/// (the caller codes it via quant_intra_dc); levels[0] is set to zero.
void quantize_block(const double coeffs[kDctSamples],
                    std::int16_t levels[kDctSamples], int qp, bool intra);

void dequantize_block(const std::int16_t levels[kDctSamples],
                      std::int16_t coeffs[kDctSamples], int qp, bool intra);

}  // namespace acbm::codec
