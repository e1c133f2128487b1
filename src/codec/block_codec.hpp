#pragma once
// The per-8×8-block transform pipeline shared by encoder and decoder.
//
// Encoder side: samples/residual → DCT → quantize → levels.
// Decoder side (also the encoder's reconstruction loop — both run the same
// code, which is what makes encoder/decoder reconstruction bit-exact):
// levels → dequantize → IDCT → samples/residual.

#include <cstdint>

#include "codec/dct.hpp"

namespace acbm::codec {

/// Forward path for an INTRA block: transforms the 8×8 source samples,
/// quantizes AC coefficients into `levels` (levels[0] = 0) and returns the
/// fixed-step DC level.
std::uint8_t encode_intra_block(const std::uint8_t* src, int src_stride,
                                std::int16_t levels[kDctSamples], int qp);

/// Inverse path for an INTRA block: writes reconstructed samples.
void reconstruct_intra_block(const std::int16_t levels[kDctSamples],
                             std::uint8_t dc_level, int qp, std::uint8_t* dst,
                             int dst_stride);

/// Forward path for an INTER block: transforms src − pred and quantizes.
void encode_inter_block(const std::uint8_t* src, int src_stride,
                        const std::uint8_t* pred, int pred_stride,
                        std::int16_t levels[kDctSamples], int qp);

/// Inverse path for an INTER block: dst = clamp(pred + IDCT(dequant)).
/// All-zero levels (an uncoded block) short-cut to a copy of pred, which is
/// exactly what the full path produces.
void reconstruct_inter_block(const std::int16_t levels[kDctSamples],
                             const std::uint8_t* pred, int pred_stride, int qp,
                             std::uint8_t* dst, int dst_stride);

}  // namespace acbm::codec
