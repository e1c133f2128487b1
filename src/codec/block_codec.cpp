#include "codec/block_codec.hpp"

#include <algorithm>
#include <cstring>

#include "codec/quant.hpp"

namespace acbm::codec {

namespace {

std::uint8_t clamp_sample(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

bool all_zero(const std::int16_t levels[kDctSamples]) {
  int any = 0;
  for (int i = 0; i < kDctSamples; ++i) {
    any |= levels[i];
  }
  return any == 0;
}

}  // namespace

std::uint8_t encode_intra_block(const std::uint8_t* src, int src_stride,
                                std::int16_t levels[kDctSamples], int qp) {
  std::int16_t samples[kDctSamples];
  for (int y = 0; y < kDctSize; ++y) {
    for (int x = 0; x < kDctSize; ++x) {
      samples[y * kDctSize + x] =
          src[static_cast<std::ptrdiff_t>(y) * src_stride + x];
    }
  }
  double coeffs[kDctSamples];
  forward_dct8x8(samples, coeffs);
  quantize_block(coeffs, levels, qp, /*intra=*/true);
  return quant_intra_dc(coeffs[0]);
}

void reconstruct_intra_block(const std::int16_t levels[kDctSamples],
                             std::uint8_t dc_level, int qp, std::uint8_t* dst,
                             int dst_stride) {
  std::int16_t coeffs[kDctSamples];
  dequantize_block(levels, coeffs, qp, /*intra=*/true);
  coeffs[0] = dequant_intra_dc(dc_level);
  std::int16_t spatial[kDctSamples];
  inverse_dct8x8_to_int(coeffs, spatial, /*limit=*/512);
  for (int y = 0; y < kDctSize; ++y) {
    for (int x = 0; x < kDctSize; ++x) {
      dst[static_cast<std::ptrdiff_t>(y) * dst_stride + x] =
          clamp_sample(spatial[y * kDctSize + x]);
    }
  }
}

void encode_inter_block(const std::uint8_t* src, int src_stride,
                        const std::uint8_t* pred, int pred_stride,
                        std::int16_t levels[kDctSamples], int qp) {
  std::int16_t residual[kDctSamples];
  for (int y = 0; y < kDctSize; ++y) {
    for (int x = 0; x < kDctSize; ++x) {
      residual[y * kDctSize + x] = static_cast<std::int16_t>(
          static_cast<int>(src[static_cast<std::ptrdiff_t>(y) * src_stride + x]) -
          static_cast<int>(
              pred[static_cast<std::ptrdiff_t>(y) * pred_stride + x]));
    }
  }
  double coeffs[kDctSamples];
  forward_dct8x8(residual, coeffs);
  quantize_block(coeffs, levels, qp, /*intra=*/false);
}

void reconstruct_inter_block(const std::int16_t levels[kDctSamples],
                             const std::uint8_t* pred, int pred_stride, int qp,
                             std::uint8_t* dst, int dst_stride) {
  // An uncoded block reconstructs to the prediction exactly: every dequant
  // level is 0, every IDCT product ±0, every sum +0 and lround(+0) == 0.
  if (all_zero(levels)) {
    for (int y = 0; y < kDctSize; ++y) {
      std::memcpy(dst + static_cast<std::ptrdiff_t>(y) * dst_stride,
                  pred + static_cast<std::ptrdiff_t>(y) * pred_stride,
                  kDctSize);
    }
    return;
  }
  std::int16_t coeffs[kDctSamples];
  dequantize_block(levels, coeffs, qp, /*intra=*/false);
  std::int16_t residual[kDctSamples];
  inverse_dct8x8_to_int(coeffs, residual, /*limit=*/512);
  for (int y = 0; y < kDctSize; ++y) {
    for (int x = 0; x < kDctSize; ++x) {
      dst[static_cast<std::ptrdiff_t>(y) * dst_stride + x] = clamp_sample(
          static_cast<int>(
              pred[static_cast<std::ptrdiff_t>(y) * pred_stride + x]) +
          residual[y * kDctSize + x]);
    }
  }
}

}  // namespace acbm::codec
