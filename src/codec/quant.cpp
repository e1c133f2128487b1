#include "codec/quant.hpp"

#include <algorithm>
#include <cmath>

#include "simd/dispatch.hpp"

namespace acbm::codec {

std::int16_t quant_ac(double coeff, int qp, bool intra) {
  return simd::quantize_coeff_scalar(coeff, qp, intra);
}

std::int16_t dequant_ac(std::int16_t level, int qp) {
  return simd::dequantize_level_scalar(level, qp);
}

std::uint8_t quant_intra_dc(double coeff) {
  long level = std::lround(coeff / 8.0);
  level = std::clamp<long>(level, 1, 254);
  return static_cast<std::uint8_t>(level);
}

std::int16_t dequant_intra_dc(std::uint8_t level) {
  return static_cast<std::int16_t>(static_cast<int>(level) * 8);
}

void quantize_block(const double coeffs[kDctSamples],
                    std::int16_t levels[kDctSamples], int qp, bool intra) {
  simd::active_transforms().quantize(coeffs, levels, qp, intra);
}

void dequantize_block(const std::int16_t levels[kDctSamples],
                      std::int16_t coeffs[kDctSamples], int qp, bool intra) {
  simd::active_transforms().dequantize(levels, coeffs, qp, intra);
}

}  // namespace acbm::codec
