#include "codec/dct.hpp"

#include "simd/dispatch.hpp"

namespace acbm::codec {

static_assert(kDctSamples == simd::kBlockSamples);

void forward_dct8x8(const std::int16_t in[kDctSamples],
                    double out[kDctSamples]) {
  simd::active_transforms().forward_dct(in, out);
}

void inverse_dct8x8(const double in[kDctSamples], double out[kDctSamples]) {
  simd::inverse_dct8x8_scalar(in, out);
}

void inverse_dct8x8_to_int(const std::int16_t in[kDctSamples],
                           std::int16_t out[kDctSamples], int limit) {
  simd::active_transforms().inverse_dct_to_int(in, out, limit);
}

}  // namespace acbm::codec
