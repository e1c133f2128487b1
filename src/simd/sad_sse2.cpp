// SSE2 variant of the SAD kernel table.
//
// One 128-bit PSADBW per 16 samples; rows shorter than a full vector fall
// back to an 8-byte PSADBW and a scalar tail, so any (bw, bh) is handled and
// the result is bit-identical to the scalar reference. Compiled with -msse2
// when the CMake feature probe accepts the flag; compiles to a nullptr
// accessor otherwise (or under -DACBM_DISABLE_SIMD=ON), so dispatch.cpp can
// link against this TU unconditionally.

#include "simd/sad_kernels.hpp"

#if !defined(ACBM_DISABLE_SIMD) && defined(__SSE2__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <emmintrin.h>

#include <algorithm>
#include <cstdlib>

#include "simd/sad_halfpel_rows.hpp"

namespace acbm::simd {
namespace {

/// Sums the two 64-bit PSADBW accumulator lanes (each < 2^32 for any
/// realistic block, so 32-bit extraction is safe).
inline std::uint32_t hsum_sad128(__m128i v) {
  const __m128i hi = _mm_srli_si128(v, 8);
  const __m128i s = _mm_add_epi32(v, hi);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

inline std::uint32_t row_sad_sse2(const std::uint8_t* a, const std::uint8_t* b,
                                  int bw) {
  std::uint32_t sum = 0;
  int x = 0;
  if (bw >= 16) {
    __m128i acc = _mm_setzero_si128();
    for (; x + 16 <= bw; x += 16) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + x));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + x));
      acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
    }
    sum = hsum_sad128(acc);
  }
  if (x + 8 <= bw) {
    const __m128i va =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + x));
    const __m128i vb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + x));
    sum += static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_sad_epu8(va, vb)));
    x += 8;
  }
  for (; x < bw; ++x) {
    sum += static_cast<std::uint32_t>(
        std::abs(static_cast<int>(a[x]) - static_cast<int>(b[x])));
  }
  return sum;
}

std::uint32_t sad_sse2(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* ref, int ref_stride, int bw, int bh,
                       std::uint32_t early_exit) {
  std::uint32_t total = 0;
  int y = 0;
  while (y < bh) {
    const int group_end = std::min(y + kEarlyExitRowQuantum, bh);
    for (; y < group_end; ++y) {
      total += row_sad_sse2(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                            ref + static_cast<std::ptrdiff_t>(y) * ref_stride,
                            bw);
    }
    if (total > early_exit) {
      return total;
    }
  }
  return total;
}

// ------------------------------------------------ four adjacent candidates
//
// Each 16-sample chunk of a current row is loaded once and PSADBW'd against
// ref + 0..3; the accumulators run over the whole block (no early exit) and
// are reduced together at the end. Columns past the last full chunk go
// through row_sad_sse2 per candidate.

/// Packs the totals of four PSADBW accumulators into out[0..3]. Each 64-bit
/// lane holds a value < 2^32, so shifting one accumulator's lanes into the
/// high halves of another's and OR-ing interleaves them losslessly; one
/// unpack pair then lines the four low and four high partials up to add.
inline void store_sums_x4(const __m128i acc[4], std::uint32_t out[4]) {
  const __m128i s01 = _mm_or_si128(acc[0], _mm_slli_epi64(acc[1], 32));
  const __m128i s23 = _mm_or_si128(acc[2], _mm_slli_epi64(acc[3], 32));
  const __m128i sums = _mm_add_epi32(_mm_unpacklo_epi64(s01, s23),
                                     _mm_unpackhi_epi64(s01, s23));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), sums);
}

void sad_x4_sse2(const std::uint8_t* cur, int cur_stride,
                 const std::uint8_t* ref, int ref_stride, int bw, int bh,
                 std::uint32_t out[4]) {
  const int vec_w = bw & ~15;
  __m128i acc[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                    _mm_setzero_si128(), _mm_setzero_si128()};
  std::uint32_t tail[4] = {0, 0, 0, 0};
  for (int y = 0; y < bh; ++y) {
    const std::uint8_t* a = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* b = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int x = 0; x < vec_w; x += 16) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + x));
      for (int k = 0; k < 4; ++k) {
        acc[k] = _mm_add_epi64(
            acc[k],
            _mm_sad_epu8(va, _mm_loadu_si128(
                                 reinterpret_cast<const __m128i*>(b + x + k))));
      }
    }
    if (vec_w < bw) {
      for (int k = 0; k < 4; ++k) {
        tail[k] += row_sad_sse2(a + vec_w, b + vec_w + k, bw - vec_w);
      }
    }
  }
  store_sums_x4(acc, out);
  for (int k = 0; k < 4; ++k) {
    out[k] += tail[k];
  }
}

// --------------------------------------------------- fused half-pel + SAD
//
// Row arithmetic lives in sad_halfpel_rows.hpp (shared with the AVX2 TU):
// PAVGB for the H/V phases — its rounding IS the H.263 bilinear rule — and
// widened 16-bit math for HV, which has no single-op equivalent.

std::uint32_t sad_halfpel_sse2(const std::uint8_t* cur, int cur_stride,
                               const std::uint8_t* ref, int ref_stride,
                               int phase_h, int phase_v, int bw, int bh,
                               std::uint32_t early_exit) {
  if (phase_h == 0 && phase_v == 0) {
    return sad_sse2(cur, cur_stride, ref, ref_stride, bw, bh, early_exit);
  }
  std::uint32_t total = 0;
  int y = 0;
  while (y < bh) {
    const int group_end = std::min(y + kEarlyExitRowQuantum, bh);
    for (; y < group_end; ++y) {
      total += detail::row_sad_fused(
          cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
          ref + static_cast<std::ptrdiff_t>(y) * ref_stride, ref_stride,
          phase_h, phase_v, bw);
    }
    if (total > early_exit) {
      return total;
    }
  }
  return total;
}

/// Masked PSADBW over one quincunx-sampled row. Zeroing the discarded lanes
/// in *both* operands makes their |difference| zero, so a full-width PSADBW
/// sums exactly the kept columns. Chunk origins are multiples of 16 (even),
/// so lane parity within a chunk equals column parity and one constant mask
/// per phase covers every chunk.
inline std::uint32_t row_quincunx_sse2(const std::uint8_t* a,
                                       const std::uint8_t* b, int bw,
                                       int phase) {
  const __m128i mask = phase != 0
                           ? _mm_set1_epi16(static_cast<short>(0xFF00))
                           : _mm_set1_epi16(0x00FF);
  std::uint32_t sum = 0;
  int x = 0;
  if (bw >= 16) {
    __m128i acc = _mm_setzero_si128();
    for (; x + 16 <= bw; x += 16) {
      const __m128i va = _mm_and_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + x)), mask);
      const __m128i vb = _mm_and_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + x)), mask);
      acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
    }
    sum = hsum_sad128(acc);
  }
  for (x += phase; x < bw; x += 2) {
    sum += static_cast<std::uint32_t>(
        std::abs(static_cast<int>(a[x]) - static_cast<int>(b[x])));
  }
  return sum;
}

std::uint32_t sad_quincunx_sse2(const std::uint8_t* cur, int cur_stride,
                                const std::uint8_t* ref, int ref_stride,
                                int bw, int bh) {
  std::uint32_t total = 0;
  for (int y = 0; y < bh; y += 2) {
    total += row_quincunx_sse2(
        cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
        ref + static_cast<std::ptrdiff_t>(y) * ref_stride, bw, (y >> 1) & 1);
  }
  return total;
}

std::uint32_t sad_rowskip_sse2(const std::uint8_t* cur, int cur_stride,
                               const std::uint8_t* ref, int ref_stride,
                               int bw, int bh) {
  std::uint32_t total = 0;
  for (int y = 0; y < bh; y += 2) {
    total += row_sad_sse2(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                          ref + static_cast<std::ptrdiff_t>(y) * ref_stride,
                          bw);
  }
  return total;
}

constexpr SadKernels kSse2Table = {sad_sse2, sad_halfpel_sse2, sad_x4_sse2,
                                   sad_quincunx_sse2, sad_rowskip_sse2,
                                   "sse2"};

}  // namespace

namespace detail {

const SadKernels* sse2_kernels() { return &kSse2Table; }

}  // namespace detail
}  // namespace acbm::simd

#else  // variant compiled out

namespace acbm::simd::detail {

const SadKernels* sse2_kernels() { return nullptr; }

}  // namespace acbm::simd::detail

#endif
