// AVX2 variant of the SAD kernel table.
//
// The encoder's macroblocks are 16 samples wide — half a 256-bit vector —
// so the bw == 16 fast paths pack TWO rows into each YMM register and run
// one VPSADBW per row pair, accumulating the whole block before one
// horizontal reduction. Every other width, and the odd final row of an
// odd-height block, goes through the shared 128-bit row helpers
// (sad_rows.hpp), so results are bit-identical to the scalar reference.
// Compiled with -mavx2 when the CMake feature probe accepts the flag; a
// nullptr accessor otherwise.

#include "simd/sad_kernels.hpp"

#if !defined(ACBM_DISABLE_SIMD) && defined(__AVX2__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstddef>

#include "simd/sad_rows.hpp"

namespace acbm::simd {
namespace {

/// Two independent 16-byte rows packed into one YMM register.
inline __m256i load_two_rows(const std::uint8_t* r0, const std::uint8_t* r1) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1)), 1);
}

/// Sums the four 64-bit VPSADBW accumulator lanes.
inline std::uint32_t hsum_sad256(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  return hsum_sad128(_mm_add_epi32(lo, hi));
}

std::uint32_t sad_avx2(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* ref, int ref_stride, int bw,
                       int bh) {
  std::uint32_t total = 0;
  int y = 0;
  if (bw == 16) {
    __m256i acc = _mm256_setzero_si256();
    for (; y + 2 <= bh; y += 2) {
      const std::uint8_t* a0 =
          cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
      const std::uint8_t* b0 =
          ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(load_two_rows(a0, a0 + cur_stride),
                               load_two_rows(b0, b0 + ref_stride)));
    }
    total = hsum_sad256(acc);
  }
  for (; y < bh; ++y) {
    total += row_sad(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                     ref + static_cast<std::ptrdiff_t>(y) * ref_stride, bw);
  }
  return total;
}

// ------------------------------------------------ four adjacent candidates
//
// The bw == 16 fast path loads each current row pair once (load_two_rows)
// and runs one VPSADBW per candidate against ref + 0..3, keeping four
// accumulators over the whole block. Other widths score the four candidates
// one at a time through sad_avx2.

/// Packs the totals of four VPSADBW accumulators into out[0..3]: shifting
/// one accumulator's 64-bit lanes (each < 2^32) into the high halves of
/// another's and OR-ing interleaves them losslessly, one unpack pair lines
/// up the partials within each 128-bit half, and the halves are folded.
inline void store_sums_x4(const __m256i acc[4], std::uint32_t out[4]) {
  const __m256i s01 = _mm256_or_si256(acc[0], _mm256_slli_epi64(acc[1], 32));
  const __m256i s23 = _mm256_or_si256(acc[2], _mm256_slli_epi64(acc[3], 32));
  const __m256i sums = _mm256_add_epi32(_mm256_unpacklo_epi64(s01, s23),
                                        _mm256_unpackhi_epi64(s01, s23));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_add_epi32(_mm256_castsi256_si128(sums),
                                 _mm256_extracti128_si256(sums, 1)));
}

void sad_x4_avx2(const std::uint8_t* cur, int cur_stride,
                 const std::uint8_t* ref, int ref_stride, int bw, int bh,
                 std::uint32_t out[4]) {
  if (bw != 16) {
    for (int k = 0; k < 4; ++k) {
      out[k] = sad_avx2(cur, cur_stride, ref + k, ref_stride, bw, bh);
    }
    return;
  }
  __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
  int y = 0;
  for (; y + 2 <= bh; y += 2) {
    const std::uint8_t* a0 = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* b0 = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    const __m256i va = load_two_rows(a0, a0 + cur_stride);
    for (int k = 0; k < 4; ++k) {
      acc[k] = _mm256_add_epi64(
          acc[k],
          _mm256_sad_epu8(va, load_two_rows(b0 + k, b0 + ref_stride + k)));
    }
  }
  store_sums_x4(acc, out);
  if (y < bh) {  // odd final row of the block
    const std::uint8_t* a = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* b = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int k = 0; k < 4; ++k) {
      out[k] += row_sad(a, b + k, bw);
    }
  }
}

// --------------------------------------------------- fused half-pel + SAD
//
// Same phase arithmetic as the SSE2 variant (VPAVGB for H/V — its rounding
// IS the H.263 rule — and widened 16-bit math for HV), but the bw == 16
// fast path keeps the two-rows-per-YMM packing of sad_avx2: output rows y
// and y+1 interpolate from reference rows {y, y+1} and {y+1, y+2}, which
// load_two_rows expresses directly. The shared 128-bit fused rows
// (sad_rows.hpp) cover odd tail rows and other widths.

std::uint32_t sad_halfpel_avx2(const std::uint8_t* cur, int cur_stride,
                               const std::uint8_t* ref, int ref_stride,
                               int phase_h, int phase_v, int bw, int bh) {
  if (phase_h == 0 && phase_v == 0) {
    return sad_avx2(cur, cur_stride, ref, ref_stride, bw, bh);
  }
  std::uint32_t total = 0;
  int y = 0;
  if (bw == 16) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i two = _mm256_set1_epi16(2);
    __m256i acc = _mm256_setzero_si256();
    for (; y + 2 <= bh; y += 2) {
      const std::uint8_t* c0 =
          cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
      const std::uint8_t* r_y =
          ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
      const std::uint8_t* r_y1 = r_y + ref_stride;
      const __m256i vc = load_two_rows(c0, c0 + cur_stride);
      __m256i p;
      if (phase_v == 0) {
        p = _mm256_avg_epu8(load_two_rows(r_y, r_y1),
                            load_two_rows(r_y + 1, r_y1 + 1));
      } else if (phase_h == 0) {
        p = _mm256_avg_epu8(load_two_rows(r_y, r_y1),
                            load_two_rows(r_y1, r_y1 + ref_stride));
      } else {
        // 256-bit transcription of row_sad_fused_hv (sad_rows.hpp) over a
        // packed row pair — any change to the HV rounding must be applied
        // to BOTH sites or the cross-variant bit parity breaks.
        const __m256i a = load_two_rows(r_y, r_y1);
        const __m256i b = load_two_rows(r_y + 1, r_y1 + 1);
        const __m256i d = load_two_rows(r_y1, r_y1 + ref_stride);
        const __m256i e = load_two_rows(r_y1 + 1, r_y1 + ref_stride + 1);
        const __m256i lo = _mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(_mm256_unpacklo_epi8(a, zero),
                                 _mm256_unpacklo_epi8(b, zero)),
                _mm256_add_epi16(
                    _mm256_add_epi16(_mm256_unpacklo_epi8(d, zero),
                                     _mm256_unpacklo_epi8(e, zero)),
                    two)),
            2);
        const __m256i hi = _mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(_mm256_unpackhi_epi8(a, zero),
                                 _mm256_unpackhi_epi8(b, zero)),
                _mm256_add_epi16(
                    _mm256_add_epi16(_mm256_unpackhi_epi8(d, zero),
                                     _mm256_unpackhi_epi8(e, zero)),
                    two)),
            2);
        p = _mm256_packus_epi16(lo, hi);
      }
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(vc, p));
    }
    total = hsum_sad256(acc);
  }
  for (; y < bh; ++y) {
    total += row_sad_fused(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                           ref + static_cast<std::ptrdiff_t>(y) * ref_stride,
                           ref_stride, phase_h, phase_v, bw);
  }
  return total;
}

std::uint32_t sad_quincunx_avx2(const std::uint8_t* cur, int cur_stride,
                                const std::uint8_t* ref, int ref_stride,
                                int bw, int bh) {
  std::uint32_t total = 0;
  int y = 0;
  if (bw == 16) {
    // Consecutive sampled rows y, y+2 always carry phases (0, 1), so one
    // constant YMM mask (even lanes low half, odd lanes high half) covers
    // every pair.
    const __m256i mask = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm_set1_epi16(0x00FF)),
        _mm_set1_epi16(static_cast<short>(0xFF00)), 1);
    __m256i acc = _mm256_setzero_si256();
    for (; y + 4 <= bh; y += 4) {
      const std::uint8_t* a0 =
          cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
      const std::uint8_t* b0 =
          ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
      const __m256i va =
          _mm256_and_si256(load_two_rows(a0, a0 + 2 * cur_stride), mask);
      const __m256i vb =
          _mm256_and_si256(load_two_rows(b0, b0 + 2 * ref_stride), mask);
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
    }
    total = hsum_sad256(acc);
  }
  for (; y < bh; y += 2) {
    total += row_quincunx(
        cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
        ref + static_cast<std::ptrdiff_t>(y) * ref_stride, bw, (y >> 1) & 1);
  }
  return total;
}

std::uint32_t sad_rowskip_avx2(const std::uint8_t* cur, int cur_stride,
                               const std::uint8_t* ref, int ref_stride,
                               int bw, int bh) {
  std::uint32_t total = 0;
  int y = 0;
  if (bw == 16) {
    __m256i acc = _mm256_setzero_si256();
    for (; y + 4 <= bh; y += 4) {  // sampled rows y and y+2 per op
      const std::uint8_t* a0 =
          cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
      const std::uint8_t* b0 =
          ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(load_two_rows(a0, a0 + 2 * cur_stride),
                               load_two_rows(b0, b0 + 2 * ref_stride)));
    }
    total = hsum_sad256(acc);
  }
  for (; y < bh; y += 2) {
    total += row_sad(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                     ref + static_cast<std::ptrdiff_t>(y) * ref_stride, bw);
  }
  return total;
}

constexpr SadKernels kAvx2Table = {sad_avx2, sad_halfpel_avx2, sad_x4_avx2,
                                   sad_quincunx_avx2, sad_rowskip_avx2,
                                   "avx2"};

}  // namespace

namespace detail {

const SadKernels* avx2_kernels() { return &kAvx2Table; }

}  // namespace detail
}  // namespace acbm::simd

#else  // variant compiled out

namespace acbm::simd::detail {

const SadKernels* avx2_kernels() { return nullptr; }

}  // namespace acbm::simd::detail

#endif
