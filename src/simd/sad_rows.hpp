#pragma once
// Shared 128-bit SAD row helpers: plain, quincunx-decimated and fused
// interpolate+SAD rows.
//
// Included ONLY by the ISA translation units (sad_sse2.cpp, sad_avx2.cpp)
// inside their feature-gated #if blocks — every includer is compiled with
// at least -msse2, so the intrinsics here are always legal. The helpers
// have internal linkage: each TU keeps its own copy, built with its own ISA
// flags, and the linker can never hand the AVX2 build of one to the SSE2
// table (see transform_lines.hpp). One source copy matters because the
// fused rows encode the H.263 rounding ((a+b+1)>>1 via PAVGB;
// (a+b+c+d+2)>>2 via widened 16-bit math, which is NOT
// avg(avg(a,b),avg(c,d))), and the cross-variant bit-parity contract dies
// silently if two hand-maintained copies drift.
//
// Every row helper returns the exact sum over its row. Fused-row pointer
// conventions match SadHalfpelFn: `c` is the current row, `r0` the integer
// reference row bracketing the half-pel position from above, `r1` the row
// below (callers pass r0 + ref_stride). H reads bw+1 columns of r0; V reads
// bw columns of r0 and r1; HV reads bw+1 columns of both.

#include <emmintrin.h>

#include <cstdint>
#include <cstdlib>

namespace acbm::simd {
namespace {

/// Sums the two 64-bit PSADBW accumulator lanes (each < 2^32 for any
/// realistic block, so 32-bit extraction is safe).
inline std::uint32_t hsum_sad128(__m128i v) {
  const __m128i hi = _mm_srli_si128(v, 8);
  const __m128i s = _mm_add_epi32(v, hi);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

/// One row of |a − b|: a PSADBW per 16 samples, then an 8-byte PSADBW and a
/// scalar tail, so any width is handled.
inline std::uint32_t row_sad(const std::uint8_t* a, const std::uint8_t* b,
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

/// Masked PSADBW over one quincunx-sampled row (columns x ≡ phase mod 2).
/// Zeroing the discarded lanes in *both* operands makes their |difference|
/// zero, so a full-width PSADBW sums exactly the kept columns. Chunk origins
/// are multiples of 16 (even), so lane parity within a chunk equals column
/// parity and one constant mask per phase covers every chunk.
inline std::uint32_t row_quincunx(const std::uint8_t* a, const std::uint8_t* b,
                                  int bw, int phase) {
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

/// One row of |cur − interp| for the H phase: (r[x] + r[x+1] + 1) >> 1.
inline std::uint32_t row_sad_fused_h(const std::uint8_t* c,
                                     const std::uint8_t* r, int bw) {
  std::uint32_t sum = 0;
  int x = 0;
  if (bw >= 16) {
    __m128i acc = _mm_setzero_si128();
    for (; x + 16 <= bw; x += 16) {
      const __m128i p = _mm_avg_epu8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + x)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + x + 1)));
      const __m128i vc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + x));
      acc = _mm_add_epi64(acc, _mm_sad_epu8(vc, p));
    }
    sum = hsum_sad128(acc);
  }
  for (; x < bw; ++x) {
    const int p = (r[x] + r[x + 1] + 1) >> 1;
    sum += static_cast<std::uint32_t>(std::abs(static_cast<int>(c[x]) - p));
  }
  return sum;
}

/// One row for the V phase: (r0[x] + r1[x] + 1) >> 1.
inline std::uint32_t row_sad_fused_v(const std::uint8_t* c,
                                     const std::uint8_t* r0,
                                     const std::uint8_t* r1, int bw) {
  std::uint32_t sum = 0;
  int x = 0;
  if (bw >= 16) {
    __m128i acc = _mm_setzero_si128();
    for (; x + 16 <= bw; x += 16) {
      const __m128i p = _mm_avg_epu8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + x)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + x)));
      const __m128i vc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + x));
      acc = _mm_add_epi64(acc, _mm_sad_epu8(vc, p));
    }
    sum = hsum_sad128(acc);
  }
  for (; x < bw; ++x) {
    const int p = (r0[x] + r1[x] + 1) >> 1;
    sum += static_cast<std::uint32_t>(std::abs(static_cast<int>(c[x]) - p));
  }
  return sum;
}

/// One row for the HV phase: (r0[x] + r0[x+1] + r1[x] + r1[x+1] + 2) >> 2,
/// computed in 16-bit lanes (no saturation: the result is ≤ 255). The AVX2
/// bw==16 fast path carries a 256-bit transcription of this sequence over
/// packed row pairs (sad_avx2.cpp) — change both together.
inline std::uint32_t row_sad_fused_hv(const std::uint8_t* c,
                                      const std::uint8_t* r0,
                                      const std::uint8_t* r1, int bw) {
  std::uint32_t sum = 0;
  int x = 0;
  if (bw >= 16) {
    const __m128i zero = _mm_setzero_si128();
    const __m128i two = _mm_set1_epi16(2);
    __m128i acc = _mm_setzero_si128();
    for (; x + 16 <= bw; x += 16) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + x));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + x + 1));
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + x));
      const __m128i e =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + x + 1));
      const __m128i lo = _mm_srli_epi16(
          _mm_add_epi16(
              _mm_add_epi16(_mm_unpacklo_epi8(a, zero),
                            _mm_unpacklo_epi8(b, zero)),
              _mm_add_epi16(_mm_add_epi16(_mm_unpacklo_epi8(d, zero),
                                          _mm_unpacklo_epi8(e, zero)),
                            two)),
          2);
      const __m128i hi = _mm_srli_epi16(
          _mm_add_epi16(
              _mm_add_epi16(_mm_unpackhi_epi8(a, zero),
                            _mm_unpackhi_epi8(b, zero)),
              _mm_add_epi16(_mm_add_epi16(_mm_unpackhi_epi8(d, zero),
                                          _mm_unpackhi_epi8(e, zero)),
                            two)),
          2);
      const __m128i p = _mm_packus_epi16(lo, hi);
      const __m128i vc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + x));
      acc = _mm_add_epi64(acc, _mm_sad_epu8(vc, p));
    }
    sum = hsum_sad128(acc);
  }
  for (; x < bw; ++x) {
    const int p = (r0[x] + r0[x + 1] + r1[x] + r1[x + 1] + 2) >> 2;
    sum += static_cast<std::uint32_t>(std::abs(static_cast<int>(c[x]) - p));
  }
  return sum;
}

/// Phase-dispatching row helper for non-integer phases (phase_h/phase_v
/// not both zero).
inline std::uint32_t row_sad_fused(const std::uint8_t* c,
                                   const std::uint8_t* r0, int ref_stride,
                                   int phase_h, int phase_v, int bw) {
  if (phase_v == 0) {
    return row_sad_fused_h(c, r0, bw);
  }
  if (phase_h == 0) {
    return row_sad_fused_v(c, r0, r0 + ref_stride, bw);
  }
  return row_sad_fused_hv(c, r0, r0 + ref_stride, bw);
}

}  // namespace
}  // namespace acbm::simd
