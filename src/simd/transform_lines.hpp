#pragma once
// Shared SSE2 helper for the vector inverse transforms.
//
// Included ONLY by the ISA translation units (transform_sse2.cpp,
// transform_avx2.cpp) inside their feature-gated #if blocks, so every
// includer is compiled with at least -msse2. The helper has internal
// linkage: each TU keeps its own copy, built with its own ISA flags, and
// the linker can never hand the AVX2 build of it to the SSE2 path. One
// source copy matters because the mask decides which terms the products
// skip; a wrong bit changes results.

#include <emmintrin.h>

#include <cstdint>

namespace acbm::simd {
namespace {

/// Which terms of a coefficient block can contribute. Bit v of `rows`: row
/// v has a nonzero entry. Bit u of `cols`: column u has one. A zero
/// coefficient row adds nothing to the column pass, and a zero coefficient
/// column leaves that column of the intermediate at +0.0, which adds
/// nothing to the row pass.
struct NonzeroLines {
  unsigned rows = 0;
  unsigned cols = 0;
};

inline NonzeroLines nonzero_lines(const std::int16_t* in) {
  NonzeroLines lines;
  const __m128i zero = _mm_setzero_si128();
  __m128i any = zero;
  for (int v = 0; v < 8; ++v) {
    const __m128i row =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + v * 8));
    any = _mm_or_si128(any, row);
    if (_mm_movemask_epi8(_mm_cmpeq_epi16(row, zero)) != 0xFFFF) {
      lines.rows |= 1u << v;
    }
  }
  const unsigned zero_bytes =
      static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi16(any, zero)));
  for (int u = 0; u < 8; ++u) {
    if (((zero_bytes >> (2 * u)) & 1u) == 0) {
      lines.cols |= 1u << u;
    }
  }
  return lines;
}

}  // namespace
}  // namespace acbm::simd
