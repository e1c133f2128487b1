// SSE2 variant of the transform kernel table.
//
// The same output-parallel product as transform_avx2.cpp, with each 8-wide
// row held in four 2-double XMM registers: broadcast one scalar, multiply,
// add, k ascending, skipping only terms known to contribute ±0 (see
// transform_kernels.hpp for why that keeps every bit). Compiled with -msse2
// and -ffp-contract=off when the CMake probe accepts the flag; compiles to a
// nullptr accessor otherwise (or under -DACBM_DISABLE_SIMD=ON).

#include "simd/transform_kernels.hpp"

#if !defined(ACBM_DISABLE_SIMD) && defined(__SSE2__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <emmintrin.h>

#include "simd/transform_lines.hpp"

namespace acbm::simd {
namespace {

constexpr unsigned kAllTerms = 0xFFu;

/// Adds S[i][k]·R[k] into output row i's four quarters.
inline void accumulate(const double* s, const double* r, int i, int k,
                       __m128d acc[4]) {
  const __m128d sk = _mm_set1_pd(s[i * 8 + k]);
  for (int j = 0; j < 4; ++j) {
    acc[j] =
        _mm_add_pd(acc[j], _mm_mul_pd(sk, _mm_loadu_pd(r + k * 8 + 2 * j)));
  }
}

/// out = S·R. Term k joins the sums only when bit k of `terms` is set; the
/// caller clears bits only for terms that contribute ±0 to every output.
inline void product(const double* s, const double* r, unsigned terms,
                    double* out) {
  for (int i = 0; i < 8; ++i) {
    __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                      _mm_setzero_pd()};
    if (terms == kAllTerms) {
      for (int k = 0; k < 8; ++k) {
        accumulate(s, r, i, k, acc);
      }
    } else {
      for (unsigned m = terms; m != 0; m &= m - 1) {
        accumulate(s, r, i, __builtin_ctz(m), acc);
      }
    }
    for (int j = 0; j < 4; ++j) {
      _mm_storeu_pd(out + i * 8 + 2 * j, acc[j]);
    }
  }
}

/// int16 block → doubles (sign extension by interleaving the sign mask).
inline void widen(const std::int16_t* in, double* out) {
  for (int i = 0; i < 64; i += 8) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i sign = _mm_srai_epi16(v, 15);
    const __m128i lo = _mm_unpacklo_epi16(v, sign);
    const __m128i hi = _mm_unpackhi_epi16(v, sign);
    _mm_storeu_pd(out + i, _mm_cvtepi32_pd(lo));
    _mm_storeu_pd(out + i + 2, _mm_cvtepi32_pd(_mm_srli_si128(lo, 8)));
    _mm_storeu_pd(out + i + 4, _mm_cvtepi32_pd(hi));
    _mm_storeu_pd(out + i + 6, _mm_cvtepi32_pd(_mm_srli_si128(hi, 8)));
  }
}

void forward_dct_sse2(const std::int16_t in[kBlockSamples],
                      double out[kBlockSamples]) {
  alignas(16) double x[kBlockSamples];
  alignas(16) double tmp[kBlockSamples];
  widen(in, x);
  // Row pass tmp = X·Bᵀ, column pass out = B·tmp.
  product(x, &dct_basis_transposed()[0][0], kAllTerms, tmp);
  product(&dct_basis()[0][0], tmp, kAllTerms, out);
}

/// lround (half away from zero) of |x| < 2^31, clamped to [−lim, lim], as
/// two int32 in the low half.
inline __m128i round_clamp(__m128d x, __m128d lim) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d t = _mm_cvtepi32_pd(_mm_cvttpd_epi32(x));
  const __m128d f = _mm_sub_pd(x, t);
  __m128d r =
      _mm_add_pd(t, _mm_and_pd(_mm_cmpge_pd(f, _mm_set1_pd(0.5)), one));
  r = _mm_sub_pd(r, _mm_and_pd(_mm_cmple_pd(f, _mm_set1_pd(-0.5)), one));
  r = _mm_min_pd(_mm_max_pd(r, _mm_sub_pd(_mm_setzero_pd(), lim)), lim);
  return _mm_cvttpd_epi32(r);
}

void inverse_dct_to_int_sse2(const std::int16_t in[kBlockSamples],
                             std::int16_t out[kBlockSamples], int limit) {
  const NonzeroLines lines = nonzero_lines(in);
  alignas(16) double c[kBlockSamples];
  alignas(16) double tmp[kBlockSamples];
  alignas(16) double spatial[kBlockSamples];
  widen(in, c);
  // Column pass tmp = Bᵀ·C, row pass spatial = tmp·B.
  product(&dct_basis_transposed()[0][0], c, lines.rows, tmp);
  product(tmp, &dct_basis()[0][0], lines.cols, spatial);

  const __m128d lim = _mm_set1_pd(static_cast<double>(limit));
  for (int i = 0; i < kBlockSamples; i += 8) {
    const __m128i q0 = round_clamp(_mm_load_pd(spatial + i), lim);
    const __m128i q1 = round_clamp(_mm_load_pd(spatial + i + 2), lim);
    const __m128i q2 = round_clamp(_mm_load_pd(spatial + i + 4), lim);
    const __m128i q3 = round_clamp(_mm_load_pd(spatial + i + 6), lim);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi32(_mm_unpacklo_epi64(q0, q1),
                                     _mm_unpacklo_epi64(q2, q3)));
  }
}

void quantize_sse2(const double coeffs[kBlockSamples],
                   std::int16_t levels[kBlockSamples], int qp, bool intra) {
  // Intra: |c| / 2qp. Inter: (|c| − qp/2) / 2qp. Subtracting +0.0 is exact,
  // so both share one path.
  const __m128d offset = _mm_set1_pd(intra ? 0.0 : qp / 2.0);
  const __m128d step = _mm_set1_pd(2.0 * qp);
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d zero = _mm_setzero_pd();
  const __m128d max_level = _mm_set1_pd(127.0);
  for (int i = 0; i < kBlockSamples; i += 8) {
    __m128i q[4];
    for (int h = 0; h < 4; ++h) {
      const __m128d c = _mm_loadu_pd(coeffs + i + 2 * h);
      const __m128d mag = _mm_andnot_pd(sign, c);
      __m128d level = _mm_div_pd(_mm_sub_pd(mag, offset), step);
      level = _mm_min_pd(_mm_max_pd(level, zero), max_level);
      // Negative coefficients take a negative level (−0.0 truncates to 0).
      level = _mm_xor_pd(level, _mm_and_pd(c, sign));
      q[h] = _mm_cvttpd_epi32(level);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(levels + i),
                     _mm_packs_epi32(_mm_unpacklo_epi64(q[0], q[1]),
                                     _mm_unpacklo_epi64(q[2], q[3])));
  }
  if (intra) {
    levels[0] = 0;  // DC handled out of band
  }
}

void dequantize_sse2(const std::int16_t levels[kBlockSamples],
                     std::int16_t coeffs[kBlockSamples], int qp, bool intra) {
  // Same capped int16 arithmetic as dequantize_avx2.
  const int even = (qp & 1) == 0 ? 1 : 0;
  const __m128i vqp = _mm_set1_epi16(static_cast<std::int16_t>(qp));
  const __m128i veven = _mm_set1_epi16(static_cast<std::int16_t>(even));
  const __m128i tcap =
      _mm_set1_epi16(static_cast<std::int16_t>((2047 + even) / qp + 1));
  const __m128i limit = _mm_set1_epi16(2047);
  const __m128i mag_cap = _mm_set1_epi16(1024);
  const __m128i one = _mm_set1_epi16(1);
  const __m128i zero = _mm_setzero_si128();
  for (int i = 0; i < kBlockSamples; i += 8) {
    const __m128i l =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + i));
    const __m128i mag =
        _mm_min_epi16(_mm_max_epi16(l, _mm_subs_epi16(zero, l)), mag_cap);
    const __m128i t =
        _mm_min_epi16(_mm_add_epi16(_mm_add_epi16(mag, mag), one), tcap);
    const __m128i rec =
        _mm_min_epi16(_mm_sub_epi16(_mm_mullo_epi16(t, vqp), veven), limit);
    const __m128i neg = _mm_srai_epi16(l, 15);
    const __m128i signed_rec = _mm_sub_epi16(_mm_xor_si128(rec, neg), neg);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(coeffs + i),
                     _mm_andnot_si128(_mm_cmpeq_epi16(l, zero), signed_rec));
  }
  if (intra) {
    coeffs[0] = 0;  // caller adds the dequantized DC
  }
}

constexpr TransformKernels kSse2Table = {
    forward_dct_sse2, quantize_sse2, dequantize_sse2, inverse_dct_to_int_sse2,
    "sse2"};

}  // namespace

namespace detail {

const TransformKernels* sse2_transforms() { return &kSse2Table; }

}  // namespace detail
}  // namespace acbm::simd

#else  // variant compiled out

namespace acbm::simd::detail {

const TransformKernels* sse2_transforms() { return nullptr; }

}  // namespace acbm::simd::detail

#endif
