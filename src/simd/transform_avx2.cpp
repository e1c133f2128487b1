// AVX2 variant of the transform kernel table.
//
// Every 8×8 pass is a product out = S·R of row-major 8×8 matrices in which
// output row i is built as Σ_k S[i][k]·R[k] over whole 8-wide rows R[k]
// (two YMM halves): broadcast one scalar, multiply, add — k ascending,
// lanes independent, so each output sees exactly the scalar reference's
// sequence of roundings (see transform_kernels.hpp). Terms whose R row or
// S column is known to be all zero are skipped: they would add ±0 to an
// accumulator that starts at +0.0, which never changes a bit. Compiled with
// -mavx2 (no -mfma) and -ffp-contract=off when the CMake probe accepts the
// flag; a nullptr accessor otherwise.

#include "simd/transform_kernels.hpp"

#if !defined(ACBM_DISABLE_SIMD) && defined(__AVX2__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "simd/transform_lines.hpp"

namespace acbm::simd {
namespace {

constexpr unsigned kAllTerms = 0xFFu;

/// Adds S[i][k]·R[k] into output row i's two halves.
inline void accumulate(const double* s, const double* r, int i, int k,
                       __m256d& lo, __m256d& hi) {
  const __m256d sk = _mm256_broadcast_sd(s + i * 8 + k);
  lo = _mm256_add_pd(lo, _mm256_mul_pd(sk, _mm256_loadu_pd(r + k * 8)));
  hi = _mm256_add_pd(hi, _mm256_mul_pd(sk, _mm256_loadu_pd(r + k * 8 + 4)));
}

/// out = S·R. Term k joins the sums only when bit k of `terms` is set; the
/// caller clears bits only for terms that contribute ±0 to every output.
inline void product(const double* s, const double* r, unsigned terms,
                    double* out) {
  for (int i = 0; i < 8; ++i) {
    __m256d lo = _mm256_setzero_pd();
    __m256d hi = _mm256_setzero_pd();
    if (terms == kAllTerms) {
      for (int k = 0; k < 8; ++k) {
        accumulate(s, r, i, k, lo, hi);
      }
    } else {
      for (unsigned m = terms; m != 0; m &= m - 1) {
        accumulate(s, r, i, __builtin_ctz(m), lo, hi);
      }
    }
    _mm256_storeu_pd(out + i * 8, lo);
    _mm256_storeu_pd(out + i * 8 + 4, hi);
  }
}

/// int16 block → doubles.
inline void widen(const std::int16_t* in, double* out) {
  for (int i = 0; i < 64; i += 8) {
    const __m256i w = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    _mm256_storeu_pd(out + i, _mm256_cvtepi32_pd(_mm256_castsi256_si128(w)));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_cvtepi32_pd(_mm256_extracti128_si256(w, 1)));
  }
}

void forward_dct_avx2(const std::int16_t in[kBlockSamples],
                      double out[kBlockSamples]) {
  alignas(32) double x[kBlockSamples];
  alignas(32) double tmp[kBlockSamples];
  widen(in, x);
  // Row pass tmp = X·Bᵀ, column pass out = B·tmp.
  product(x, &dct_basis_transposed()[0][0], kAllTerms, tmp);
  product(&dct_basis()[0][0], tmp, kAllTerms, out);
}

/// lround (half away from zero) of |x| < 2^31, clamped to [−lim, lim], as
/// four int32.
inline __m128i round_clamp(__m256d x, __m256d lim) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d t = _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d f = _mm256_sub_pd(x, t);
  __m256d r = _mm256_add_pd(
      t, _mm256_and_pd(_mm256_cmp_pd(f, _mm256_set1_pd(0.5), _CMP_GE_OQ), one));
  r = _mm256_sub_pd(
      r,
      _mm256_and_pd(_mm256_cmp_pd(f, _mm256_set1_pd(-0.5), _CMP_LE_OQ), one));
  r = _mm256_min_pd(_mm256_max_pd(r, _mm256_sub_pd(_mm256_setzero_pd(), lim)),
                    lim);
  return _mm256_cvttpd_epi32(r);
}

void inverse_dct_to_int_avx2(const std::int16_t in[kBlockSamples],
                             std::int16_t out[kBlockSamples], int limit) {
  const NonzeroLines lines = nonzero_lines(in);
  alignas(32) double c[kBlockSamples];
  alignas(32) double tmp[kBlockSamples];
  alignas(32) double spatial[kBlockSamples];
  widen(in, c);
  // Column pass tmp = Bᵀ·C, row pass spatial = tmp·B.
  product(&dct_basis_transposed()[0][0], c, lines.rows, tmp);
  product(tmp, &dct_basis()[0][0], lines.cols, spatial);

  const __m256d lim = _mm256_set1_pd(static_cast<double>(limit));
  for (int i = 0; i < kBlockSamples; i += 8) {
    const __m128i lo = round_clamp(_mm256_load_pd(spatial + i), lim);
    const __m128i hi = round_clamp(_mm256_load_pd(spatial + i + 4), lim);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi32(lo, hi));
  }
}

void quantize_avx2(const double coeffs[kBlockSamples],
                   std::int16_t levels[kBlockSamples], int qp, bool intra) {
  // Intra: |c| / 2qp. Inter: (|c| − qp/2) / 2qp. Subtracting +0.0 is exact,
  // so both share one path.
  const __m256d offset = _mm256_set1_pd(intra ? 0.0 : qp / 2.0);
  const __m256d step = _mm256_set1_pd(2.0 * qp);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d max_level = _mm256_set1_pd(127.0);
  for (int i = 0; i < kBlockSamples; i += 8) {
    __m128i q[2];
    for (int h = 0; h < 2; ++h) {
      const __m256d c = _mm256_loadu_pd(coeffs + i + 4 * h);
      const __m256d mag = _mm256_andnot_pd(sign, c);
      __m256d level = _mm256_div_pd(_mm256_sub_pd(mag, offset), step);
      level = _mm256_min_pd(_mm256_max_pd(level, zero), max_level);
      // Negative coefficients take a negative level (−0.0 truncates to 0).
      level = _mm256_xor_pd(level, _mm256_and_pd(c, sign));
      q[h] = _mm256_cvttpd_epi32(level);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(levels + i),
                     _mm_packs_epi32(q[0], q[1]));
  }
  if (intra) {
    levels[0] = 0;  // DC handled out of band
  }
}

void dequantize_avx2(const std::int16_t levels[kBlockSamples],
                     std::int16_t coeffs[kBlockSamples], int qp, bool intra) {
  // rec = min(qp·(2|l|+1) − even, 2047). With t = 2·min(|l|, 1024) + 1 the
  // product stays exact while t ≤ kmax = (2047 + even) / qp, and any larger
  // t clamps; capping t at kmax + 1 keeps qp·t inside int16.
  const int even = (qp & 1) == 0 ? 1 : 0;
  const __m256i vqp = _mm256_set1_epi16(static_cast<std::int16_t>(qp));
  const __m256i veven = _mm256_set1_epi16(static_cast<std::int16_t>(even));
  const __m256i tcap =
      _mm256_set1_epi16(static_cast<std::int16_t>((2047 + even) / qp + 1));
  const __m256i limit = _mm256_set1_epi16(2047);
  const __m256i mag_cap = _mm256_set1_epi16(1024);
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i zero = _mm256_setzero_si256();
  for (int i = 0; i < kBlockSamples; i += 16) {
    const __m256i l =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(levels + i));
    // |l| saturates −32768 to 32767; both clamp the same way.
    const __m256i mag =
        _mm256_min_epi16(_mm256_max_epi16(l, _mm256_subs_epi16(zero, l)),
                         mag_cap);
    const __m256i t = _mm256_min_epi16(
        _mm256_add_epi16(_mm256_add_epi16(mag, mag), one), tcap);
    const __m256i rec = _mm256_min_epi16(
        _mm256_sub_epi16(_mm256_mullo_epi16(t, vqp), veven), limit);
    const __m256i neg = _mm256_srai_epi16(l, 15);
    const __m256i signed_rec =
        _mm256_sub_epi16(_mm256_xor_si256(rec, neg), neg);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(coeffs + i),
        _mm256_andnot_si256(_mm256_cmpeq_epi16(l, zero), signed_rec));
  }
  if (intra) {
    coeffs[0] = 0;  // caller adds the dequantized DC
  }
}

constexpr TransformKernels kAvx2Table = {
    forward_dct_avx2, quantize_avx2, dequantize_avx2, inverse_dct_to_int_avx2,
    "avx2"};

}  // namespace

namespace detail {

const TransformKernels* avx2_transforms() { return &kAvx2Table; }

}  // namespace detail
}  // namespace acbm::simd

#else  // variant compiled out

namespace acbm::simd::detail {

const TransformKernels* avx2_transforms() { return nullptr; }

}  // namespace acbm::simd::detail

#endif
