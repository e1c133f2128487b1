// Scalar reference implementation of the SAD kernel table.
//
// This is the ground truth: the SSE2/AVX2 variants are tested for exact
// equality against these loops, and every non-x86 build runs them directly.
// The build compiles this file with auto-vectorization disabled where the
// compiler supports it (see CMakeLists.txt) so `--kernel=scalar` measures a
// true scalar baseline and the A/B numbers in docs/BENCHMARKING.md mean what
// they say.

#include "simd/sad_kernels.hpp"

#include <cstddef>
#include <cstdlib>

namespace acbm::simd {
namespace {

std::uint32_t row_sad(const std::uint8_t* a, const std::uint8_t* b, int bw) {
  std::uint32_t sum = 0;
  for (int x = 0; x < bw; ++x) {
    sum += static_cast<std::uint32_t>(
        std::abs(static_cast<int>(a[x]) - static_cast<int>(b[x])));
  }
  return sum;
}

std::uint32_t sad_scalar(const std::uint8_t* cur, int cur_stride,
                         const std::uint8_t* ref, int ref_stride, int bw,
                         int bh) {
  std::uint32_t total = 0;
  for (int y = 0; y < bh; ++y) {
    total += row_sad(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                     ref + static_cast<std::ptrdiff_t>(y) * ref_stride, bw);
  }
  return total;
}

void sad_x4_scalar(const std::uint8_t* cur, int cur_stride,
                   const std::uint8_t* ref, int ref_stride, int bw, int bh,
                   std::uint32_t out[4]) {
  std::uint32_t sums[4] = {0, 0, 0, 0};
  for (int y = 0; y < bh; ++y) {
    const std::uint8_t* a = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* b = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int x = 0; x < bw; ++x) {
      const int c = a[x];
      for (int k = 0; k < 4; ++k) {
        sums[k] += static_cast<std::uint32_t>(std::abs(c - b[x + k]));
      }
    }
  }
  for (int k = 0; k < 4; ++k) {
    out[k] = sums[k];
  }
}

/// One row of |cur − interp(ref)| for a non-integer phase. r0/r1 are the
/// integer rows bracketing the half-pel position vertically (r1 == r0 for
/// the pure-H phase).
std::uint32_t row_sad_interp(const std::uint8_t* c, const std::uint8_t* r0,
                             const std::uint8_t* r1, int phase_h, int bw) {
  std::uint32_t sum = 0;
  if (phase_h == 0) {
    for (int x = 0; x < bw; ++x) {
      const int p = (r0[x] + r1[x] + 1) >> 1;
      sum += static_cast<std::uint32_t>(std::abs(static_cast<int>(c[x]) - p));
    }
  } else if (r0 == r1) {
    for (int x = 0; x < bw; ++x) {
      const int p = (r0[x] + r0[x + 1] + 1) >> 1;
      sum += static_cast<std::uint32_t>(std::abs(static_cast<int>(c[x]) - p));
    }
  } else {
    for (int x = 0; x < bw; ++x) {
      const int p = (r0[x] + r0[x + 1] + r1[x] + r1[x + 1] + 2) >> 2;
      sum += static_cast<std::uint32_t>(std::abs(static_cast<int>(c[x]) - p));
    }
  }
  return sum;
}

std::uint32_t sad_halfpel_scalar(const std::uint8_t* cur, int cur_stride,
                                 const std::uint8_t* ref, int ref_stride,
                                 int phase_h, int phase_v, int bw, int bh) {
  if (phase_h == 0 && phase_v == 0) {
    return sad_scalar(cur, cur_stride, ref, ref_stride, bw, bh);
  }
  std::uint32_t total = 0;
  for (int y = 0; y < bh; ++y) {
    const std::uint8_t* c = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* r0 = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    total += row_sad_interp(c, r0, phase_v != 0 ? r0 + ref_stride : r0,
                            phase_h, bw);
  }
  return total;
}

std::uint32_t sad_quincunx_scalar(const std::uint8_t* cur, int cur_stride,
                                  const std::uint8_t* ref, int ref_stride,
                                  int bw, int bh) {
  std::uint32_t total = 0;
  for (int y = 0; y < bh; y += 2) {
    const int phase = (y >> 1) & 1;
    const std::uint8_t* a = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* b = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int x = phase; x < bw; x += 2) {
      total += static_cast<std::uint32_t>(
          std::abs(static_cast<int>(a[x]) - static_cast<int>(b[x])));
    }
  }
  return total;
}

std::uint32_t sad_rowskip_scalar(const std::uint8_t* cur, int cur_stride,
                                 const std::uint8_t* ref, int ref_stride,
                                 int bw, int bh) {
  std::uint32_t total = 0;
  for (int y = 0; y < bh; y += 2) {
    total += row_sad(cur + static_cast<std::ptrdiff_t>(y) * cur_stride,
                     ref + static_cast<std::ptrdiff_t>(y) * ref_stride, bw);
  }
  return total;
}

constexpr SadKernels kScalarTable = {sad_scalar, sad_halfpel_scalar,
                                     sad_x4_scalar, sad_quincunx_scalar,
                                     sad_rowskip_scalar, "scalar"};

}  // namespace

namespace detail {

const SadKernels* scalar_kernels() { return &kScalarTable; }

}  // namespace detail
}  // namespace acbm::simd
