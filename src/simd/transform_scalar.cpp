// Scalar reference implementation of the transform kernel table.
//
// This is the ground truth for the SSE2/AVX2 variants (tested for bitwise
// equality) and the code every non-x86 build runs. Like sad_scalar.cpp it is
// compiled without auto-vectorisation where the compiler allows, and with
// -ffp-contract=off so no build can fuse the multiply-adds of the normative
// inverse transform.

#include "simd/transform_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace acbm::simd {

namespace {

constexpr int kSize = 8;
constexpr int kCoeffLimit = 2047;  // H.263 coefficient clamp

/// Built on first use (function-local static), so a transform running
/// during another TU's dynamic initialisation still sees the basis.
struct Basis {
  DctBasis b;
  DctBasis transposed;

  Basis() {
    for (int u = 0; u < kSize; ++u) {
      const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
      for (int x = 0; x < kSize; ++x) {
        b[u][x] = 0.5 * cu *
                  std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
        transposed[x][u] = b[u][x];
      }
    }
  }
};

const Basis& basis_tables() {
  static const Basis basis;
  return basis;
}

void forward_dct_scalar(const std::int16_t in[kBlockSamples],
                        double out[kBlockSamples]) {
  const DctBasis& basis = dct_basis();
  // Rows first.
  double tmp[kBlockSamples];
  for (int y = 0; y < kSize; ++y) {
    for (int u = 0; u < kSize; ++u) {
      double s = 0.0;
      for (int x = 0; x < kSize; ++x) {
        s += basis[u][x] * in[y * kSize + x];
      }
      tmp[y * kSize + u] = s;
    }
  }
  // Columns.
  for (int u = 0; u < kSize; ++u) {
    for (int v = 0; v < kSize; ++v) {
      double s = 0.0;
      for (int y = 0; y < kSize; ++y) {
        s += basis[v][y] * tmp[y * kSize + u];
      }
      out[v * kSize + u] = s;
    }
  }
}

void inverse_dct_to_int_scalar(const std::int16_t in[kBlockSamples],
                               std::int16_t out[kBlockSamples], int limit) {
  double coeffs[kBlockSamples];
  for (int i = 0; i < kBlockSamples; ++i) {
    coeffs[i] = in[i];
  }
  double spatial[kBlockSamples];
  inverse_dct8x8_scalar(coeffs, spatial);
  for (int i = 0; i < kBlockSamples; ++i) {
    const long r = std::lround(spatial[i]);
    out[i] = static_cast<std::int16_t>(std::clamp<long>(r, -limit, limit));
  }
}

void quantize_scalar(const double coeffs[kBlockSamples],
                     std::int16_t levels[kBlockSamples], int qp, bool intra) {
  for (int i = 0; i < kBlockSamples; ++i) {
    if (intra && i == 0) {
      levels[0] = 0;  // DC handled out of band
      continue;
    }
    levels[i] = quantize_coeff_scalar(coeffs[i], qp, intra);
  }
}

void dequantize_scalar(const std::int16_t levels[kBlockSamples],
                       std::int16_t coeffs[kBlockSamples], int qp,
                       bool intra) {
  for (int i = 0; i < kBlockSamples; ++i) {
    if (intra && i == 0) {
      coeffs[0] = 0;  // caller adds the dequantized DC
      continue;
    }
    coeffs[i] = dequantize_level_scalar(levels[i], qp);
  }
}

constexpr TransformKernels kScalarTable = {
    forward_dct_scalar, quantize_scalar, dequantize_scalar,
    inverse_dct_to_int_scalar, "scalar"};

}  // namespace

const DctBasis& dct_basis() { return basis_tables().b; }

const DctBasis& dct_basis_transposed() { return basis_tables().transposed; }

void inverse_dct8x8_scalar(const double in[kBlockSamples],
                           double out[kBlockSamples]) {
  const DctBasis& basis = dct_basis();
  double tmp[kBlockSamples];
  // Columns first (transpose of forward order; any order is valid).
  for (int u = 0; u < kSize; ++u) {
    for (int y = 0; y < kSize; ++y) {
      double s = 0.0;
      for (int v = 0; v < kSize; ++v) {
        s += basis[v][y] * in[v * kSize + u];
      }
      tmp[y * kSize + u] = s;
    }
  }
  // Rows.
  for (int y = 0; y < kSize; ++y) {
    for (int x = 0; x < kSize; ++x) {
      double s = 0.0;
      for (int u = 0; u < kSize; ++u) {
        s += basis[u][x] * tmp[y * kSize + u];
      }
      out[y * kSize + x] = s;
    }
  }
}

std::int16_t quantize_coeff_scalar(double coeff, int qp, bool intra) {
  const double mag = std::abs(coeff);
  double level;
  if (intra) {
    level = mag / (2.0 * qp);
  } else {
    level = (mag - qp / 2.0) / (2.0 * qp);
  }
  long l = static_cast<long>(level);  // truncation toward zero (TMN)
  l = std::clamp<long>(l, 0, 127);
  return static_cast<std::int16_t>(coeff < 0 ? -l : l);
}

std::int16_t dequantize_level_scalar(std::int16_t level, int qp) {
  if (level == 0) {
    return 0;
  }
  const int mag = level < 0 ? -level : level;
  int rec = qp * (2 * mag + 1);
  if ((qp & 1) == 0) {
    rec -= 1;
  }
  rec = std::min(rec, kCoeffLimit);
  return static_cast<std::int16_t>(level < 0 ? -rec : rec);
}

namespace detail {

const TransformKernels* scalar_transforms() { return &kScalarTable; }

}  // namespace detail
}  // namespace acbm::simd
