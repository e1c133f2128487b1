// MSE / PSNR metrics.

#include "video/psnr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "test_support.hpp"

namespace acbm::video {
namespace {

TEST(Psnr, IdenticalPlanesAreInfinite) {
  const Plane a = acbm::test::random_plane(32, 32, 1);
  EXPECT_EQ(mse(a, a), 0.0);
  EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Psnr, KnownUniformError) {
  Plane a(16, 16);
  Plane b(16, 16);
  a.fill(100);
  b.fill(110);  // every sample off by 10 → MSE 100
  EXPECT_DOUBLE_EQ(mse(a, b), 100.0);
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-12);
  EXPECT_NEAR(psnr(a, b), 28.13, 0.01);
}

TEST(Psnr, SingleSampleError) {
  Plane a(8, 8);
  Plane b(8, 8);
  b.set(3, 3, 64);
  EXPECT_DOUBLE_EQ(mse(a, b), 64.0 * 64.0 / 64.0);
}

TEST(Psnr, SymmetricInArguments) {
  const Plane a = acbm::test::random_plane(24, 24, 2);
  const Plane b = acbm::test::random_plane(24, 24, 3);
  EXPECT_DOUBLE_EQ(psnr(a, b), psnr(b, a));
}

TEST(Psnr, MonotoneInNoise) {
  const Plane clean = acbm::test::smooth_plane(32, 32);
  Plane noisy_small = clean;
  Plane noisy_large = clean;
  util::Rng rng(4);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      const int n = rng.next_in_range(-3, 3);
      noisy_small.set(x, y, static_cast<std::uint8_t>(
                                std::clamp(clean.at(x, y) + n, 0, 255)));
      noisy_large.set(x, y, static_cast<std::uint8_t>(
                                std::clamp(clean.at(x, y) + 4 * n, 0, 255)));
    }
  }
  EXPECT_GT(psnr(clean, noisy_small), psnr(clean, noisy_large));
}

TEST(Psnr, LumaOnlyIgnoresChroma) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.fill(100);
  b.fill(100);
  b.cb().fill(0);  // wreck chroma only
  EXPECT_TRUE(std::isinf(psnr_luma(a, b)));
  EXPECT_FALSE(std::isinf(psnr_frame(a, b).yuv));
}

TEST(Psnr, YuvWeightsBySampleCount) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.fill(100);
  b.fill(100);
  // Luma error of 10 on all samples; chroma perfect. 4:2:0 → luma is 2/3 of
  // samples, so combined MSE = 100·(2/3).
  b.y().fill(110);
  const double expected_mse = 100.0 * (32.0 * 32.0) / (32.0 * 32.0 * 1.5);
  EXPECT_NEAR(psnr_frame(a, b).yuv,
              10.0 * std::log10(255.0 * 255.0 / expected_mse), 1e-9);
}

TEST(Psnr, FrameLumaIsPsnrLuma) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.y() = acbm::test::random_plane(32, 32, 5);
  b.y() = acbm::test::random_plane(32, 32, 6);
  EXPECT_EQ(psnr_frame(a, b).y, psnr_luma(a, b));
  EXPECT_TRUE(std::isinf(psnr_frame(a, a).y));
  EXPECT_TRUE(std::isinf(psnr_frame(a, a).yuv));
}

// The double-precision chain of per-sample squared errors: the oracle the
// integer sums must match bit for bit, since every partial sum is an integer
// below 2^53.
double oracle_sse(const Plane& a, const Plane& b) {
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      const double d = static_cast<double>(a.at(x, y)) -
                       static_cast<double>(b.at(x, y));
      sse += d * d;
    }
  }
  return sse;
}

double oracle_psnr(double mse) {
  return mse <= 0.0 ? std::numeric_limits<double>::infinity()
                    : 10.0 * std::log10(255.0 * 255.0 / mse);
}

FramePsnr oracle_frame(const Frame& a, const Frame& b) {
  const double sse_y = oracle_sse(a.y(), b.y());
  const double sse =
      sse_y + oracle_sse(a.cb(), b.cb()) + oracle_sse(a.cr(), b.cr());
  const double n = static_cast<double>(a.width()) * a.height();
  return {oracle_psnr(sse_y / n), oracle_psnr(sse / (n * 3.0 / 2.0))};
}

Frame random_frame(int w, int h, std::uint64_t seed) {
  Frame f(w, h);
  f.y() = acbm::test::random_plane(w, h, seed);
  f.cb() = acbm::test::random_plane(w / 2, h / 2, seed + 1);
  f.cr() = acbm::test::random_plane(w / 2, h / 2, seed + 2);
  return f;
}

TEST(Psnr, PlaneMseIsBitEqualToTheDoubleChain) {
  const int sizes[][2] = {{1, 1}, {7, 3}, {33, 17}, {176, 144}, {351, 289}};
  std::uint64_t seed = 10;
  for (const auto& size : sizes) {
    const Plane a = acbm::test::random_plane(size[0], size[1], seed++);
    const Plane b = acbm::test::random_plane(size[0], size[1], seed++);
    const double n = static_cast<double>(size[0]) * size[1];
    EXPECT_EQ(mse(a, b), oracle_sse(a, b) / n) << size[0] << "x" << size[1];
    EXPECT_EQ(psnr(a, b), oracle_psnr(oracle_sse(a, b) / n))
        << size[0] << "x" << size[1];
  }
}

TEST(Psnr, FramePsnrIsBitEqualToTheDoubleChain) {
  // Odd chroma sizes included (34x18 has 17x9 chroma planes).
  const int sizes[][2] = {{2, 2}, {34, 18}, {176, 144}, {352, 288}};
  std::uint64_t seed = 40;
  for (const auto& size : sizes) {
    const Frame a = random_frame(size[0], size[1], seed);
    const Frame b = random_frame(size[0], size[1], seed + 10);
    seed += 20;
    const FramePsnr got = psnr_frame(a, b);
    const FramePsnr want = oracle_frame(a, b);
    EXPECT_EQ(got.y, want.y) << size[0] << "x" << size[1];
    EXPECT_EQ(got.yuv, want.yuv) << size[0] << "x" << size[1];
  }
}

TEST(Psnr, WorstCaseRowsNearTheWidthLimitStayExact) {
  // All 0 against all 255: every sample adds 255², the largest term, so a
  // row of 65,535 samples is the largest row sum the integer path holds.
  for (const int width : {65535, 65534}) {
    Plane zeros(width, 3);
    Plane full(width, 3);
    zeros.fill(0);
    full.fill(255);
    const double n = static_cast<double>(width) * 3;
    EXPECT_EQ(mse(zeros, full), oracle_sse(zeros, full) / n) << width;
    EXPECT_EQ(mse(zeros, full), 255.0 * 255.0) << width;
  }
  Frame black(65534, 4);
  Frame white(65534, 4);
  black.fill(0);
  white.fill(255);
  black.cb().fill(0);
  black.cr().fill(0);
  white.cb().fill(255);
  white.cr().fill(255);
  const FramePsnr got = psnr_frame(black, white);
  const FramePsnr want = oracle_frame(black, white);
  EXPECT_EQ(got.y, want.y);
  EXPECT_EQ(got.yuv, want.yuv);
  EXPECT_EQ(got.y, 0.0);
}

}  // namespace
}  // namespace acbm::video
