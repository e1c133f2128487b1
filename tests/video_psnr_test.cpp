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

}  // namespace
}  // namespace acbm::video
