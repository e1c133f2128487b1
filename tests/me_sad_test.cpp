// SAD kernels, Intra_SAD and block mean — against naive references.

#include "me/sad.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "test_support.hpp"

namespace acbm::me {
namespace {

std::uint32_t naive_sad(const video::Plane& a, int ax, int ay,
                        const video::Plane& b, int bx, int by, int bw,
                        int bh) {
  std::uint32_t total = 0;
  for (int y = 0; y < bh; ++y) {
    for (int x = 0; x < bw; ++x) {
      total += static_cast<std::uint32_t>(
          std::abs(int(a.at(ax + x, ay + y)) - int(b.at(bx + x, by + y))));
    }
  }
  return total;
}

TEST(Sad, ZeroForIdenticalBlocks) {
  const video::Plane p = acbm::test::random_plane(32, 32, 1);
  EXPECT_EQ(sad_block(p, 8, 8, p, 8, 8, 16, 16), 0u);
}

TEST(Sad, MatchesNaiveReference) {
  const video::Plane a = acbm::test::random_plane(48, 48, 2);
  const video::Plane b = acbm::test::random_plane(48, 48, 3);
  for (int oy : {-4, 0, 5}) {
    for (int ox : {-3, 0, 7}) {
      EXPECT_EQ(sad_block(a, 16, 16, b, 16 + ox, 16 + oy, 16, 16),
                naive_sad(a, 16, 16, b, 16 + ox, 16 + oy, 16, 16));
    }
  }
}

TEST(Sad, NonSquareBlocks) {
  const video::Plane a = acbm::test::random_plane(32, 32, 4);
  const video::Plane b = acbm::test::random_plane(32, 32, 5);
  EXPECT_EQ(sad_block(a, 4, 4, b, 6, 2, 8, 16),
            naive_sad(a, 4, 4, b, 6, 2, 8, 16));
  EXPECT_EQ(sad_block(a, 0, 0, b, 1, 1, 16, 8),
            naive_sad(a, 0, 0, b, 1, 1, 16, 8));
}

TEST(Sad, ReadsReferenceBorder) {
  video::Plane a(32, 32);
  a.fill(100);
  a.extend_border();
  video::Plane b(32, 32);
  b.fill(100);
  b.extend_border();
  // Entire reference block inside the border region: replicated 100s.
  EXPECT_EQ(sad_block(a, 0, 0, b, -16, -16, 16, 16), 0u);
}

TEST(Sad, EarlyExitReturnsExcess) {
  const video::Plane a = acbm::test::random_plane(32, 32, 6);
  video::Plane b = acbm::test::random_plane(32, 32, 7);
  const std::uint32_t exact = sad_block(a, 8, 8, b, 8, 8, 16, 16);
  ASSERT_GT(exact, 100u);
  const std::uint32_t bounded = sad_block(a, 8, 8, b, 8, 8, 16, 16, 100);
  EXPECT_GT(bounded, 100u);   // contract: value exceeds the bound
  EXPECT_LE(bounded, exact);  // partial sums never overshoot the true SAD
}

TEST(Sad, EarlyExitAboveTotalIsExact) {
  const video::Plane a = acbm::test::random_plane(32, 32, 8);
  const video::Plane b = acbm::test::random_plane(32, 32, 9);
  const std::uint32_t exact = sad_block(a, 8, 8, b, 8, 8, 16, 16);
  EXPECT_EQ(sad_block(a, 8, 8, b, 8, 8, 16, 16, exact), exact);
}

TEST(SadHalfpel, IntegerPhaseEqualsPlainSad) {
  const video::Plane cur = acbm::test::random_plane(48, 48, 10);
  const video::Plane ref = acbm::test::random_plane(48, 48, 11);
  const video::HalfpelPlanes hp(ref);
  EXPECT_EQ(sad_block_halfpel(cur, 16, 16, hp, 2 * 14, 2 * 18, 16, 16),
            sad_block(cur, 16, 16, ref, 14, 18, 16, 16));
}

TEST(SadHalfpel, HalfPhaseMatchesDirectInterpolation) {
  const video::Plane cur = acbm::test::random_plane(48, 48, 12);
  const video::Plane ref = acbm::test::random_plane(48, 48, 13);
  const video::HalfpelPlanes hp(ref);
  // Reference block at half-pel (2·16+1, 2·16+1).
  std::uint32_t naive = 0;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      naive += static_cast<std::uint32_t>(
          std::abs(int(cur.at(16 + x, 16 + y)) -
                   int(video::sample_halfpel(ref, 2 * (16 + x) + 1,
                                             2 * (16 + y) + 1))));
    }
  }
  EXPECT_EQ(sad_block_halfpel(cur, 16, 16, hp, 33, 33, 16, 16), naive);
}

TEST(BlockMean, UniformBlock) {
  video::Plane p(16, 16);
  p.fill(77);
  EXPECT_EQ(block_mean(p, 0, 0, 16, 16), 77u);
}

TEST(BlockMean, RoundsToNearest) {
  video::Plane p(2, 1, 4);
  p.set(0, 0, 10);
  p.set(1, 0, 11);  // mean 10.5 → rounds to 11
  EXPECT_EQ(block_mean(p, 0, 0, 2, 1), 11u);
}

TEST(IntraSad, ZeroForFlatBlock) {
  video::Plane p(16, 16);
  p.fill(123);
  EXPECT_EQ(intra_sad(p, 0, 0, 16, 16), 0u);
}

TEST(IntraSad, KnownCheckerboard) {
  video::Plane p(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      p.set(x, y, ((x + y) & 1) != 0 ? 200 : 100);
    }
  }
  // Mean = 150; every sample deviates by 50 → 256·50.
  EXPECT_EQ(intra_sad(p, 0, 0, 16, 16), 256u * 50u);
}

TEST(IntraSad, GrowsWithTexture) {
  const video::Plane flat = acbm::test::smooth_plane(32, 32);
  const video::Plane busy = acbm::test::random_plane(32, 32, 14);
  EXPECT_GT(intra_sad(busy, 0, 0, 16, 16), 4 * intra_sad(flat, 0, 0, 16, 16));
}

TEST(IntraSad, TranslationInvariant) {
  // Intra_SAD depends only on content, not on position: the same samples at
  // a different block origin give the same value.
  const video::Plane big = acbm::test::random_plane(64, 64, 15);
  const video::Plane moved = video::crop(big, 8, 8, 32, 32);
  EXPECT_EQ(intra_sad(big, 8, 8, 16, 16), intra_sad(moved, 0, 0, 16, 16));
}

}  // namespace
}  // namespace acbm::me
