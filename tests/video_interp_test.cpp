// Half-pel addressing: the coordinate split, the H.263 rounding of the
// per-sample test oracle every interpolating path is checked against,
// phase consistency, borders, and the borrowed HalfpelPlanes view.

#include "video/interp.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace acbm::video {
namespace {

using acbm::test::sample_halfpel;

TEST(SplitHalfpel, OriginRoundsTowardMinusInfinity) {
  static_assert(split_halfpel(4).integer == 2 && split_halfpel(4).phase == 0);
  static_assert(split_halfpel(5).integer == 2 && split_halfpel(5).phase == 1);
  static_assert(split_halfpel(-1).integer == -1 &&
                split_halfpel(-1).phase == 1);
  static_assert(split_halfpel(-4).integer == -2 &&
                split_halfpel(-4).phase == 0);
  for (int h = -33; h <= 33; ++h) {
    const HalfpelSplit s = split_halfpel(h);
    ASSERT_TRUE(s.phase == 0 || s.phase == 1) << h;
    ASSERT_EQ(2 * s.integer + s.phase, h);
  }
}

TEST(SampleHalfpel, IntegerPhasePassesThrough) {
  const Plane p = acbm::test::random_plane(16, 16, 1);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      ASSERT_EQ(sample_halfpel(p, 2 * x, 2 * y), p.at(x, y));
    }
  }
}

TEST(SampleHalfpel, HorizontalRounding) {
  Plane p(4, 4, 4);
  p.set(0, 0, 10);
  p.set(1, 0, 11);
  p.extend_border();
  // (10+11+1)>>1 = 11 — H.263 rounds toward +∞ on .5.
  EXPECT_EQ(sample_halfpel(p, 1, 0), 11);
}

TEST(SampleHalfpel, VerticalRounding) {
  Plane p(4, 4, 4);
  p.set(0, 0, 10);
  p.set(0, 1, 13);
  p.extend_border();
  EXPECT_EQ(sample_halfpel(p, 0, 1), 12);  // (10+13+1)>>1
}

TEST(SampleHalfpel, CenterRounding) {
  Plane p(4, 4, 4);
  p.set(0, 0, 10);
  p.set(1, 0, 11);
  p.set(0, 1, 12);
  p.set(1, 1, 13);
  p.extend_border();
  EXPECT_EQ(sample_halfpel(p, 1, 1), 12);  // (10+11+12+13+2)>>2 = 12
}

TEST(SampleHalfpel, NegativeHalfpelCoordinates) {
  Plane p(4, 4, 4);
  p.fill(50);
  p.set(0, 0, 100);
  p.extend_border();
  // hx = −1 interpolates between border (replicates 100) and (0,0).
  EXPECT_EQ(sample_halfpel(p, -1, 0), 100);
  EXPECT_EQ(sample_halfpel(p, -2, 0), 100);  // pure border sample
}

TEST(HalfpelPlanes, ViewsTheBoundPlaneWithoutCopying) {
  const Plane src = acbm::test::random_plane(32, 24, 2);
  const Plane other = acbm::test::random_plane(16, 16, 6);
  HalfpelPlanes hp(src);
  EXPECT_EQ(&hp.integer_plane(), &src);
  hp.bind(&other);
  EXPECT_EQ(&hp.integer_plane(), &other);
}

TEST(HalfpelPlanes, AllPhasesMatchDirectComputation) {
  const Plane src = acbm::test::random_plane(32, 24, 3);
  const HalfpelPlanes hp(src);
  for (int hy = -10; hy < 58; ++hy) {
    for (int hx = -10; hx < 74; ++hx) {
      const int x = hx >> 1;
      const int y = hy >> 1;
      const int x1 = x + (hx & 1);
      const int y1 = y + (hy & 1);
      const int want =
          (src.at(x, y) + src.at(x1, y) + src.at(x, y1) + src.at(x1, y1) + 2) >>
          2;
      ASSERT_EQ(sample_halfpel(hp.integer_plane(), hx, hy), want)
          << "at (" << hx << "," << hy << ")";
    }
  }
}

TEST(HalfpelPlanes, ConstantPlaneStaysConstant) {
  Plane src(16, 16);
  src.fill(77);
  src.extend_border();
  for (int phase = 0; phase < 4; ++phase) {
    const Plane p = acbm::test::phase_plane(src, phase & 1, phase >> 1);
    for (int y = -4; y < 20; ++y) {
      for (int x = -4; x < 20; ++x) {
        ASSERT_EQ(p.at(x, y), 77);
      }
    }
  }
}

TEST(HalfpelPlanes, HalfShiftedContentInterpolatesExactly) {
  // A plane holding a horizontal ramp: the H phase must be the midpoint.
  Plane src(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      src.set(x, y, static_cast<std::uint8_t>(10 * x));
    }
  }
  src.extend_border();
  const Plane h = acbm::test::phase_plane(src, 1, 0);
  for (int x = 0; x < 15; ++x) {
    EXPECT_EQ(h.at(x, 5), 10 * x + 5);
  }
}

}  // namespace
}  // namespace acbm::video
