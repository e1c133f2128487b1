// Plane: geometry, border extension, copies, comparisons, and pad/crop.

#include "video/plane.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "video/pad.hpp"

namespace acbm::video {
namespace {

TEST(Plane, DefaultConstructedIsEmpty) {
  const Plane p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.width(), 0);
  EXPECT_EQ(p.height(), 0);
}

TEST(Plane, GeometryAndZeroInit) {
  const Plane p(32, 16, 8);
  EXPECT_EQ(p.width(), 32);
  EXPECT_EQ(p.height(), 16);
  EXPECT_EQ(p.border(), 8);
  EXPECT_EQ(p.stride(), 32 + 16);
  EXPECT_EQ(p.at(0, 0), 0);
  EXPECT_EQ(p.at(31, 15), 0);
  EXPECT_EQ(p.at(-8, -8), 0);
  EXPECT_EQ(p.at(39, 23), 0);
}

TEST(Plane, SetAndGetRoundTrip) {
  Plane p(8, 8, 4);
  p.set(3, 5, 200);
  p.set(-2, -1, 13);  // border writes are legal
  EXPECT_EQ(p.at(3, 5), 200);
  EXPECT_EQ(p.at(-2, -1), 13);
}

TEST(Plane, RowPointerArithmeticMatchesAt) {
  Plane p(16, 8, 4);
  p.set(5, 3, 77);
  EXPECT_EQ(p.row(3)[5], 77);
  p.row(2)[-1] = 9;  // border column via pointer
  EXPECT_EQ(p.at(-1, 2), 9);
}

TEST(Plane, ExtendBorderReplicatesEdges) {
  Plane p(4, 4, 3);
  // Distinct corner values.
  p.set(0, 0, 10);
  p.set(3, 0, 20);
  p.set(0, 3, 30);
  p.set(3, 3, 40);
  p.set(2, 0, 15);
  p.extend_border();

  // Corners replicate diagonally.
  EXPECT_EQ(p.at(-3, -3), 10);
  EXPECT_EQ(p.at(6, -1), 20);
  EXPECT_EQ(p.at(-1, 6), 30);
  EXPECT_EQ(p.at(6, 6), 40);
  // Edges replicate perpendicular.
  EXPECT_EQ(p.at(2, -2), 15);
  EXPECT_EQ(p.at(-2, 0), 10);
}

TEST(Plane, FillTouchesOnlyVisibleArea) {
  Plane p(4, 4, 2);
  p.extend_border();  // borders = 0 replicated
  p.fill(99);
  EXPECT_EQ(p.at(0, 0), 99);
  EXPECT_EQ(p.at(3, 3), 99);
  EXPECT_EQ(p.at(-1, 0), 0);  // border untouched by fill
}

TEST(Plane, VisibleEqualsDetectsDifference) {
  Plane a(6, 6);
  Plane b(6, 6);
  EXPECT_TRUE(a.visible_equals(b));
  b.set(5, 5, 1);
  EXPECT_FALSE(a.visible_equals(b));
  const Plane c(6, 4);
  EXPECT_FALSE(a.visible_equals(c));
}

TEST(Plane, AbsoluteDifference) {
  Plane a(4, 4);
  Plane b(4, 4);
  a.fill(10);
  b.fill(13);
  EXPECT_EQ(a.absolute_difference(b), 16u * 3u);
  b.set(0, 0, 0);  // |10−0| − |10−13| = +7 relative to the uniform case
  EXPECT_EQ(a.absolute_difference(b), 16u * 3u - 3u + 10u);
}

TEST(Pad, CropExtractsRectangle) {
  const Plane src = acbm::test::random_plane(32, 32, 2);
  const Plane out = crop(src, 8, 4, 16, 8);
  EXPECT_EQ(out.width(), 16);
  EXPECT_EQ(out.height(), 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      ASSERT_EQ(out.at(x, y), src.at(8 + x, 4 + y));
    }
  }
}

TEST(Pad, CropMayReadSourceBorder) {
  Plane src(8, 8, 4);
  src.fill(50);
  src.extend_border();
  const Plane out = crop(src, -2, -2, 4, 4);
  EXPECT_EQ(out.at(0, 0), 50);  // replicated border content
}

}  // namespace
}  // namespace acbm::video
