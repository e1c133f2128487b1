// NTSS (the paper's ref [3]): centre bias, halfway stops, TSS continuation.

#include <gtest/gtest.h>

#include "me/pattern_search.hpp"
#include "test_support.hpp"

namespace acbm::me {
namespace {

using acbm::test::SearchFixture;
using acbm::test::shifted_pair;
using acbm::test::smooth_shifted_pair;
using Kind = PatternSearch::Kind;

TEST(NtssSearch, StationaryBlockStopsAfterFirstStep) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 1);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch ntss(Kind::kNtss);
  const EstimateResult r = ntss.estimate(fx.context(16, 16, 15));
  EXPECT_EQ(r.mv, (Mv{0, 0}));
  EXPECT_EQ(r.sad, 0u);
  // 17 first-step positions + 8 half-pel.
  EXPECT_EQ(r.positions, 25u);
}

TEST(NtssSearch, UnitMotionUsesSecondHalfwayStop) {
  auto [ref, cur] = shifted_pair(64, 48, 1, 1, 2);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch ntss(Kind::kNtss);
  const EstimateResult r = ntss.estimate(fx.context(16, 16, 15));
  EXPECT_EQ(r.mv, mv_from_fullpel(1, 1));
  EXPECT_EQ(r.sad, 0u);
  // 17 + at most 8 extra unit probes (corner: 3 new) + 8 half-pel.
  EXPECT_LE(r.positions, 33u);
}

TEST(NtssSearch, BeatsTssOnSmallUnpredictedMotion) {
  // The whole point of NTSS: small motion on noisy content. On iid random
  // planes classic TSS's first probe ring is ±8 integer — it cannot see the
  // (1,1) optimum, while NTSS's unit ring catches it immediately.
  auto [ref, cur] = shifted_pair(64, 48, 1, 1, 3);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch ntss(Kind::kNtss);
  PatternSearch tss(Kind::kTss);
  const BlockContext ctx = fx.context(16, 16, 15);
  const EstimateResult rn = ntss.estimate(ctx);
  const EstimateResult rt = tss.estimate(ctx);
  EXPECT_EQ(rn.sad, 0u);
  EXPECT_LE(rn.sad, rt.sad);
}

TEST(NtssSearch, FollowsGradientToLargeMotion) {
  auto [ref, cur] = smooth_shifted_pair(96, 96, 12, -6, 4, 32);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch ntss(Kind::kNtss);
  const EstimateResult r = ntss.estimate(fx.context(32, 32, 15));
  EXPECT_EQ(r.mv, mv_from_fullpel(12, -6));
  EXPECT_EQ(r.sad, 0u);
}

TEST(NtssSearch, ComplexityBoundedOnHardContent) {
  const SearchFixture fx(acbm::test::random_plane(96, 96, 5),
                         acbm::test::random_plane(96, 96, 6));
  PatternSearch ntss(Kind::kNtss);
  const EstimateResult r = ntss.estimate(fx.context(32, 32, 15));
  // Worst case: 17 + 8·(stages) + 8 ≈ 17 + 24 + 8 = 49 (dedup can reduce).
  EXPECT_LE(r.positions, 49u);
  EXPECT_FALSE(r.used_full_search);
}

TEST(NtssSearch, StaysInsideWindow) {
  for (int seed = 0; seed < 4; ++seed) {
    const SearchFixture fx(acbm::test::random_plane(64, 64, 70 + seed),
                           acbm::test::random_plane(64, 64, 80 + seed));
    PatternSearch ntss(Kind::kNtss);
    const BlockContext ctx = fx.context(16, 16, 4);
    EXPECT_TRUE(ctx.window.contains(ntss.estimate(ctx).mv));
  }
}

TEST(NtssSearch, NameIsNtss) {
  PatternSearch ntss(Kind::kNtss);
  EXPECT_EQ(ntss.name(), "NTSS");
}

}  // namespace
}  // namespace acbm::me
