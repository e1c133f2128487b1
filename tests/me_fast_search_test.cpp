// The classical fast searches (TSS, 4SS, DS, CDS) through the common
// MotionEstimator interface: correctness on tractable cases, complexity
// bounds, window discipline, and position accounting.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "me/full_search.hpp"
#include "me/pattern_search.hpp"
#include "test_support.hpp"

namespace acbm::me {
namespace {

using acbm::test::SearchFixture;
using acbm::test::shifted_pair;

using Kind = PatternSearch::Kind;

std::unique_ptr<MotionEstimator> make(Kind kind) {
  return std::make_unique<PatternSearch>(kind);
}

class FastSearchTest : public ::testing::TestWithParam<Kind> {};

TEST_P(FastSearchTest, FindsZeroMotion) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 1);
  const SearchFixture fx(std::move(ref), std::move(cur));
  auto est = make(GetParam());
  const EstimateResult r = est->estimate(fx.context(16, 16));
  EXPECT_EQ(r.mv, (Mv{0, 0}));
  EXPECT_EQ(r.sad, 0u);
}

TEST_P(FastSearchTest, FindsSmallAdjacentMotion) {
  // Smooth texture: the SAD landscape slopes toward the truth, which is the
  // regime these centre-biased searches are built for (on iid noise they
  // can legitimately wander — see FastSearches.AllWorseOrEqualToFsbmOnSad).
  auto [ref, cur] = acbm::test::smooth_shifted_pair(64, 48, 1, 1, 2);
  const SearchFixture fx(std::move(ref), std::move(cur));
  auto est = make(GetParam());
  const EstimateResult r = est->estimate(fx.context(16, 16));
  EXPECT_EQ(r.mv, mv_from_fullpel(1, 1));
  EXPECT_EQ(r.sad, 0u);
}

TEST_P(FastSearchTest, FarCheaperThanFullSearch) {
  auto [ref, cur] = shifted_pair(64, 48, 2, -2, 3);
  const SearchFixture fx(std::move(ref), std::move(cur));
  auto est = make(GetParam());
  const EstimateResult r = est->estimate(fx.context(16, 16, 15));
  EXPECT_LT(r.positions, 969u / 4u);
  EXPECT_GT(r.positions, 8u);
}

TEST_P(FastSearchTest, ResultAlwaysInsideWindow) {
  for (int seed = 0; seed < 4; ++seed) {
    const SearchFixture fx(acbm::test::random_plane(64, 64, 50 + seed),
                           acbm::test::random_plane(64, 64, 60 + seed));
    auto est = make(GetParam());
    const BlockContext ctx = fx.context(16, 16, 7);
    const EstimateResult r = est->estimate(ctx);
    EXPECT_TRUE(ctx.window.contains(r.mv));
  }
}

TEST_P(FastSearchTest, NeverClaimsFullSearch) {
  auto [ref, cur] = shifted_pair(64, 48, 1, 0, 4);
  const SearchFixture fx(std::move(ref), std::move(cur));
  auto est = make(GetParam());
  EXPECT_FALSE(est->estimate(fx.context(16, 16)).used_full_search);
}

TEST_P(FastSearchTest, TinyWindowStillWorks) {
  auto [ref, cur] = shifted_pair(64, 48, 1, 0, 5);
  const SearchFixture fx(std::move(ref), std::move(cur));
  auto est = make(GetParam());
  const BlockContext ctx = fx.context(16, 16, 1);
  const EstimateResult r = est->estimate(ctx);
  EXPECT_TRUE(ctx.window.contains(r.mv));
  EXPECT_EQ(r.mv, mv_from_fullpel(1, 0));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FastSearchTest,
                         ::testing::Values(Kind::kTss, Kind::kFss, Kind::kDs,
                                           Kind::kHexbs, Kind::kCds),
                         [](const auto& info) {
                           return std::string(
                               PatternSearch(info.param).name());
                         });

TEST(TssSearch, FollowsGradientToLargeMotion) {
  // A smooth cone-shaped SAD landscape: matching error grows monotonically
  // with displacement error, so TSS's logarithmic 8→4→2→1 schedule must
  // walk to a +12 shift.
  auto [ref, cur] = acbm::test::smooth_shifted_pair(96, 96, 12, 0, 3, 32);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch tss(Kind::kTss);
  const EstimateResult r = tss.estimate(fx.context(32, 32, 15));
  EXPECT_EQ(r.mv, mv_from_fullpel(12, 0));
  EXPECT_EQ(r.sad, 0u);
}

TEST(TssSearch, PositionBudgetLogarithmic) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 6);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch tss(Kind::kTss);
  const EstimateResult r = tss.estimate(fx.context(16, 16, 15));
  // ≤ 1 + 4 stages × 8 points + 8 half-pel (visited-dedup may reduce it).
  EXPECT_LE(r.positions, 41u);
}

TEST(Ds, SdspRunsAfterConvergence) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 7);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch ds(Kind::kDs);
  const EstimateResult r = ds.estimate(fx.context(16, 16));
  // LDSP (9) + SDSP (4, deduped) + half-pel (8): stationary block budget.
  EXPECT_LE(r.positions, 21u);
}

TEST(Cds, StationaryBlockUsesHalfwayStop) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 8);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch cds(Kind::kCds);
  const EstimateResult r = cds.estimate(fx.context(16, 16));
  // Small cross (5) + half-pel (8) = 13 — the CDS selling point.
  EXPECT_LE(r.positions, 13u);
}

TEST(Cds, QuasiStationaryStopsAfterSmallDiamond) {
  auto [ref, cur] = shifted_pair(64, 48, 1, 0, 9);
  const SearchFixture fx(std::move(ref), std::move(cur));
  PatternSearch cds(Kind::kCds);
  const EstimateResult r = cds.estimate(fx.context(16, 16));
  EXPECT_EQ(r.mv, mv_from_fullpel(1, 0));
  EXPECT_LE(r.positions, 25u);
}

TEST(FastSearches, AllWorseOrEqualToFsbmOnSad) {
  // Sanity of the quality hierarchy on a hard case: FSBM is the floor.
  const SearchFixture fx(acbm::test::random_plane(96, 96, 70),
                         acbm::test::random_plane(96, 96, 71));
  FullSearch fsbm;
  const BlockContext ctx = fx.context(32, 32, 15);
  const std::uint32_t floor_sad = fsbm.estimate(ctx).sad;
  for (Kind kind :
       {Kind::kTss, Kind::kFss, Kind::kDs, Kind::kHexbs, Kind::kCds}) {
    auto est = make(kind);
    EXPECT_GE(est->estimate(ctx).sad, floor_sad);
  }
}

}  // namespace
}  // namespace acbm::me
