// ACBM: the criticality tests T1/T2, degenerate parameter anchors, position
// accounting, statistics, and the decision log.

#include "core/acbm.hpp"

#include <gtest/gtest.h>

#include "me/full_search.hpp"
#include "me/pbm.hpp"
#include "me/sad.hpp"
#include "test_support.hpp"

namespace acbm::core {
namespace {

using acbm::test::SearchFixture;
using acbm::test::shifted_pair;
using me::Mv;

TEST(AcbmParams, ThresholdFormula) {
  const AcbmParams p = AcbmParams::paper_defaults();
  EXPECT_DOUBLE_EQ(p.alpha, 1000.0);
  EXPECT_DOUBLE_EQ(p.beta, 8.0);
  EXPECT_DOUBLE_EQ(p.gamma, 0.25);
  EXPECT_DOUBLE_EQ(p.threshold(16), 1000.0 + 8.0 * 256.0);
  EXPECT_DOUBLE_EQ(p.threshold(30), 1000.0 + 8.0 * 900.0);
}

TEST(Acbm, LowActivityBlockSkipsFullSearch) {
  // Flat content: Intra_SAD ≈ 0 and PBM matches perfectly → T1 accepts.
  video::Plane flat(64, 48);
  flat.fill(90);
  flat.extend_border();
  video::Plane cur = flat;
  const SearchFixture fx(std::move(flat), std::move(cur));
  me::BlockContext ctx = fx.context(16, 16);
  ctx.qp = 16;
  Acbm acbm;
  const me::EstimateResult r = acbm.estimate(ctx);
  EXPECT_FALSE(r.used_full_search);
  EXPECT_LT(r.positions, 100u);
  EXPECT_EQ(acbm.stats().accepted_low_activity, 1u);
  EXPECT_EQ(acbm.stats().critical, 0u);
}

TEST(Acbm, GoodMatchOnTexturedBlockSkipsFullSearch) {
  // Highly textured but PBM finds the exact zero-motion match:
  // SAD_PBM = 0 < γ·Intra_SAD → T2 accepts.
  const video::Plane tex = acbm::test::random_plane(64, 48, 1);
  video::Plane cur = tex;
  const SearchFixture fx(tex, cur);
  me::BlockContext ctx = fx.context(16, 16);
  ctx.qp = 16;
  Acbm acbm;
  const me::EstimateResult r = acbm.estimate(ctx);
  EXPECT_FALSE(r.used_full_search);
  EXPECT_EQ(acbm.stats().accepted_good_match, 1u);
}

TEST(Acbm, CriticalBlockRunsFullSearch) {
  // Textured block with a large unpredicted shift: PBM is trapped, both
  // tests fail, FSBM must run and find the true vector.
  auto [ref, cur] = shifted_pair(96, 96, 14, 14, 2);
  const SearchFixture fx(std::move(ref), std::move(cur));
  me::BlockContext ctx = fx.context(32, 32);
  ctx.qp = 16;
  Acbm acbm;
  const me::EstimateResult r = acbm.estimate(ctx);
  EXPECT_TRUE(r.used_full_search);
  EXPECT_EQ(r.mv, me::mv_from_fullpel(14, 14));
  EXPECT_EQ(r.sad, 0u);
  EXPECT_EQ(acbm.stats().critical, 1u);
  EXPECT_GT(r.positions, 969u);  // PBM + Intra_SAD + FSBM
}

TEST(Acbm, AlwaysFullParamsMatchFsbmQuality) {
  const SearchFixture fx(acbm::test::random_plane(96, 96, 3),
                         acbm::test::random_plane(96, 96, 4));
  const me::BlockContext ctx = fx.context(32, 32);
  Acbm acbm(AcbmParams::always_full_search());
  me::FullSearch fsbm;
  EXPECT_EQ(acbm.estimate(ctx).sad, fsbm.estimate(ctx).sad);
  EXPECT_EQ(acbm.stats().critical, 1u);
}

TEST(Acbm, NeverFullParamsMatchPbm) {
  const SearchFixture fx(acbm::test::random_plane(96, 96, 5),
                         acbm::test::random_plane(96, 96, 6));
  const me::BlockContext ctx = fx.context(32, 32);
  Acbm acbm(AcbmParams::never_full_search());
  me::Pbm pbm;
  const me::EstimateResult ra = acbm.estimate(ctx);
  const me::EstimateResult rp = pbm.estimate(ctx);
  EXPECT_EQ(ra.mv, rp.mv);
  EXPECT_EQ(ra.sad, rp.sad);
  EXPECT_EQ(ra.positions, rp.positions + 1);  // + the Intra_SAD pass
  EXPECT_FALSE(ra.used_full_search);
  EXPECT_EQ(acbm.stats().critical, 0u);
}

TEST(Acbm, NeverWorseThanPbmOnSad) {
  for (int seed = 0; seed < 8; ++seed) {
    const SearchFixture fx(acbm::test::random_plane(96, 96, 100 + seed),
                           acbm::test::random_plane(96, 96, 200 + seed));
    const me::BlockContext ctx = fx.context(32, 32);
    Acbm acbm;
    me::Pbm pbm;
    EXPECT_LE(acbm.estimate(ctx).sad, pbm.estimate(ctx).sad) << seed;
  }
}

TEST(Acbm, HigherQpAcceptsMore) {
  // The same moderately-mismatched block: at a tiny Qp the tolerance is
  // small (critical); at Qp 31 T1's β·Qp² absorbs it.
  // Two *independent* low-amplitude noise fields: no displacement can align
  // them, so SAD_PBM stays moderate (≈1200) while Intra_SAD is mild (≈800).
  // Their sum lands between the T1 thresholds at Qp 1 (1008) and Qp 31
  // (8688), and T2 fails because the match error exceeds γ·Intra_SAD.
  video::Plane ref(64, 48);
  video::Plane cur(64, 48);
  util::Rng rng(77);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.set(x, y, static_cast<std::uint8_t>(100 + rng.next_in_range(-6, 6)));
      cur.set(x, y, static_cast<std::uint8_t>(100 + rng.next_in_range(-6, 6)));
    }
  }
  ref.extend_border();
  cur.extend_border();
  const SearchFixture fx(std::move(ref), std::move(cur));

  me::BlockContext low_qp = fx.context(16, 16);
  low_qp.qp = 1;
  me::BlockContext high_qp = fx.context(16, 16);
  high_qp.qp = 31;

  Acbm acbm;
  (void)acbm.estimate(low_qp);
  const bool critical_at_low = acbm.stats().critical == 1;
  acbm.reset();
  (void)acbm.estimate(high_qp);
  const bool critical_at_high = acbm.stats().critical == 1;
  EXPECT_TRUE(critical_at_low);
  EXPECT_FALSE(critical_at_high);
}

TEST(Acbm, GammaZeroDisablesGoodMatchPath) {
  const video::Plane tex = acbm::test::random_plane(64, 48, 7);
  video::Plane cur = tex;
  const SearchFixture fx(tex, cur);
  me::BlockContext ctx = fx.context(16, 16);
  ctx.qp = 1;  // keep T1 threshold small: Intra_SAD alone exceeds it
  Acbm acbm(AcbmParams{0.0, 0.0, 0.0});
  (void)acbm.estimate(ctx);
  EXPECT_EQ(acbm.stats().critical, 1u);
}

TEST(Acbm, StatsAccumulateAndReset) {
  auto [ref, cur] = shifted_pair(96, 96, 0, 0, 8);
  const SearchFixture fx(std::move(ref), std::move(cur));
  Acbm acbm;
  for (int i = 0; i < 3; ++i) {
    (void)acbm.estimate(fx.context(32, 32));
  }
  EXPECT_EQ(acbm.stats().blocks, 3u);
  EXPECT_GT(acbm.stats().total_positions, 0u);
  EXPECT_GT(acbm.stats().average_positions(), 0.0);
  acbm.reset();
  EXPECT_EQ(acbm.stats().blocks, 0u);
  EXPECT_EQ(acbm.stats().total_positions, 0u);
}

TEST(Acbm, DecisionLogRecordsOutcomes) {
  auto [ref, cur] = shifted_pair(96, 96, 14, 14, 9);
  const SearchFixture fx(std::move(ref), std::move(cur));
  Acbm acbm;
  acbm.set_record_log(true);
  me::BlockContext ctx = fx.context(32, 32);
  ctx.bx = 2;
  ctx.by = 2;
  (void)acbm.estimate(ctx);
  ASSERT_EQ(acbm.decision_log().size(), 1u);
  const BlockDecision d = acbm.decision_log()[0];
  EXPECT_EQ(d.bx, 2);
  EXPECT_EQ(d.by, 2);
  EXPECT_EQ(d.outcome, AcbmOutcome::kCritical);
  EXPECT_GT(d.intra_sad, 0u);
  EXPECT_GT(d.pbm_sad, 0u);
  EXPECT_EQ(d.final_mv, me::mv_from_fullpel(14, 14));
}

TEST(Acbm, LogDisabledByDefault) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 10);
  const SearchFixture fx(std::move(ref), std::move(cur));
  Acbm acbm;
  (void)acbm.estimate(fx.context(16, 16));
  EXPECT_TRUE(acbm.decision_log().empty());
}

TEST(Acbm, CriticalFractionComputed) {
  AcbmStats stats;
  stats.blocks = 10;
  stats.critical = 3;
  stats.total_positions = 500;
  EXPECT_DOUBLE_EQ(stats.critical_fraction(), 0.3);
  EXPECT_DOUBLE_EQ(stats.average_positions(), 50.0);
}

TEST(Acbm, NameIsAcbm) {
  Acbm acbm;
  EXPECT_EQ(acbm.name(), "ACBM");
}

}  // namespace
}  // namespace acbm::core
