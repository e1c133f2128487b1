// RD sweep driver: the estimator registry it builds from, sweep mechanics,
// and the qualitative relations the paper's Figs. 5/6 and Table 1 rest on
// (small scale here; the benches run the full-size versions).

#include "analysis/rd_sweep.hpp"

#include <gtest/gtest.h>

#include "core/builtin_estimators.hpp"
#include "synth/sequences.hpp"

namespace acbm::analysis {
namespace {

std::vector<video::Frame> sequence(const std::string& name, int frames,
                                   int fps = 30) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = frames;
  req.fps = fps;
  return synth::make_sequence(req);
}

SweepConfig small_config(std::vector<int> qps) {
  SweepConfig cfg;
  cfg.qps = std::move(qps);
  cfg.search_range = 7;
  return cfg;
}

TEST(BuiltinEstimators, NamesMatchPaperLegendsInDisplayOrder) {
  // The paper's three first, then the candidate-reduction and
  // pixel-decimation baselines: the order benches and usage strings show.
  const std::vector<std::string> expected = {
      "ACBM", "FSBM", "PBM",   "TSS", "NTSS",      "4SS",
      "DS",   "HEXBS", "CDS", "FSBM-adec", "FSBM-sub"};
  EXPECT_EQ(core::builtin_estimators().names(), expected);
  EXPECT_EQ(core::builtin_estimators().size(), 11u);
}

TEST(BuiltinEstimators, CreatesCorrectlyNamedInstances) {
  for (const std::string& name : core::builtin_estimators().names()) {
    const auto est = core::builtin_estimators().create(name);
    ASSERT_NE(est, nullptr);
    EXPECT_EQ(est->name(), name);
  }
}

TEST(RunRdSweep, ProducesOnePointPerQp) {
  const auto frames = sequence("miss_america", 3);
  const RdCurve curve = run_rd_sweep(frames, 30, "PBM",
                                     small_config({10, 20, 30}),
                                     "miss_america");
  EXPECT_EQ(curve.sequence, "miss_america");
  EXPECT_EQ(curve.algorithm, "PBM");
  EXPECT_EQ(curve.fps, 30);
  ASSERT_EQ(curve.points.size(), 3u);
  EXPECT_EQ(curve.points[0].qp, 10);
  EXPECT_EQ(curve.points[2].qp, 30);
}

TEST(RunRdSweep, RateAndQualityDecreaseWithQp) {
  const auto frames = sequence("carphone", 4);
  const RdCurve curve = run_rd_sweep(frames, 30, "PBM",
                                     small_config({6, 16, 28}), "carphone");
  EXPECT_GT(curve.points[0].kbps, curve.points[1].kbps);
  EXPECT_GT(curve.points[1].kbps, curve.points[2].kbps);
  EXPECT_GT(curve.points[0].psnr_y, curve.points[1].psnr_y);
  EXPECT_GT(curve.points[1].psnr_y, curve.points[2].psnr_y);
}

TEST(RunRdSweep, EmptyFramesThrow) {
  const std::vector<video::Frame> empty;
  EXPECT_THROW(run_rd_sweep(empty, 30, "PBM",
                            small_config({16}), "x"),
               std::invalid_argument);
}

TEST(RunRdPoint, FsbmPositionsMatchTheory) {
  const auto frames = sequence("table", 3);
  const auto est = core::builtin_estimators().create("FSBM");
  const RdPoint p = run_rd_point(frames, 30, *est, 16, small_config({16}));
  EXPECT_DOUBLE_EQ(p.avg_positions, (15 * 15) + 8);  // p=7: 225+8
  EXPECT_DOUBLE_EQ(p.full_search_fraction, 1.0);
}

TEST(RunRdPoint, AcbmCheaperThanFsbmAndBetterThanPbmQuality) {
  // The paper's two headline claims, miniaturised.
  const auto frames = sequence("table", 5);
  const SweepConfig cfg = small_config({16});

  const auto fsbm = core::builtin_estimators().create("FSBM");
  const auto pbm = core::builtin_estimators().create("PBM");
  const auto acbm = core::builtin_estimators().create("ACBM");

  const RdPoint pf = run_rd_point(frames, 30, *fsbm, 16, cfg);
  const RdPoint pp = run_rd_point(frames, 30, *pbm, 16, cfg);
  const RdPoint pa = run_rd_point(frames, 30, *acbm, 16, cfg);

  EXPECT_LT(pa.avg_positions, pf.avg_positions);
  EXPECT_GT(pa.avg_positions, pp.avg_positions);
  // Quality: ACBM within a whisker of FSBM, PBM at or below ACBM.
  EXPECT_GT(pa.psnr_y, pf.psnr_y - 0.5);
  EXPECT_GE(pa.psnr_y, pp.psnr_y - 0.05);
}

TEST(RunRdPoint, AcbmCriticalFractionRisesAtLowQp) {
  const auto frames = sequence("foreman", 4);
  const SweepConfig cfg = small_config({16});
  const auto acbm = core::builtin_estimators().create("ACBM");
  const RdPoint lo = run_rd_point(frames, 30, *acbm, 4, cfg);
  const RdPoint hi = run_rd_point(frames, 30, *acbm, 30, cfg);
  EXPECT_GE(lo.full_search_fraction, hi.full_search_fraction);
  EXPECT_GE(lo.avg_positions, hi.avg_positions);
}

TEST(RunRdPoint, EstimatorResetBetweenRuns) {
  // Reusing one estimator across runs must not leak state (ACBM stats are
  // reset; complexity numbers identical for identical inputs).
  const auto frames = sequence("carphone", 3);
  const SweepConfig cfg = small_config({16});
  const auto acbm = core::builtin_estimators().create("ACBM");
  const RdPoint a = run_rd_point(frames, 30, *acbm, 16, cfg);
  const RdPoint b = run_rd_point(frames, 30, *acbm, 16, cfg);
  EXPECT_DOUBLE_EQ(a.avg_positions, b.avg_positions);
  EXPECT_DOUBLE_EQ(a.kbps, b.kbps);
  EXPECT_DOUBLE_EQ(a.psnr_y, b.psnr_y);
}

TEST(RunRdPoint, MvBitsShareNonTrivialForFsbm) {
  const auto frames = sequence("foreman", 3);
  const auto fsbm = core::builtin_estimators().create("FSBM");
  const RdPoint p =
      run_rd_point(frames, 30, *fsbm, 30, small_config({30}));
  EXPECT_GT(p.mv_bits_share, 0.0);
  EXPECT_LT(p.mv_bits_share, 1.0);
}

TEST(RunRdPoint, PbmFieldSmootherThanFsbm) {
  // §2.3: FSBM fields are incoherent relative to PBM's. The effect lives in
  // ambiguous (flat/noisy) regions, so use the low-texture clip at QCIF
  // where the field is big enough for the statistic to be meaningful.
  synth::SequenceRequest req;
  req.name = "miss_america";
  req.size = video::kQcif;
  req.frame_count = 4;
  req.fps = 10;
  const auto frames = synth::make_sequence(req);
  const SweepConfig cfg = small_config({16});
  const auto fsbm = core::builtin_estimators().create("FSBM");
  const auto pbm = core::builtin_estimators().create("PBM");
  const RdPoint pf = run_rd_point(frames, 10, *fsbm, 16, cfg);
  const RdPoint pp = run_rd_point(frames, 10, *pbm, 16, cfg);
  EXPECT_LT(pp.field_smoothness, pf.field_smoothness);
}

}  // namespace
}  // namespace acbm::analysis
