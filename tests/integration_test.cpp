// End-to-end integration: the whole stack (synthetic sequence → motion
// estimation → encoder → bitstream → decoder → PSNR) exercised together,
// including the paper's qualitative claims at miniature scale.

#include <gtest/gtest.h>

#include <map>

#include "analysis/rd_sweep.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "me/full_search.hpp"
#include "me/pbm.hpp"
#include "synth/sequences.hpp"
#include "video/psnr.hpp"

namespace acbm {
namespace {

std::vector<video::Frame> make_frames(const std::string& name, int count,
                                      int fps = 30) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = count;
  req.fps = fps;
  return synth::make_sequence(req);
}

struct PipelineResult {
  double psnr = 0.0;
  std::uint64_t bits = 0;
  std::uint64_t positions = 0;
};

PipelineResult run_pipeline(const std::vector<video::Frame>& frames,
                            me::MotionEstimator& estimator, int qp) {
  codec::EncoderConfig cfg;
  cfg.qp = qp;
  cfg.search_range = 7;
  codec::Encoder enc({frames[0].width(), frames[0].height()}, cfg, estimator);
  PipelineResult result;
  for (const auto& f : frames) {
    const codec::FrameReport r = enc.encode_frame(f);
    result.bits += r.bits;
    result.positions += r.me_positions;
  }
  // Measure quality through the *decoder*, proving the full loop.
  codec::Decoder dec(enc.finish(), codec::DecoderConfig{});
  const auto decoded = dec.decode_all();
  EXPECT_EQ(decoded.size(), frames.size());
  double psnr = 0.0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    psnr += video::psnr_luma(frames[i], decoded[i]);
  }
  result.psnr = psnr / static_cast<double>(decoded.size());
  return result;
}

TEST(Integration, AllSequencesEncodeDecodeAtReasonableQuality) {
  for (const auto& name : synth::standard_sequence_names()) {
    const auto frames = make_frames(name, 3);
    me::Pbm pbm;
    const PipelineResult r = run_pipeline(frames, pbm, 10);
    EXPECT_GT(r.psnr, 28.0) << name;
    EXPECT_GT(r.bits, 0u) << name;
  }
}

TEST(Integration, AcbmMatchesFsbmQualityAtFractionOfCost) {
  // The paper's headline, end to end: similar PSNR, big position savings.
  const auto frames = make_frames("carphone", 6);
  me::FullSearch fsbm;
  core::Acbm acbm;
  const PipelineResult rf = run_pipeline(frames, fsbm, 16);
  const PipelineResult ra = run_pipeline(frames, acbm, 16);
  EXPECT_GT(ra.psnr, rf.psnr - 0.5);          // quality preserved
  EXPECT_LT(ra.positions, rf.positions / 2);  // ≥50 % fewer SADs (miniature)
}

TEST(Integration, AcbmBeatsPbmOnHardContent) {
  // Fast erratic motion (table @10fps): PBM alone degrades, ACBM recovers
  // by spending full searches on the critical blocks.
  const auto frames = make_frames("table", 5, 10);
  me::Pbm pbm;
  core::Acbm acbm;
  const PipelineResult rp = run_pipeline(frames, pbm, 16);
  const PipelineResult ra = run_pipeline(frames, acbm, 16);
  EXPECT_GE(ra.psnr, rp.psnr - 1e-9);
  EXPECT_GT(ra.positions, rp.positions);  // it paid for the quality
}

TEST(Integration, ComplexityOrderingAcrossSequences) {
  // Table 1's row structure: miss_america cheapest for ACBM, foreman most
  // expensive (texture + pan forces more full searches).
  std::map<std::string, double> avg_positions;
  for (const std::string name : {"miss_america", "foreman"}) {
    const auto frames = make_frames(name, 5);
    core::Acbm acbm;
    const PipelineResult r = run_pipeline(frames, acbm, 20);
    const double p_mbs = (64.0 / 16) * (48.0 / 16) * (frames.size() - 1);
    avg_positions[name] = static_cast<double>(r.positions) / p_mbs;
  }
  EXPECT_LT(avg_positions["miss_america"], avg_positions["foreman"]);
}

TEST(Integration, AcbmComplexityRisesAsQpFalls) {
  // Table 1's column structure: positions grow monotonically (in trend) as
  // Qp decreases because the T1 threshold shrinks.
  const auto frames = make_frames("carphone", 5);
  std::vector<double> positions;
  for (int qp : {30, 20, 10}) {
    core::Acbm acbm;
    positions.push_back(
        static_cast<double>(run_pipeline(frames, acbm, qp).positions));
  }
  EXPECT_LE(positions[0], positions[1]);
  EXPECT_LE(positions[1], positions[2]);
}

TEST(Integration, LowerFrameRateRaisesAcbmCost) {
  // The paper: at 10 fps motion is larger, PBM fails more often, ACBM runs
  // more full searches than at 30 fps. QCIF so the moving objects span
  // enough macroblocks for the effect to register.
  auto frames_at = [](int fps) {
    synth::SequenceRequest req;
    req.name = "table";
    req.size = video::kQcif;
    req.frame_count = 4;
    req.fps = fps;
    return synth::make_sequence(req);
  };
  core::Acbm acbm30;
  core::Acbm acbm10;
  const PipelineResult r30 = run_pipeline(frames_at(30), acbm30, 20);
  const PipelineResult r10 = run_pipeline(frames_at(10), acbm10, 20);
  EXPECT_GT(r10.positions, r30.positions);
}

TEST(Integration, RdSweepThroughPublicDriver) {
  // The exact call chain the benches use, smoke-tested end to end.
  const auto frames = make_frames("miss_america", 4);
  analysis::SweepConfig cfg;
  cfg.qps = {16, 24};
  cfg.search_range = 7;
  for (const char* spec : {"ACBM", "FSBM", "PBM"}) {
    const analysis::RdCurve curve =
        run_rd_sweep(frames, 30, spec, cfg, "miss_america");
    ASSERT_EQ(curve.points.size(), 2u);
    for (const auto& p : curve.points) {
      EXPECT_GT(p.psnr_y, 25.0);
      EXPECT_GT(p.kbps, 0.0);
    }
  }
}

}  // namespace
}  // namespace acbm
