// Rate–distortion-optimized mode decision: J = SSD + λ·bits per macroblock
// (the paper's §2.1 cost function applied to mode selection).

#include <gtest/gtest.h>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "me/full_search.hpp"
#include "me/pbm.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"
#include "video/psnr.hpp"

namespace acbm::codec {
namespace {

std::vector<video::Frame> sequence(const std::string& name, int count) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = count;
  return synth::make_sequence(req);
}

struct RunResult {
  std::uint64_t bits = 0;
  double sse = 0.0;  // total luma SSE vs source
  int skip_mbs = 0;
  int intra_mbs = 0;
};

RunResult run(const std::vector<video::Frame>& frames, ModeDecision mode,
              int qp) {
  me::Pbm pbm;
  EncoderConfig cfg;
  cfg.qp = qp;
  cfg.search_range = 7;
  cfg.mode_decision = mode;
  Encoder encoder({frames[0].width(), frames[0].height()}, cfg, pbm);
  RunResult result;
  for (const auto& f : frames) {
    const FrameReport r = encoder.encode_frame(f);
    result.bits += r.bits;
    result.sse += video::mse(f.y(), encoder.last_recon().y()) *
                  f.width() * f.height();
    result.skip_mbs += r.skip_mbs;
    result.intra_mbs += r.intra ? 0 : r.intra_mbs;
  }
  return result;
}

TEST(RdoModeDecision, LagrangianCostNeverWorseThanHeuristic) {
  // RDO minimises J per macroblock, so the sequence-level J must not exceed
  // the heuristic's (same λ). Allow 1 % slack for the greedy per-MB scope
  // (predictor coupling between macroblocks is not jointly optimised).
  for (const char* name : {"carphone", "table", "foreman"}) {
    const auto frames = sequence(name, 5);
    for (int qp : {8, 16, 28}) {
      const RunResult heuristic = run(frames, ModeDecision::kHeuristic, qp);
      const RunResult rdo = run(frames, ModeDecision::kRateDistortion, qp);
      const double lambda = 0.85 * qp * qp;
      const double j_heuristic =
          heuristic.sse + lambda * static_cast<double>(heuristic.bits);
      const double j_rdo = rdo.sse + lambda * static_cast<double>(rdo.bits);
      EXPECT_LE(j_rdo, j_heuristic * 1.01) << name << " qp " << qp;
    }
  }
}

TEST(RdoModeDecision, StreamsDecodableWithParity) {
  const auto frames = sequence("table", 4);
  core::Acbm acbm;
  EncoderConfig cfg;
  cfg.qp = 20;
  cfg.search_range = 7;
  cfg.mode_decision = ModeDecision::kRateDistortion;
  Encoder encoder({64, 48}, cfg, acbm);
  std::vector<video::Frame> recons;
  for (const auto& f : frames) {
    (void)encoder.encode_frame(f);
    recons.push_back(encoder.last_recon());
  }
  Decoder decoder(encoder.finish(), DecoderConfig{});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(decoded[i].y().visible_equals(recons[i].y())) << i;
    EXPECT_TRUE(decoded[i].cb().visible_equals(recons[i].cb())) << i;
    EXPECT_TRUE(decoded[i].cr().visible_equals(recons[i].cr())) << i;
  }
}

TEST(RdoModeDecision, SkipsAggressivelyAtCoarseQp) {
  // At coarse quantisers λ is huge, so RDO should skip at least as much as
  // the heuristic (which requires an exactly-zero residual to skip).
  const auto frames = sequence("miss_america", 5);
  const RunResult heuristic = run(frames, ModeDecision::kHeuristic, 30);
  const RunResult rdo = run(frames, ModeDecision::kRateDistortion, 30);
  EXPECT_GE(rdo.skip_mbs, heuristic.skip_mbs);
  EXPECT_LE(rdo.bits, heuristic.bits);
}

TEST(RdoModeDecision, StaticSceneFullySkipped) {
  video::Frame still(64, 48);
  still.y() = acbm::test::random_plane(64, 48, 3);
  still.extend_borders();
  me::FullSearch fsbm;
  EncoderConfig cfg;
  cfg.qp = 16;
  cfg.search_range = 7;
  cfg.mode_decision = ModeDecision::kRateDistortion;
  Encoder encoder({64, 48}, cfg, fsbm);
  (void)encoder.encode_frame(still);
  const FrameReport r = encoder.encode_frame(still);
  EXPECT_EQ(r.skip_mbs, 12);
  EXPECT_EQ(r.inter_mbs, 0);
}

TEST(RdoModeDecision, MacroblockCountsConsistent) {
  const auto frames = sequence("foreman", 4);
  me::Pbm pbm;
  EncoderConfig cfg;
  cfg.qp = 16;
  cfg.search_range = 7;
  cfg.mode_decision = ModeDecision::kRateDistortion;
  Encoder encoder({64, 48}, cfg, pbm);
  (void)encoder.encode_frame(frames[0]);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const FrameReport r = encoder.encode_frame(frames[i]);
    EXPECT_EQ(r.intra_mbs + r.inter_mbs + r.skip_mbs, 12) << i;
  }
}

}  // namespace
}  // namespace acbm::codec
