// Parallel-encoding determinism: the pipeline's row-parallel front stage
// (wavefront-staggered when the estimator reads the current field) must
// produce byte-identical ACV1 bitstreams at any thread count, for I-only,
// P-heavy and skip-heavy content — the invariant that makes the thread
// count a pure throughput knob. Every row task runs the caller's one
// estimator, so ACBM's statistics and decision log match a serial encode,
// and a setting changed between frames applies at every thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "me/estimator.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
namespace {

std::vector<video::Frame> test_sequence(const std::string& name, int frames,
                                        video::PictureSize size = {64, 48}) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = size;
  req.frame_count = frames;
  req.fps = 30;
  return synth::make_sequence(req);
}

struct EncodeOutcome {
  std::vector<std::uint8_t> stream;
  std::vector<FrameReport> reports;
  core::AcbmStats acbm_stats;  // zeros unless the estimator was ACBM
  std::vector<core::BlockDecision> acbm_log;
};

EncodeOutcome encode_with(const std::vector<video::Frame>& frames,
                          const std::string& algorithm,
                          const EncoderConfig& config,
                          bool record_log = false) {
  const auto estimator = core::builtin_estimators().create(algorithm);
  auto* acbm = dynamic_cast<core::Acbm*>(estimator.get());
  if (acbm != nullptr && record_log) {
    acbm->set_record_log(true);
  }
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  EncodeOutcome outcome;
  for (const video::Frame& frame : frames) {
    outcome.reports.push_back(encoder.encode_frame(frame));
  }
  outcome.stream = encoder.finish();
  if (acbm != nullptr) {
    outcome.acbm_stats = acbm->stats();
    outcome.acbm_log = acbm->decision_log();
  }
  return outcome;
}

void expect_reports_identical(const std::vector<FrameReport>& a,
                              const std::vector<FrameReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bits, b[i].bits) << "frame " << i;
    EXPECT_EQ(a[i].me_positions, b[i].me_positions) << "frame " << i;
    EXPECT_EQ(a[i].full_search_blocks, b[i].full_search_blocks)
        << "frame " << i;
    EXPECT_EQ(a[i].intra_mbs, b[i].intra_mbs) << "frame " << i;
    EXPECT_EQ(a[i].inter_mbs, b[i].inter_mbs) << "frame " << i;
    EXPECT_EQ(a[i].skip_mbs, b[i].skip_mbs) << "frame " << i;
    EXPECT_DOUBLE_EQ(a[i].psnr_y, b[i].psnr_y) << "frame " << i;
  }
}

TEST(ParallelEncode, PHeavyBitstreamIdenticalAcrossThreadCounts) {
  const auto frames = test_sequence("foreman", 8);
  EncoderConfig config;
  config.qp = 16;
  const EncodeOutcome serial = encode_with(frames, "ACBM", config);
  ASSERT_GT(serial.stream.size(), 0u);

  for (int threads : {2, 4}) {
    EncoderConfig parallel = config;
    parallel.parallel.threads = threads;
    const EncodeOutcome outcome = encode_with(frames, "ACBM", parallel);
    EXPECT_EQ(outcome.stream, serial.stream) << threads << " threads";
    expect_reports_identical(outcome.reports, serial.reports);
  }
}

TEST(ParallelEncode, PbmSpatialPredictorsSurviveWavefront) {
  // PBM leans hardest on the left/above/above-right predictors — exactly
  // the entries the wavefront must order correctly.
  const auto frames = test_sequence("carphone", 8);
  EncoderConfig config;
  config.qp = 20;
  const EncodeOutcome serial = encode_with(frames, "PBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  EXPECT_EQ(encode_with(frames, "PBM", parallel).stream, serial.stream);
}

TEST(ParallelEncode, FsbmBitstreamIdentical) {
  const auto frames = test_sequence("table", 4);
  EncoderConfig config;
  config.qp = 22;
  config.search_range = 7;  // keep full search affordable in the suite
  const EncodeOutcome serial = encode_with(frames, "FSBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 3;
  EXPECT_EQ(encode_with(frames, "FSBM", parallel).stream, serial.stream);
}

TEST(ParallelEncode, BothRowShapesIdenticalAcrossThreadCounts) {
  // The front stage staggers its P-frame rows only when the block reads the
  // current ME field: PBM always, any estimator at me_lambda > 0 (the
  // median cost predictor). FSBM and DS at λ 0 run their rows without the
  // stagger; every other cell of the grid keeps it. Each row plans its
  // blocks right after estimating them, so the grid also crosses both mode
  // decisions (RD plans read the reference twice: MC and the SKIP copy)
  // with an intra period (I-frame rows only plan).
  const auto frames = test_sequence("foreman", 5, {96, 80});
  for (const std::string algorithm : {"FSBM", "DS", "PBM"}) {
    for (double lambda : {0.0, 4.0}) {
      for (ModeDecision mode :
           {ModeDecision::kHeuristic, ModeDecision::kRateDistortion}) {
        for (int intra_period : {0, 3}) {
          EncoderConfig config;
          config.qp = 16;
          config.search_range = 7;  // keep full search affordable
          config.me_lambda = lambda;
          config.mode_decision = mode;
          config.intra_period = intra_period;
          const EncodeOutcome serial = encode_with(frames, algorithm, config);
          ASSERT_GT(serial.stream.size(), 0u);
          for (int threads : {2, 3, 4}) {
            EncoderConfig parallel = config;
            parallel.parallel.threads = threads;
            const EncodeOutcome outcome =
                encode_with(frames, algorithm, parallel);
            EXPECT_EQ(outcome.stream, serial.stream)
                << algorithm << " λ " << lambda << ", "
                << (mode == ModeDecision::kHeuristic ? "heuristic" : "rd")
                << ", intra_period " << intra_period << ", " << threads
                << " threads";
            expect_reports_identical(outcome.reports, serial.reports);
          }
        }
      }
    }
  }
}

TEST(ParallelEncode, CifFsbmGridIdenticalAcrossThreadCounts) {
  // The entropy stage codes each row as soon as its front row has planned
  // it, so at four threads a frame's back runs beside its own front. At
  // CIF with full search (unstaggered rows) the chase crosses slices (one
  // coder, or four slice tasks parking on their own rows), deblocking
  // (whole-frame reference publication) and both mode decisions (RD plans
  // leave the choice to the entropy stage).
  const auto frames = test_sequence("foreman", 3, {352, 288});
  for (int slices : {1, 4}) {
    for (bool deblock : {false, true}) {
      for (ModeDecision mode :
           {ModeDecision::kHeuristic, ModeDecision::kRateDistortion}) {
        EncoderConfig config;
        config.qp = 16;
        config.slices = slices;
        config.deblock = deblock;
        config.mode_decision = mode;
        const EncodeOutcome serial = encode_with(frames, "FSBM", config);
        ASSERT_GT(serial.stream.size(), 0u);
        EncoderConfig parallel = config;
        parallel.parallel.threads = 4;
        const EncodeOutcome outcome = encode_with(frames, "FSBM", parallel);
        EXPECT_EQ(outcome.stream, serial.stream)
            << "slices " << slices << ", deblock " << deblock << ", "
            << (mode == ModeDecision::kHeuristic ? "heuristic" : "rd");
        expect_reports_identical(outcome.reports, serial.reports);
      }
    }
  }
}

TEST(ParallelEncode, IOnlySequenceIdentical) {
  const auto frames = test_sequence("carphone", 4);
  EncoderConfig config;
  config.qp = 16;
  config.intra_period = 1;  // every frame intra: ME never runs
  const EncodeOutcome serial = encode_with(frames, "ACBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  const EncodeOutcome outcome = encode_with(frames, "ACBM", parallel);
  EXPECT_EQ(outcome.stream, serial.stream);
  for (const FrameReport& report : outcome.reports) {
    EXPECT_TRUE(report.intra);
  }
  EXPECT_EQ(outcome.acbm_stats.blocks, 0u);  // no ME on intra frames
}

TEST(ParallelEncode, SkipHeavySequenceIdentical) {
  // miss_america at a coarse quantiser: static studio background, most
  // macroblocks quantise to COD=1 skips.
  const auto frames = test_sequence("miss_america", 8);
  EncoderConfig config;
  config.qp = 30;
  const EncodeOutcome serial = encode_with(frames, "ACBM", config);

  int skips = 0;
  for (const FrameReport& report : serial.reports) {
    skips += report.skip_mbs;
  }
  EXPECT_GT(skips, 0) << "scenario should actually exercise the skip path";

  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  const EncodeOutcome outcome = encode_with(frames, "ACBM", parallel);
  EXPECT_EQ(outcome.stream, serial.stream);
  expect_reports_identical(outcome.reports, serial.reports);
}

TEST(ParallelEncode, AcbmStatsTotalsIdenticalAcrossThreadCounts) {
  const auto frames = test_sequence("foreman", 8);
  EncoderConfig config;
  config.qp = 18;
  const EncodeOutcome serial = encode_with(frames, "ACBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  const EncodeOutcome outcome = encode_with(frames, "ACBM", parallel);

  EXPECT_GT(serial.acbm_stats.blocks, 0u);
  EXPECT_EQ(outcome.acbm_stats, serial.acbm_stats);
}

TEST(ParallelEncode, AcbmDecisionLogIdenticalAcrossThreadCounts) {
  const auto frames = test_sequence("foreman", 4);
  EncoderConfig config;
  config.qp = 18;
  const EncodeOutcome serial =
      encode_with(frames, "ACBM", config, /*record_log=*/true);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 3;
  const EncodeOutcome outcome =
      encode_with(frames, "ACBM", parallel, /*record_log=*/true);

  ASSERT_GT(serial.acbm_log.size(), 0u);
  EXPECT_EQ(outcome.acbm_log, serial.acbm_log);
}

TEST(ParallelEncode, MidStreamRecordLogHonouredAtEveryThreadCount) {
  // Switching the decision log on between frames takes effect at the next
  // frame whatever the thread count — examples/inspect_decisions relies on
  // this to log only the last frame.
  const auto frames = test_sequence("foreman", 4, {352, 288});
  const std::size_t mbs = static_cast<std::size_t>(
      (frames[0].width() / 16) * (frames[0].height() / 16));
  ASSERT_EQ(mbs, 396u);
  for (int threads : {1, 4}) {
    EncoderConfig config;
    config.qp = 18;
    config.parallel.threads = threads;
    core::Acbm acbm;
    Encoder encoder({frames[0].width(), frames[0].height()}, config, acbm);
    for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
      encoder.encode_frame(frames[i]);
    }
    EXPECT_TRUE(acbm.decision_log().empty());
    acbm.set_record_log(true);
    encoder.encode_frame(frames.back());

    const std::vector<core::BlockDecision> log = acbm.decision_log();
    ASSERT_EQ(log.size(), mbs) << threads << " threads";
    for (const core::BlockDecision& d : log) {
      EXPECT_EQ(d.frame, static_cast<int>(frames.size()) - 1);
    }
  }
}

TEST(ParallelEncode, RateDistortionModeIdentical) {
  const auto frames = test_sequence("carphone", 6);
  EncoderConfig config;
  config.qp = 20;
  config.mode_decision = ModeDecision::kRateDistortion;
  const EncodeOutcome serial = encode_with(frames, "PBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 3;
  EXPECT_EQ(encode_with(frames, "PBM", parallel).stream, serial.stream);
}

TEST(ParallelEncode, AutoThreadCountIdentical) {
  const auto frames = test_sequence("foreman", 4);
  EncoderConfig config;
  config.qp = 16;
  const EncodeOutcome serial = encode_with(frames, "ACBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 0;  // one worker per hardware thread
  EXPECT_EQ(encode_with(frames, "ACBM", parallel).stream, serial.stream);
}

#ifndef NDEBUG
// Points every block `dy` full rows down, whatever its search window.
class ShiftDownEstimator final : public me::MotionEstimator {
 public:
  explicit ShiftDownEstimator(int dy) : dy_(dy) {}
  me::EstimateResult estimate(const me::BlockContext&) const override {
    me::EstimateResult result;
    result.mv = me::mv_from_fullpel(0, dy_);
    return result;
  }
  [[nodiscard]] std::string_view name() const override { return "down"; }

 private:
  int dy_;
};

void encode_serially(const std::vector<video::Frame>& frames,
                     const EncoderConfig& config,
                     me::MotionEstimator& estimator) {
  Encoder encoder({frames[0].width(), frames[0].height()}, config, estimator);
  for (const video::Frame& frame : frames) {
    (void)encoder.encode_frame(frame);
  }
}

// A front row plans each block right after estimating it, so its motion
// compensation may read only the reference rows the row's gate waited for
// (rows_needed). At search range 4, row 0 gates on reference rows [0, 32):
// a 16-row vector reads rows 16..31 and passes, a 20-row vector reads rows
// 20..35 and must trip the row task's footprint assert. Both stay inside
// the plane's border, so predict_block's own assert cannot fire first.
TEST(FrontRowDeathTest, McFootprintPastTheGatedRowsAsserts) {
  const auto frames = test_sequence("foreman", 2, {176, 144});
  EncoderConfig config;
  config.qp = 16;
  config.search_range = 4;
  ShiftDownEstimator inside(16);
  encode_serially(frames, config, inside);
  ShiftDownEstimator outside(20);
  EXPECT_DEATH(encode_serially(frames, config, outside),
               "gated reference rows");
}
#endif

TEST(ParallelEncode, ParallelStreamDecodes) {
  const auto frames = test_sequence("foreman", 6);
  EncoderConfig config;
  config.qp = 16;
  config.parallel.threads = 4;
  const EncodeOutcome outcome = encode_with(frames, "ACBM", config);

  Decoder decoder(outcome.stream, DecoderConfig{});
  const std::vector<video::Frame> decoded = decoder.decode_all();
  EXPECT_EQ(decoded.size(), frames.size());
}

}  // namespace
}  // namespace acbm::codec
