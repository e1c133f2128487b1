// Plan-stage parity: hoisting macroblock planning (DCT/quant/RD candidate
// costing) out of the entropy loop into the row-parallel front stage must
// not move a single bit. Serial and multi-threaded encodes are held
// byte-identical across the full {slices} × {mode decision} × {kernel}
// grid, and the precomputed-plan write path must leave reconstruction (and
// therefore the decoder) untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
namespace {

std::vector<video::Frame> test_sequence(const std::string& name, int frames) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = frames;
  req.fps = 30;
  return synth::make_sequence(req);
}

struct EncodeOutcome {
  std::vector<std::uint8_t> stream;
  std::vector<FrameReport> reports;
};

EncodeOutcome encode_with(const std::vector<video::Frame>& frames,
                          const EncoderConfig& config) {
  const auto estimator = core::builtin_estimators().create("ACBM");
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  EncodeOutcome outcome;
  for (const video::Frame& frame : frames) {
    outcome.reports.push_back(encoder.encode_frame(frame));
  }
  outcome.stream = encoder.finish();
  return outcome;
}

/// Restores the default (auto) kernel selection on scope exit.
struct KernelSelectionGuard {
  ~KernelSelectionGuard() { simd::select_kernels(simd::KernelIsa::kAuto); }
};

TEST(PlanStage, ByteIdenticalAcrossFullGrid) {
  // The acceptance grid: serial vs 4-thread encodes must agree bit for bit
  // for every {slices} × {rd} × {kernel} combination. The 4-thread encode
  // plans in front row tasks on pool workers, the serial one on the caller
  // — any divergence (scheduling, predictor chains, RD cost arithmetic)
  // shows up as a byte mismatch here.
  KernelSelectionGuard guard;
  const auto frames = test_sequence("foreman", 6);
  for (const char* kernel : {"scalar", "auto"}) {
    ASSERT_TRUE(simd::select_kernels_by_name(kernel));
    for (const bool rd : {false, true}) {
      for (const int slices : {1, 4}) {
        EncoderConfig config;
        config.qp = 16;
        config.slices = slices;
        config.mode_decision = rd ? ModeDecision::kRateDistortion
                                  : ModeDecision::kHeuristic;
        const EncodeOutcome serial = encode_with(frames, config);
        ASSERT_GT(serial.stream.size(), 0u);

        EncoderConfig parallel = config;
        parallel.parallel.threads = 4;
        const EncodeOutcome outcome = encode_with(frames, parallel);
        EXPECT_EQ(outcome.stream, serial.stream)
            << "kernel=" << kernel << " rd=" << rd << " slices=" << slices;
        ASSERT_EQ(outcome.reports.size(), serial.reports.size());
        for (std::size_t i = 0; i < serial.reports.size(); ++i) {
          EXPECT_EQ(outcome.reports[i].bits, serial.reports[i].bits) << i;
          EXPECT_EQ(outcome.reports[i].intra_mbs, serial.reports[i].intra_mbs)
              << i;
          EXPECT_EQ(outcome.reports[i].inter_mbs, serial.reports[i].inter_mbs)
              << i;
          EXPECT_EQ(outcome.reports[i].skip_mbs, serial.reports[i].skip_mbs)
              << i;
          EXPECT_DOUBLE_EQ(outcome.reports[i].psnr_y,
                           serial.reports[i].psnr_y)
              << i;
        }
      }
    }
  }
}

TEST(PlanStage, RdBitBreakdownSurvivesHoisting) {
  // The RD write path recomputes J_inter from the precomputed body bits +
  // one mvd_bits() call; the per-category bit tallies must match a serial
  // run exactly (they are derived from the same writer positions).
  const auto frames = test_sequence("carphone", 6);
  EncoderConfig config;
  config.qp = 20;
  config.mode_decision = ModeDecision::kRateDistortion;
  const EncodeOutcome serial = encode_with(frames, config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 3;
  const EncodeOutcome outcome = encode_with(frames, parallel);
  ASSERT_EQ(outcome.reports.size(), serial.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(outcome.reports[i].mv_bits, serial.reports[i].mv_bits) << i;
    EXPECT_EQ(outcome.reports[i].coeff_bits, serial.reports[i].coeff_bits)
        << i;
    EXPECT_EQ(outcome.reports[i].header_bits, serial.reports[i].header_bits)
        << i;
  }
}

TEST(PlanStage, IntraPeriodAndDeblockIdentical) {
  // Periodic intra refresh exercises the intra-frame plan path mid-stream;
  // deblocking runs after reconstruction and must see identical samples.
  const auto frames = test_sequence("table", 8);
  EncoderConfig config;
  config.qp = 18;
  config.intra_period = 3;
  config.deblock = true;
  config.slices = 2;
  const EncodeOutcome serial = encode_with(frames, config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  EXPECT_EQ(encode_with(frames, parallel).stream, serial.stream);
}

TEST(PlanStage, SkipHeavyContentIdentical) {
  // Coarse quantiser on static content: most plans are skippable InterPlans
  // — the cheapest write path, and the one where a stale plan would
  // corrupt the COD chain most visibly.
  const auto frames = test_sequence("miss_america", 8);
  EncoderConfig config;
  config.qp = 30;
  const EncodeOutcome serial = encode_with(frames, config);
  int skips = 0;
  for (const FrameReport& report : serial.reports) {
    skips += report.skip_mbs;
  }
  EXPECT_GT(skips, 0) << "scenario should actually exercise the skip path";
  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  EXPECT_EQ(encode_with(frames, parallel).stream, serial.stream);
}

TEST(PlanStage, PlannedStreamDecodesToEncoderReconstruction) {
  // End-to-end: a multi-thread, multi-slice, RD-mode stream written from
  // precomputed plans must still decode sample-identically to the
  // encoder's own reconstruction.
  const auto frames = test_sequence("foreman", 5);
  EncoderConfig config;
  config.qp = 16;
  config.slices = 2;
  config.mode_decision = ModeDecision::kRateDistortion;
  config.parallel.threads = 4;

  const auto estimator = core::builtin_estimators().create("ACBM");
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  std::vector<video::Frame> recons;
  for (const video::Frame& frame : frames) {
    (void)encoder.encode_frame(frame);
    recons.push_back(encoder.last_recon());
  }
  const auto stream = encoder.finish();

  Decoder decoder(stream, DecoderConfig{});
  const std::vector<video::Frame> decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(decoded[i].y().visible_equals(recons[i].y())) << i;
    EXPECT_TRUE(decoded[i].cb().visible_equals(recons[i].cb())) << i;
    EXPECT_TRUE(decoded[i].cr().visible_equals(recons[i].cr())) << i;
  }
}

}  // namespace
}  // namespace acbm::codec
