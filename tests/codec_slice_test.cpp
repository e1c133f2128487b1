// Slice-parallel entropy coding (ACV2): determinism across thread counts
// and kernel-independent scheduling, byte-exact single-slice compatibility
// with the legacy ACV1 framing, decoder round-trip parity (serial and
// slice-parallel), and the reconstruction invariant — slicing re-predicts
// motion vectors but never changes a single reconstructed sample, so PSNR
// is identical at every slice count.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
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

struct EncodeResult {
  std::vector<std::uint8_t> stream;
  std::vector<FrameReport> reports;
  std::vector<video::Frame> recon;  ///< per-frame encoder reconstruction
};

EncodeResult encode_with(const std::vector<video::Frame>& frames,
                         const std::string& algorithm,
                         const EncoderConfig& config) {
  const auto estimator = core::builtin_estimators().create(algorithm);
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  EncodeResult result;
  for (const video::Frame& frame : frames) {
    result.reports.push_back(encoder.encode_frame(frame));
    result.recon.push_back(encoder.last_recon());
  }
  result.stream = encoder.finish();
  return result;
}

void expect_frames_identical(const video::Frame& a, const video::Frame& b) {
  EXPECT_TRUE(a.y().visible_equals(b.y()));
  EXPECT_TRUE(a.cb().visible_equals(b.cb()));
  EXPECT_TRUE(a.cr().visible_equals(b.cr()));
}

std::uint32_t stream_magic(const std::vector<std::uint8_t>& stream) {
  return (std::uint32_t{stream[0]} << 24) | (std::uint32_t{stream[1]} << 16) |
         (std::uint32_t{stream[2]} << 8) | std::uint32_t{stream[3]};
}

TEST(SliceEncode, SingleSliceKeepsLegacyMagicAndBytes) {
  const auto frames = test_sequence("foreman", 6);
  EncoderConfig config;
  config.qp = 16;
  const EncodeResult baseline = encode_with(frames, "ACBM", config);
  EXPECT_EQ(stream_magic(baseline.stream), kSequenceMagic);

  // slices = 1 must be a no-op on the wire, threaded or not.
  EncoderConfig explicit_single = config;
  explicit_single.slices = 1;
  explicit_single.parallel.threads = 4;
  EXPECT_EQ(encode_with(frames, "ACBM", explicit_single).stream,
            baseline.stream);
}

TEST(SliceEncode, MultiSliceEmitsV2Magic) {
  const auto frames = test_sequence("foreman", 2);
  EncoderConfig config;
  config.qp = 16;
  config.slices = 2;
  const EncodeResult sliced = encode_with(frames, "ACBM", config);
  EXPECT_EQ(stream_magic(sliced.stream), kSequenceMagicV2);
}

TEST(SliceEncode, BitstreamIdenticalAcrossThreadCounts) {
  const auto frames = test_sequence("foreman", 8);
  EncoderConfig config;
  config.qp = 16;
  config.slices = 3;
  const EncodeResult serial = encode_with(frames, "ACBM", config);
  ASSERT_GT(serial.stream.size(), 0u);

  for (int threads : {2, 4, 0}) {
    EncoderConfig parallel = config;
    parallel.parallel.threads = threads;
    const EncodeResult outcome = encode_with(frames, "ACBM", parallel);
    EXPECT_EQ(outcome.stream, serial.stream) << threads << " threads";
    ASSERT_EQ(outcome.reports.size(), serial.reports.size());
    for (std::size_t i = 0; i < serial.reports.size(); ++i) {
      EXPECT_EQ(outcome.reports[i].bits, serial.reports[i].bits) << i;
      EXPECT_EQ(outcome.reports[i].intra_mbs, serial.reports[i].intra_mbs);
      EXPECT_EQ(outcome.reports[i].inter_mbs, serial.reports[i].inter_mbs);
      EXPECT_EQ(outcome.reports[i].skip_mbs, serial.reports[i].skip_mbs);
    }
  }
}

TEST(SliceEncode, PbmPredictorsSurviveSliceBoundaries) {
  // PBM leans hardest on spatial prediction; the slice seam must not leak
  // scheduling into the bytes.
  const auto frames = test_sequence("carphone", 8);
  EncoderConfig config;
  config.qp = 20;
  config.slices = 3;
  const EncodeResult serial = encode_with(frames, "PBM", config);
  EncoderConfig parallel = config;
  parallel.parallel.threads = 4;
  EXPECT_EQ(encode_with(frames, "PBM", parallel).stream, serial.stream);
}

TEST(SliceEncode, ReconstructionIdenticalAtEverySliceCount) {
  // Slicing re-predicts vectors (different bits) but reconstruction reads
  // only the previous reference — so PSNR must match exactly, which is the
  // acceptance bar for "slices are a pure parallelism knob".
  const auto frames = test_sequence("foreman", 8);
  EncoderConfig config;
  config.qp = 16;
  const EncodeResult single = encode_with(frames, "ACBM", config);

  for (int slices : {2, 3}) {
    EncoderConfig sliced = config;
    sliced.slices = slices;
    const EncodeResult outcome = encode_with(frames, "ACBM", sliced);
    EXPECT_NE(outcome.stream, single.stream);  // headers + MVD resets
    ASSERT_EQ(outcome.reports.size(), single.reports.size());
    for (std::size_t i = 0; i < single.reports.size(); ++i) {
      EXPECT_DOUBLE_EQ(outcome.reports[i].psnr_y, single.reports[i].psnr_y)
          << "frame " << i << ", " << slices << " slices";
      expect_frames_identical(outcome.recon[i], single.recon[i]);
    }
  }
}

TEST(SliceRoundTrip, DecoderMatchesEncoderReconstruction) {
  const auto frames = test_sequence("foreman", 6);
  EncoderConfig config;
  config.qp = 16;
  config.slices = 3;
  config.parallel.threads = 4;
  const EncodeResult outcome = encode_with(frames, "ACBM", config);

  Decoder decoder(outcome.stream, DecoderConfig{});
  EXPECT_EQ(decoder.version(), 2);
  std::size_t i = 0;
  while (auto frame = decoder.decode_frame()) {
    ASSERT_LT(i, outcome.recon.size());
    expect_frames_identical(*frame, outcome.recon[i]);
    ++i;
  }
  EXPECT_EQ(i, frames.size());
  EXPECT_EQ(decoder.last_frame_slices(), 3);
  EXPECT_EQ(decoder.report().concealed_slices, 0u);
}

TEST(SliceRoundTrip, ParallelDecodeIdenticalToSerial) {
  const auto frames = test_sequence("carphone", 6);
  EncoderConfig config;
  config.qp = 18;
  config.slices = 3;
  const EncodeResult outcome = encode_with(frames, "ACBM", config);

  Decoder serial(outcome.stream, DecoderConfig{.threads = 1});
  Decoder parallel(outcome.stream, DecoderConfig{.threads = 4});
  const auto serial_frames = serial.decode_all();
  const auto parallel_frames = parallel.decode_all();
  ASSERT_EQ(serial_frames.size(), parallel_frames.size());
  for (std::size_t i = 0; i < serial_frames.size(); ++i) {
    expect_frames_identical(serial_frames[i], parallel_frames[i]);
  }
}

TEST(SliceRoundTrip, RateDistortionModeRoundTrips) {
  // RD mode prices bits against the slice-local predictor chain on both
  // sides; parity proves encoder and decoder agree on the seam.
  const auto frames = test_sequence("carphone", 5);
  EncoderConfig config;
  config.qp = 20;
  config.slices = 2;
  config.mode_decision = ModeDecision::kRateDistortion;
  const EncodeResult outcome = encode_with(frames, "PBM", config);

  Decoder decoder(outcome.stream, DecoderConfig{});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_frames_identical(decoded[i], outcome.recon[i]);
  }

  // encode_inter_mb_rd must also be deterministic when its slices run on
  // pool threads — it drives the same slice machinery (recon_,
  // coded_field_, per-slice writer) as the heuristic path.
  for (int threads : {3, 4}) {
    EncoderConfig parallel = config;
    parallel.parallel.threads = threads;
    EXPECT_EQ(encode_with(frames, "PBM", parallel).stream, outcome.stream)
        << threads << " threads";
  }
}

TEST(SliceRoundTrip, IntraPeriodStreamsRoundTrip) {
  const auto frames = test_sequence("miss_america", 6);
  EncoderConfig config;
  config.qp = 24;
  config.slices = 3;
  config.intra_period = 2;
  const EncodeResult outcome = encode_with(frames, "ACBM", config);

  Decoder decoder(outcome.stream, DecoderConfig{.threads = 2});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_frames_identical(decoded[i], outcome.recon[i]);
  }
}

TEST(SliceEncode, SliceCountClampsToMacroblockRows) {
  // 64×48 has 3 macroblock rows; a 16-slice request degrades to 3 (still
  // ACV2) and must round-trip.
  const auto frames = test_sequence("foreman", 3);
  EncoderConfig config;
  config.qp = 16;
  config.slices = 16;
  const EncodeResult outcome = encode_with(frames, "ACBM", config);

  EncoderConfig three = config;
  three.slices = 3;
  EXPECT_EQ(encode_with(frames, "ACBM", three).stream, outcome.stream);

  Decoder decoder(outcome.stream, DecoderConfig{});
  EXPECT_EQ(decoder.decode_all().size(), frames.size());
  EXPECT_EQ(decoder.last_frame_slices(), 3);
}

TEST(SliceEncode, DeblockingComposesWithSlices) {
  // The in-loop filter runs whole-frame after the slices join, on both
  // sides of the channel; parity across the slice seams proves it.
  const auto frames = test_sequence("foreman", 5);
  EncoderConfig config;
  config.qp = 22;
  config.slices = 3;
  config.deblock = true;
  config.parallel.threads = 2;
  const EncodeResult outcome = encode_with(frames, "ACBM", config);

  Decoder decoder(outcome.stream, DecoderConfig{.threads = 3});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_frames_identical(decoded[i], outcome.recon[i]);
  }
}

}  // namespace
}  // namespace acbm::codec
