// Encoder ↔ decoder parity: the decoder's output must be sample-identical to
// the encoder's reconstruction loop for every frame, every estimator, and
// every macroblock mode — the strongest correctness check on the codec.

#include <gtest/gtest.h>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "me/full_search.hpp"
#include "me/pbm.hpp"
#include "synth/sequences.hpp"
#include "video/psnr.hpp"
#include "test_support.hpp"

namespace acbm::codec {
namespace {

std::vector<video::Frame> test_sequence(const std::string& name, int frames,
                                        int fps = 30) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = frames;
  req.fps = fps;
  return synth::make_sequence(req);
}

void expect_frames_identical(const video::Frame& a, const video::Frame& b) {
  EXPECT_TRUE(a.y().visible_equals(b.y()));
  EXPECT_TRUE(a.cb().visible_equals(b.cb()));
  EXPECT_TRUE(a.cr().visible_equals(b.cr()));
}

TEST(RoundTrip, HeaderSurvives) {
  me::Pbm pbm;
  EncoderConfig cfg;
  cfg.qp = 16;
  cfg.fps_num = 10;
  cfg.fps_den = 1;
  Encoder enc({64, 48}, cfg, pbm);
  const auto bytes = enc.finish();
  const Decoder dec(bytes, DecoderConfig{});
  EXPECT_EQ(dec.size().width, 64);
  EXPECT_EQ(dec.size().height, 48);
  EXPECT_EQ(dec.rate().num, 10);
  EXPECT_EQ(dec.rate().den, 1);
}

TEST(RoundTrip, EmptyStreamDecodesToNoFrames) {
  me::Pbm pbm;
  Encoder enc({64, 48}, EncoderConfig{}, pbm);
  Decoder dec(enc.finish(), DecoderConfig{});
  EXPECT_FALSE(dec.decode_frame().has_value());
}

TEST(RoundTrip, GarbageInputThrows) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8,
                                             9, 10, 11, 12};
  EXPECT_THROW(Decoder dec(garbage, DecoderConfig{}), DecodeError);
}

TEST(RoundTrip, TruncatedStreamThrowsNotCrashes) {
  const auto frames = test_sequence("carphone", 2);
  me::Pbm pbm;
  EncoderConfig cfg;
  cfg.qp = 12;
  cfg.search_range = 7;
  Encoder enc({64, 48}, cfg, pbm);
  for (const auto& f : frames) {
    (void)enc.encode_frame(f);
  }
  auto bytes = enc.finish();
  bytes.resize(bytes.size() * 2 / 3);
  Decoder dec(bytes, DecoderConfig{});
  EXPECT_THROW(
      {
        while (dec.decode_frame()) {
        }
      },
      DecodeError);
}

class RoundTripEstimatorTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(RoundTripEstimatorTest, DecoderMatchesEncoderReconstruction) {
  const auto [algo, qp] = GetParam();
  const auto frames = test_sequence("table", 4);

  std::unique_ptr<me::MotionEstimator> estimator;
  if (std::string_view(algo) == "FSBM") {
    estimator = std::make_unique<me::FullSearch>();
  } else if (std::string_view(algo) == "PBM") {
    estimator = std::make_unique<me::Pbm>();
  } else {
    estimator = std::make_unique<core::Acbm>();
  }

  EncoderConfig cfg;
  cfg.qp = qp;
  cfg.search_range = 7;
  Encoder enc({64, 48}, cfg, *estimator);
  std::vector<video::Frame> recons;
  for (const auto& f : frames) {
    (void)enc.encode_frame(f);
    recons.push_back(enc.last_recon());
  }
  const auto bytes = enc.finish();

  Decoder dec(bytes, DecoderConfig{});
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto decoded = dec.decode_frame();
    ASSERT_TRUE(decoded.has_value()) << "frame " << i;
    expect_frames_identical(*decoded, recons[i]);
  }
  EXPECT_FALSE(dec.decode_frame().has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndQps, RoundTripEstimatorTest,
    ::testing::Values(std::tuple{"FSBM", 8}, std::tuple{"FSBM", 24},
                      std::tuple{"PBM", 8}, std::tuple{"PBM", 24},
                      std::tuple{"ACBM", 8}, std::tuple{"ACBM", 16},
                      std::tuple{"ACBM", 30}),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_qp" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RoundTrip, IntraPeriodStreams) {
  const auto frames = test_sequence("foreman", 5);
  me::Pbm pbm;
  EncoderConfig cfg;
  cfg.qp = 14;
  cfg.search_range = 7;
  cfg.intra_period = 2;
  Encoder enc({64, 48}, cfg, pbm);
  std::vector<video::Frame> recons;
  for (const auto& f : frames) {
    (void)enc.encode_frame(f);
    recons.push_back(enc.last_recon());
  }
  Decoder dec(enc.finish(), DecoderConfig{});
  const auto decoded = dec.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_frames_identical(decoded[i], recons[i]);
  }
}

TEST(RoundTrip, NoHalfPelStreams) {
  const auto frames = test_sequence("miss_america", 3);
  me::FullSearch fsbm;
  EncoderConfig cfg;
  cfg.qp = 10;
  cfg.search_range = 7;
  cfg.half_pel = false;
  Encoder enc({64, 48}, cfg, fsbm);
  std::vector<video::Frame> recons;
  for (const auto& f : frames) {
    (void)enc.encode_frame(f);
    recons.push_back(enc.last_recon());
  }
  Decoder dec(enc.finish(), DecoderConfig{});
  const auto decoded = dec.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_frames_identical(decoded[i], recons[i]);
  }
}

TEST(RoundTrip, DecodedQualityTracksQp) {
  const auto frames = test_sequence("carphone", 3);
  auto encode_decode_psnr = [&](int qp) {
    me::Pbm pbm;
    EncoderConfig cfg;
    cfg.qp = qp;
    cfg.search_range = 7;
    Encoder enc({64, 48}, cfg, pbm);
    for (const auto& f : frames) {
      (void)enc.encode_frame(f);
    }
    Decoder dec(enc.finish(), DecoderConfig{});
    const auto decoded = dec.decode_all();
    double psnr = 0.0;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      psnr += video::psnr_luma(frames[i], decoded[i]);
    }
    return psnr / static_cast<double>(decoded.size());
  };
  EXPECT_GT(encode_decode_psnr(4), encode_decode_psnr(28) + 3.0);
}

}  // namespace
}  // namespace acbm::codec
