// Codec-level property tests — the invariant layer of the verification
// pyramid (docs/TESTING.md). Where the golden tests pin exact bytes, these
// pin *relations* that must survive any intentional bitstream or speed
// change: decode(encode(x)) quality floors per QP, slice-count independence
// of reconstruction, SAD monotonicity in the search window, and the
// packet-tiling contract of the multi-session service.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/service.hpp"
#include "core/builtin_estimators.hpp"
#include "me/estimator.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"
#include "video/psnr.hpp"

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

std::vector<std::uint8_t> encode_stream(const std::vector<video::Frame>& in,
                                        const EncoderConfig& config,
                                        const std::string& estimator = "ACBM") {
  const auto est = core::builtin_estimators().create(estimator);
  Encoder encoder({in[0].width(), in[0].height()}, config, *est);
  for (const video::Frame& frame : in) {
    encoder.encode_frame(frame);
  }
  return encoder.finish();
}

double min_decoded_luma_psnr(const std::vector<video::Frame>& source,
                             int qp) {
  EncoderConfig config;
  config.qp = qp;
  Decoder decoder(encode_stream(source, config), DecoderConfig{});
  const auto decoded = decoder.decode_all();
  EXPECT_EQ(decoded.size(), source.size());
  double worst = 1e9;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    worst = std::min(worst, video::psnr_luma(decoded[i], source[i]));
  }
  return worst;
}

// decode(encode(x)) must clear a QP-dependent quality floor. The bounds are
// deliberately loose (several dB under observed values on the synthetic
// sequences) — they exist to catch reconstruction-path breakage, not to
// track rate-distortion performance.
TEST(CodecProperty, DecodedPsnrClearsPerQpFloor) {
  const auto frames = test_sequence("carphone", 4);
  struct Floor {
    int qp;
    double min_db;
  };
  for (const Floor f : {Floor{2, 40.0}, Floor{8, 33.0}, Floor{14, 29.0},
                        Floor{22, 26.0}, Floor{31, 23.0}}) {
    const double worst = min_decoded_luma_psnr(frames, f.qp);
    EXPECT_GE(worst, f.min_db) << "qp " << f.qp;
  }
}

// Quality must not improve as the quantiser coarsens (allowing a small
// tolerance for per-frame noise: compare the *worst* frame at widely
// separated QPs).
TEST(CodecProperty, DecodedPsnrMonotoneAcrossQpExtremes) {
  const auto frames = test_sequence("foreman", 4);
  const double fine = min_decoded_luma_psnr(frames, 4);
  const double mid = min_decoded_luma_psnr(frames, 16);
  const double coarse = min_decoded_luma_psnr(frames, 31);
  EXPECT_GT(fine, mid);
  EXPECT_GT(mid, coarse);
}

// Slices are a pure parallelism/resilience knob: they re-predict motion
// vectors across the seam (different bytes) but reconstruction must be
// identical at every slice count, end to end through the decoder.
TEST(CodecProperty, ReconstructionIndependentOfSliceCount) {
  const auto frames = test_sequence("foreman", 5);
  EncoderConfig config;
  config.qp = 16;
  std::vector<std::vector<video::Frame>> decoded;
  for (int slices : {1, 2, 4}) {
    EncoderConfig c = config;
    c.slices = slices;
    Decoder decoder(encode_stream(frames, c), DecoderConfig{});
    decoded.push_back(decoder.decode_all());
    ASSERT_EQ(decoded.back().size(), frames.size()) << slices << " slices";
  }
  for (std::size_t variant = 1; variant < decoded.size(); ++variant) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_TRUE(
          decoded[0][i].y().visible_equals(decoded[variant][i].y()))
          << "frame " << i;
      EXPECT_TRUE(
          decoded[0][i].cb().visible_equals(decoded[variant][i].cb()));
      EXPECT_TRUE(
          decoded[0][i].cr().visible_equals(decoded[variant][i].cr()));
    }
  }
}

// Enlarging the search window can only help an exhaustive search: FSBM's
// best SAD is non-increasing in the range p, and the evaluated position
// count is strictly increasing. Half-pel refinement is excluded — it is a
// local polish around whichever integer minimum the window admits, so its
// result is not ordered across windows (a wider window may hop to an
// integer minimum whose half-pel neighbourhood is shallower).
TEST(CodecProperty, FullSearchSadMonotoneInWindowSize) {
  for (std::uint64_t seed : {11ull, 47ull, 92ull}) {
    const auto [ref, cur] = test::shifted_pair(64, 64, 5, -3, seed);
    const test::SearchFixture fixture(ref, cur);
    const auto estimator = core::builtin_estimators().create("FSBM");
    std::uint32_t prev_sad = 0;
    std::uint32_t prev_positions = 0;
    bool first = true;
    for (int range : {1, 3, 7, 15}) {
      me::BlockContext ctx = fixture.context(16, 16, range);
      ctx.half_pel = false;
      const me::EstimateResult result = estimator->estimate(ctx);
      if (!first) {
        EXPECT_LE(result.sad, prev_sad) << "range " << range;
        EXPECT_GT(result.positions, prev_positions) << "range " << range;
      }
      first = false;
      prev_sad = result.sad;
      prev_positions = result.positions;
    }
  }
}

// The service's packet contract: one packet per submitted frame, resolving
// with ascending frame indices, every packet non-empty, and the
// concatenation of packet bytes byte-identical to a standalone encode of
// the same sequence (packets tile the stream exactly — no gaps, no
// overlaps, no trailing finisher bytes).
TEST(CodecProperty, SessionPacketsTileTheStream) {
  const auto frames = test_sequence("carphone", 6);
  EncoderConfig config;
  config.qp = 18;
  config.slices = 2;

  EncoderService service(2);
  EncodeSession session(service, {64, 48}, config,
                        core::builtin_estimators().create("ACBM"));
  std::vector<std::future<Packet>> pending;
  for (const video::Frame& frame : frames) {
    pending.push_back(session.submit(frame));
  }
  std::vector<std::uint8_t> concatenated;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Packet packet = pending[i].get();
    EXPECT_EQ(packet.frame_index, i);
    EXPECT_FALSE(packet.bytes.empty()) << "frame " << i;
    concatenated.insert(concatenated.end(), packet.bytes.begin(),
                        packet.bytes.end());
  }

  const std::vector<std::uint8_t> standalone = encode_stream(frames, config);
  EXPECT_EQ(concatenated, standalone);

  Decoder decoder(concatenated, DecoderConfig{});
  EXPECT_EQ(decoder.decode_all().size(), frames.size());
}

}  // namespace
}  // namespace acbm::codec
