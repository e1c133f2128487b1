// sim::Channel — seeded determinism, the spec grammar, the loss models'
// statistics, and the contract the resilience pipeline is built on: loss=0
// is the identity, and a dropped slice is always concealed (never silently
// mis-decoded).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "sim/channel.hpp"
#include "synth/sequences.hpp"
#include "util/kv.hpp"
#include "video/psnr.hpp"

namespace acbm::sim {
namespace {

std::vector<video::Frame> test_sequence(const std::string& name, int frames,
                                        video::PictureSize size) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = size;
  req.frame_count = frames;
  req.fps = 30;
  return synth::make_sequence(req);
}

std::vector<std::uint8_t> encode_stream(const std::vector<video::Frame>& in,
                                        const codec::EncoderConfig& config) {
  const auto est = core::builtin_estimators().create("ACBM");
  codec::Encoder encoder({in[0].width(), in[0].height()}, config, *est);
  for (const video::Frame& frame : in) {
    encoder.encode_frame(frame);
  }
  return encoder.finish();
}

std::vector<std::uint8_t> sliced_stream(int slices, int intra_period = 0,
                                        int frames = 8) {
  const auto seq = test_sequence("foreman", frames, {64, 48});
  codec::EncoderConfig config;
  config.qp = 16;
  config.slices = slices;
  config.intra_period = intra_period;
  return encode_stream(seq, config);
}

// --- Spec grammar ----------------------------------------------------------

TEST(ChannelSpec, ParsesAndCanonicalises) {
  const ChannelConfig c =
      channel_config_from_spec("gilbert: loss=0.05, burst=8, seed=7");
  EXPECT_EQ(c.model, ChannelModel::kGilbert);
  EXPECT_DOUBLE_EQ(c.loss, 0.05);
  EXPECT_EQ(c.burst, 8);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.hit, ChannelHit::kDrop);
  EXPECT_EQ(to_spec(c), "gilbert:loss=0.05,burst=8,seed=7,hit=drop,flips=3");

  const ChannelConfig iid =
      channel_config_from_spec("iid:loss=0.1,seed=3,hit=flip,flips=5");
  EXPECT_EQ(to_spec(iid), "iid:loss=0.1,seed=3,hit=flip,flips=5");

  const ChannelConfig trunc = channel_config_from_spec("trunc:at=0.25");
  EXPECT_EQ(trunc.model, ChannelModel::kTrunc);
  EXPECT_EQ(to_spec(trunc), "trunc:at=0.25");
}

TEST(ChannelSpec, RoundTripsThroughCanonicalForm) {
  for (const char* spec :
       {"iid:loss=0.05,seed=1", "gilbert:loss=0.2,burst=4,seed=99,hit=header",
        "iid:loss=0,seed=42,hit=flip,flips=1", "trunc:at=0.5",
        "gilbert:loss=0.5,burst=1,seed=0"}) {
    const ChannelConfig once = channel_config_from_spec(spec);
    const ChannelConfig twice = channel_config_from_spec(to_spec(once));
    EXPECT_EQ(to_spec(once), to_spec(twice)) << spec;
    EXPECT_EQ(once.model, twice.model) << spec;
    EXPECT_DOUBLE_EQ(once.loss, twice.loss) << spec;
    EXPECT_EQ(once.burst, twice.burst) << spec;
    EXPECT_EQ(once.seed, twice.seed) << spec;
    EXPECT_EQ(once.hit, twice.hit) << spec;
    EXPECT_EQ(once.flips, twice.flips) << spec;
    EXPECT_DOUBLE_EQ(once.at, twice.at) << spec;
  }
}

TEST(ChannelSpec, RejectsBadSpecs) {
  for (const char* bad :
       {"", "rayleigh:loss=0.1", "iid:chance=0.1", "iid:loss=1.5",
        "iid:loss=-0.1", "gilbert:loss=0.1,burst=0", "iid:loss=0.1,hit=melt",
        "iid:loss=0.1,flips=0", "trunc:at=1.5", "trunc:loss=0.1",
        "gilbert:loss", "iid:loss=abc"}) {
    EXPECT_THROW((void)channel_config_from_spec(bad), util::SpecError) << bad;
  }
}

TEST(ChannelSpec, SeedsRoundTripOverTheFullUint64Range) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  for (const std::uint64_t seed :
       {kHalf, kHalf + 5, std::numeric_limits<std::uint64_t>::max()}) {
    ChannelConfig config;
    config.model = ChannelModel::kGilbert;
    config.seed = seed;
    const std::string spec = to_spec(config);
    EXPECT_EQ(channel_config_from_spec(spec).seed, seed) << spec;
  }
  ChannelConfig config;
  config.model = ChannelModel::kGilbert;
  config.seed = kHalf + 5;
  EXPECT_EQ(to_spec(config),
            "gilbert:loss=0,burst=8,seed=9223372036854775813,hit=drop,"
            "flips=3");
  EXPECT_THROW((void)channel_config_from_spec("iid:seed=-1"),
               util::SpecError);
  EXPECT_THROW(
      (void)channel_config_from_spec("iid:seed=18446744073709551616"),
      util::SpecError);
}

TEST(ChannelSpec, UnknownKeyErrorEmbedsUsage) {
  try {
    (void)channel_config_from_spec("gilbert:bogus=1");
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("gilbert"), std::string::npos);
    EXPECT_NE(message.find("burst"), std::string::npos);
  }
}

// --- Seeded determinism ----------------------------------------------------

TEST(Channel, SameSpecSameRealization) {
  const Channel a{std::string_view("gilbert:loss=0.3,burst=8,seed=7")};
  const Channel b{std::string_view("gilbert:loss=0.3,burst=8,seed=7")};
  EXPECT_EQ(a.realize(4096), b.realize(4096));

  const std::vector<std::uint8_t> stream = sliced_stream(4);
  EXPECT_EQ(a.apply(stream), b.apply(stream));
  // Stateless across calls: a second apply on the same object is identical.
  EXPECT_EQ(a.apply(stream), a.apply(stream));
}

TEST(Channel, DifferentSeedDifferentRealization) {
  const Channel a{std::string_view("iid:loss=0.5,seed=1")};
  const Channel b{std::string_view("iid:loss=0.5,seed=2")};
  EXPECT_NE(a.realize(4096), b.realize(4096));
}

TEST(Channel, RealizeMatchesApplyLossDecisions) {
  // hit=drop rewrites each lost unit's directory length to 0, so the loss
  // sequence is recoverable from the report: dropped == count of true.
  const Channel channel{std::string_view("gilbert:loss=0.25,burst=4,seed=11")};
  const std::vector<std::uint8_t> stream = sliced_stream(4);
  ChannelReport report;
  (void)channel.apply(stream, &report);
  const std::vector<bool> loss =
      channel.realize(static_cast<std::size_t>(report.units));
  const auto lost = static_cast<std::uint64_t>(
      std::count(loss.begin(), loss.end(), true));
  EXPECT_EQ(report.dropped, lost);
}

// --- Loss-model statistics -------------------------------------------------

TEST(Channel, IidLossRateConverges) {
  const Channel channel{std::string_view("iid:loss=0.2,seed=5")};
  const std::vector<bool> loss = channel.realize(200000);
  const double rate = static_cast<double>(std::count(loss.begin(), loss.end(),
                                                     true)) /
                      static_cast<double>(loss.size());
  EXPECT_NEAR(rate, 0.2, 0.01);
}

TEST(Channel, GilbertMatchesStationaryLossAndMeanBurst) {
  const Channel channel{
      std::string_view("gilbert:loss=0.2,burst=8,seed=13")};
  const std::vector<bool> loss = channel.realize(400000);
  const double rate = static_cast<double>(std::count(loss.begin(), loss.end(),
                                                     true)) /
                      static_cast<double>(loss.size());
  EXPECT_NEAR(rate, 0.2, 0.02);

  // Mean run length of consecutive lost units should approach `burst`.
  std::size_t bursts = 0;
  std::size_t lost_units = 0;
  bool in_burst = false;
  for (const bool lost : loss) {
    if (lost) {
      ++lost_units;
      if (!in_burst) {
        ++bursts;
        in_burst = true;
      }
    } else {
      in_burst = false;
    }
  }
  ASSERT_GT(bursts, 0u);
  const double mean_burst =
      static_cast<double>(lost_units) / static_cast<double>(bursts);
  EXPECT_NEAR(mean_burst, 8.0, 1.5);

  // Burstiness is the model's point: at equal loss, gilbert produces far
  // fewer (longer) loss events than iid.
  const Channel iid{std::string_view("iid:loss=0.2,seed=13")};
  const std::vector<bool> iid_loss = iid.realize(400000);
  std::size_t iid_bursts = 0;
  in_burst = false;
  for (const bool lost : iid_loss) {
    if (lost && !in_burst) {
      ++iid_bursts;
    }
    in_burst = lost;
  }
  EXPECT_LT(bursts * 3, iid_bursts);
}

// --- Identity and structural contracts -------------------------------------

TEST(Channel, LossZeroIsByteIdentity) {
  const std::vector<std::uint8_t> stream = sliced_stream(4, /*intra=*/2);
  for (const char* spec :
       {"iid:loss=0,seed=7", "gilbert:loss=0,burst=8,seed=7", "trunc:at=1"}) {
    const Channel channel{std::string_view(spec)};
    ChannelReport report;
    EXPECT_EQ(channel.apply(stream, &report), stream) << spec;
    EXPECT_EQ(report.dropped, 0u) << spec;
    EXPECT_EQ(report.flipped, 0u) << spec;
    EXPECT_EQ(report.directory_hits, 0u) << spec;
    EXPECT_EQ(report.bytes_in, report.bytes_out) << spec;
  }

  // And the decoder confirms: zero concealments, same samples.
  const Channel identity{std::string_view("gilbert:loss=0,burst=8,seed=7")};
  codec::Decoder clean(stream, codec::DecoderConfig{});
  codec::Decoder channeled(identity.apply(stream), codec::DecoderConfig{});
  const codec::DecodeReport clean_report = clean.decode_stream();
  const codec::DecodeReport channeled_report = channeled.decode_stream();
  EXPECT_EQ(channeled_report.concealed_slices, 0u);
  EXPECT_EQ(channeled_report.sample_digest, clean_report.sample_digest);
}

TEST(Channel, TruncKeepsExactPrefix) {
  const std::vector<std::uint8_t> stream = sliced_stream(2);
  const Channel channel{std::string_view("trunc:at=0.5")};
  const std::vector<std::uint8_t> cut = channel.apply(stream);
  const std::size_t expect = stream.size() / 2;
  ASSERT_EQ(cut.size(), expect);
  EXPECT_TRUE(std::equal(cut.begin(), cut.end(), stream.begin()));

  const Channel zero{std::string_view("trunc:at=0")};
  EXPECT_TRUE(zero.apply(stream).empty());
}

TEST(Channel, DroppedSlicesAreAlwaysConcealed) {
  // hit=drop leaves a zero-length payload, which can never decode, so every
  // dropped slice must surface as a concealment — never as silently wrong
  // samples accepted by the payload decoder.
  const std::vector<std::uint8_t> stream = sliced_stream(4, /*intra=*/2);
  const Channel channel{std::string_view("iid:loss=0.3,seed=21,hit=drop")};
  ChannelReport report;
  const std::vector<std::uint8_t> damaged = channel.apply(stream, &report);
  ASSERT_GT(report.dropped, 0u);

  codec::Decoder decoder(damaged, codec::DecoderConfig{});
  const codec::DecodeReport decode_report = decoder.decode_stream();
  EXPECT_EQ(decode_report.error_class, codec::DecodeErrorClass::kNone);
  EXPECT_EQ(decode_report.concealed_slices, report.dropped);
}

TEST(Channel, V1StreamsDamageInFixedCells) {
  const auto seq = test_sequence("carphone", 4, {64, 48});
  codec::EncoderConfig config;
  config.qp = 14;
  const std::vector<std::uint8_t> stream = encode_stream(seq, config);
  ASSERT_EQ(stream[3], 0x31u);  // ACV1

  const Channel channel{std::string_view("iid:loss=0.5,seed=9,hit=drop")};
  ChannelReport report;
  const std::vector<std::uint8_t> damaged = channel.apply(stream, &report);
  // Drop zero-fills 64-byte cells, so V1 stream length is preserved.
  EXPECT_EQ(damaged.size(), stream.size());
  EXPECT_EQ(report.units, (stream.size() - 12 + 63) / 64);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_NE(damaged, stream);
}

TEST(Channel, MalformedInputPassesThrough) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
  const Channel channel{std::string_view("iid:loss=0.9,seed=1")};
  EXPECT_EQ(channel.apply(garbage), garbage);
  EXPECT_TRUE(channel.apply({}).empty());
}

// --- Concealment quality floor ---------------------------------------------

TEST(Channel, ConcealmentPsnrFloorAtFivePercentLoss) {
  // The resilience configuration the bench/CI gate pins: slices=4, intra
  // period 8, gilbert 5% loss. Concealment must hold a sane quality floor
  // against the clean reconstruction — a regression here means slices are
  // being lost without concealment or resync is eating whole frames.
  const auto seq = test_sequence("foreman", 12, {64, 48});
  codec::EncoderConfig config;
  config.qp = 16;
  config.slices = 4;
  config.intra_period = 8;
  const std::vector<std::uint8_t> stream = encode_stream(seq, config);

  std::vector<video::Frame> clean;
  codec::Decoder clean_decoder(stream, codec::DecoderConfig{});
  clean_decoder.decode_stream(&clean);

  const Channel channel{std::string_view("gilbert:loss=0.05,burst=8,seed=7")};
  codec::DecoderConfig resync;
  resync.conceal = codec::Concealment::kResync;
  std::vector<video::Frame> decoded;
  codec::Decoder decoder(channel.apply(stream), resync);
  const codec::DecodeReport report = decoder.decode_stream(&decoded);
  EXPECT_EQ(report.error_class, codec::DecodeErrorClass::kNone);
  ASSERT_FALSE(decoded.empty());

  double psnr_sum = 0.0;
  const std::size_t pairs = std::min(decoded.size(), clean.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    psnr_sum += std::min(99.0, video::psnr_luma(decoded[i], clean[i]));
  }
  const double mean_psnr = psnr_sum / static_cast<double>(clean.size());
  EXPECT_GE(mean_psnr, 20.0);
}

}  // namespace
}  // namespace acbm::sim
