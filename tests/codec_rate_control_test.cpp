// RateController: buffer model, deadbands, step clamping, renegotiation,
// and closed-loop behaviour against the real encoder.

#include "codec/rate_control.hpp"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "synth/sequences.hpp"
#include "util/fault_injector.hpp"

namespace acbm::codec {
namespace {

RateController::Config config(double kbps, double fps = 30.0, int qp = 16) {
  RateController::Config c;
  c.target_kbps = kbps;
  c.fps = fps;
  c.initial_qp = qp;
  return c;
}

TEST(RateController, StartsAtInitialQp) {
  const RateController rc(config(48.0));
  EXPECT_EQ(rc.next_qp(), 16);
  EXPECT_EQ(rc.buffer_bits(), 0.0);
}

TEST(RateController, TargetBitsPerFrame) {
  const RateController rc(config(48.0, 30.0));
  EXPECT_DOUBLE_EQ(rc.target_bits_per_frame(), 1600.0);
}

TEST(RateController, OnBudgetFramesLeaveQpAlone) {
  RateController rc(config(48.0));
  for (int i = 0; i < 20; ++i) {
    rc.frame_encoded(1600);
  }
  EXPECT_EQ(rc.next_qp(), 16);
  EXPECT_DOUBLE_EQ(rc.buffer_bits(), 0.0);
}

TEST(RateController, OversizedFramesRaiseQp) {
  RateController rc(config(48.0));
  rc.frame_encoded(3200);  // backlog = 1 frame > upper deadband
  EXPECT_EQ(rc.next_qp(), 17);
  rc.frame_encoded(20000);  // backlog >> 4 frames
  EXPECT_EQ(rc.next_qp(), 19);  // step clamped to +2
}

TEST(RateController, UndersizedFramesLowerQp) {
  RateController rc(config(48.0));
  rc.frame_encoded(0);  // deficit of one frame
  EXPECT_EQ(rc.next_qp(), 15);
}

TEST(RateController, QpClampedToConfiguredRange) {
  RateController rc(config(48.0));
  for (int i = 0; i < 50; ++i) {
    rc.frame_encoded(100000);
  }
  EXPECT_EQ(rc.next_qp(), 31);
  // Positive backlog is capped at two seconds (overflowed bucket), so a
  // long run of empty frames drains it and walks Qp down to the floor.
  for (int i = 0; i < 100; ++i) {
    rc.frame_encoded(0);
  }
  EXPECT_EQ(rc.next_qp(), 2);  // default min_qp
}

TEST(RateController, BufferCannotBankUnlimitedCredit) {
  RateController rc(config(48.0, 30.0));
  for (int i = 0; i < 300; ++i) {
    rc.frame_encoded(0);  // idle channel
  }
  // Credit floor is one second of target bits.
  EXPECT_GE(rc.buffer_bits(), -30.0 * 1600.0 - 1e-9);
}

TEST(RateController, RenegotiationClampsBacklog) {
  RateController rc(config(48.0));
  for (int i = 0; i < 20; ++i) {
    rc.frame_encoded(10000);  // build a large backlog
  }
  rc.set_target_kbps(96.0);
  // At the new rate (3200 bits/frame) the carried backlog is ≤ 2 frames.
  EXPECT_LE(rc.backlog_frames(), 2.0 + 1e-9);
  EXPECT_DOUBLE_EQ(rc.target_bits_per_frame(), 3200.0);
}

TEST(RateController, BacklogFramesUnits) {
  RateController rc(config(60.0, 30.0));  // 2000 bits/frame
  rc.frame_encoded(6000);
  EXPECT_DOUBLE_EQ(rc.backlog_frames(), 2.0);
}

TEST(RateController, ClosedLoopHitsTargetRate) {
  // Full loop: encoder + controller must land within 20 % of the channel
  // rate on a nontrivial clip (excluding the intra frame).
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = video::kQcif;
  req.frame_count = 40;
  const auto frames = synth::make_sequence(req);

  core::Acbm acbm;
  EncoderConfig cfg;
  cfg.qp = 16;
  Encoder encoder(video::kQcif, cfg, acbm);
  RateController rc(config(60.0));

  std::uint64_t bits = 0;
  int counted = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    encoder.set_qp(rc.next_qp());
    const FrameReport r = encoder.encode_frame(frames[i]);
    rc.frame_encoded(r.bits);
    if (i >= 10) {  // skip intra transient
      bits += r.bits;
      ++counted;
    }
  }
  const double kbps =
      static_cast<double>(bits) * 30.0 / counted / 1000.0;
  EXPECT_NEAR(kbps, 60.0, 12.0);
}

TEST(RateController, ClosedLoopQpTracksChannelInversely) {
  // Lower channel rate must settle at a strictly higher quantiser.
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = video::kQcif;
  req.frame_count = 30;
  const auto frames = synth::make_sequence(req);

  auto settled_qp = [&](double kbps) {
    core::Acbm acbm;
    EncoderConfig cfg;
    cfg.qp = 16;
    Encoder encoder(video::kQcif, cfg, acbm);
    RateController rc(config(kbps));
    double qp_sum = 0.0;
    int counted = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      encoder.set_qp(rc.next_qp());
      const FrameReport r = encoder.encode_frame(frames[i]);
      rc.frame_encoded(r.bits);
      if (i >= 15) {
        qp_sum += rc.next_qp();
        ++counted;
      }
    }
    return qp_sum / counted;
  };
  EXPECT_GT(settled_qp(48.0), settled_qp(80.0) + 1.0);
}

TEST(Encoder, SetQpValidatesAndApplies) {
  core::Acbm acbm;
  EncoderConfig cfg;
  cfg.qp = 16;
  Encoder encoder({64, 48}, cfg, acbm);
  EXPECT_THROW(encoder.set_qp(0), std::invalid_argument);
  EXPECT_THROW(encoder.set_qp(32), std::invalid_argument);
  encoder.set_qp(25);
  EXPECT_EQ(encoder.config().qp, 25);
}

TEST(Encoder, VaryingQpStreamStaysDecodable) {
  synth::SequenceRequest req;
  req.name = "table";
  req.size = {64, 48};
  req.frame_count = 6;
  const auto frames = synth::make_sequence(req);

  core::Acbm acbm;
  EncoderConfig cfg;
  cfg.qp = 8;
  cfg.search_range = 7;
  Encoder encoder({64, 48}, cfg, acbm);
  std::vector<video::Frame> recons;
  const int qps[] = {8, 31, 2, 20, 11, 27};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    encoder.set_qp(qps[i]);
    (void)encoder.encode_frame(frames[i]);
    recons.push_back(encoder.last_recon());
  }
  Decoder decoder(encoder.finish(), DecoderConfig{});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(decoded[i].y().visible_equals(recons[i].y())) << i;
  }
}

// set_qp applies from the next submitted frame: frames still queued when it
// is called keep the Qp they were submitted with, so an asynchronous
// submission loop emits exactly the stream of the blocking loop.
TEST(Encoder, AsyncSetQpAppliesToSubsequentSubmissions) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = video::kQcif;
  req.frame_count = 6;
  const auto frames = synth::make_sequence(req);
  const int qps[] = {8, 31, 2, 20, 11, 27};

  const auto encode = [&](bool async) {
    // Every frame's front sleeps first, so later set_qp calls land while
    // earlier frames are still waiting to be encoded.
    const util::FaultInjector delay(
        "fault:site=task_delay_ms,p=1,delay_ms=20");
    core::Acbm acbm;
    EncoderConfig cfg;
    cfg.parallel.threads = 4;
    Encoder encoder(video::kQcif, cfg, acbm);
    encoder.set_fault_injector(&delay, 0);
    std::vector<std::future<EncodedFrame>> packets;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      encoder.set_qp(qps[i]);
      if (async) {
        packets.push_back(encoder.submit_frame(frames[i]));
      } else {
        (void)encoder.encode_frame(frames[i]);
      }
    }
    for (std::future<EncodedFrame>& packet : packets) {
      (void)packet.get();
    }
    return encoder.finish();
  };
  EXPECT_EQ(encode(/*async=*/true), encode(/*async=*/false));
}

}  // namespace
}  // namespace acbm::codec
