// Multi-session service invariants: N concurrent frame-pipelined sessions
// sharing one EncoderService pool must each produce a bitstream
// byte-identical to a standalone sequential encode of the same sequence —
// at every pool size, with sliced and unsliced entropy coding, across
// intra-refresh and deblocking configurations — and the per-frame packets
// must tile the stream exactly. This is the invariant that makes
// frame-level pipelining and session concurrency pure throughput knobs.
//
// The whole file is intended to run under ThreadSanitizer in CI: the
// row-readiness handshake (ReadyCounter), the per-strip border extensions
// and the admission engine are exactly the code TSan would catch cheating.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/encoder.hpp"
#include "codec/service.hpp"
#include "core/builtin_estimators.hpp"
#include "obs/metrics.hpp"
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

std::vector<std::uint8_t> encode_standalone(
    const std::vector<video::Frame>& frames, const std::string& spec,
    const EncoderConfig& config) {
  const auto estimator = core::builtin_estimators().create(spec);
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  for (const video::Frame& frame : frames) {
    encoder.encode_frame(frame);
  }
  return encoder.finish();
}

struct SessionOutcome {
  std::vector<std::uint8_t> stream;
  std::vector<Packet> packets;
};

/// Drives one session to completion: submits every frame, keeping a couple
/// in flight so the front/back overlap actually happens, and collects the
/// packets plus the finished stream.
SessionOutcome drive_session(EncodeSession& session,
                             const std::vector<video::Frame>& frames) {
  SessionOutcome outcome;
  std::vector<std::future<Packet>> inflight;
  for (const video::Frame& frame : frames) {
    inflight.push_back(session.submit(frame));
    while (inflight.size() > 2) {
      outcome.packets.push_back(inflight.front().get());
      inflight.erase(inflight.begin());
    }
  }
  for (std::future<Packet>& f : inflight) {
    outcome.packets.push_back(f.get());
  }
  outcome.stream = session.finish();
  return outcome;
}

TEST(ServiceEncode, SingleSessionByteIdenticalAcrossPoolSizes) {
  const auto frames = test_sequence("foreman", 8);
  EncoderConfig config;
  config.qp = 16;
  const auto reference = encode_standalone(frames, "ACBM", config);
  ASSERT_GT(reference.size(), 0u);

  for (int threads : {1, 2, 4}) {
    EncoderService service(threads);
    EncodeSession session(service, {frames[0].width(), frames[0].height()},
                          config, core::builtin_estimators().create("ACBM"));
    const SessionOutcome outcome = drive_session(session, frames);
    EXPECT_EQ(outcome.stream, reference) << threads << " pool threads";
  }
}

TEST(ServiceEncode, PacketsTileTheStreamInSubmissionOrder) {
  const auto frames = test_sequence("carphone", 6);
  EncoderConfig config;
  config.qp = 18;
  EncoderService service(4);
  EncodeSession session(service, {frames[0].width(), frames[0].height()},
                        config, core::builtin_estimators().create("ACBM"));
  const SessionOutcome outcome = drive_session(session, frames);

  ASSERT_EQ(outcome.packets.size(), frames.size());
  std::vector<std::uint8_t> concatenated;
  for (std::size_t i = 0; i < outcome.packets.size(); ++i) {
    EXPECT_EQ(outcome.packets[i].frame_index, i);
    EXPECT_GT(outcome.packets[i].bytes.size(), 0u);
    EXPECT_GT(outcome.packets[i].report.bits, 0u);
    concatenated.insert(concatenated.end(), outcome.packets[i].bytes.begin(),
                        outcome.packets[i].bytes.end());
  }
  EXPECT_EQ(concatenated, outcome.stream);
}

TEST(ServiceEncode, ConcurrentSessionsMatchSequentialEncodes) {
  // Four different sequences, four different configurations, all in flight
  // on one pool at once, each driven from its own thread — byte-identical
  // to four standalone sequential encodes, at every pool size.
  const std::vector<std::string> names = {"foreman", "carphone",
                                          "miss_america", "table"};
  std::vector<std::vector<video::Frame>> inputs;
  std::vector<EncoderConfig> configs;
  for (std::size_t s = 0; s < names.size(); ++s) {
    inputs.push_back(test_sequence(names[s], 6));
    EncoderConfig config;
    config.qp = 14 + static_cast<int>(s) * 4;
    config.slices = s % 2 == 0 ? 1 : 4;  // mix ACV1 and ACV2 sessions
    configs.push_back(config);
  }
  std::vector<std::vector<std::uint8_t>> references;
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    references.push_back(encode_standalone(inputs[s], "ACBM", configs[s]));
  }

  for (int threads : {1, 2, 4, 8}) {
    EncoderService service(threads);
    std::vector<std::unique_ptr<EncodeSession>> sessions;
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      sessions.push_back(std::make_unique<EncodeSession>(
          service,
          video::PictureSize{inputs[s][0].width(), inputs[s][0].height()},
          configs[s], core::builtin_estimators().create("ACBM")));
    }
    std::vector<SessionOutcome> outcomes(inputs.size());
    std::vector<std::thread> drivers;
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      drivers.emplace_back([&, s] {
        outcomes[s] = drive_session(*sessions[s], inputs[s]);
      });
    }
    for (std::thread& t : drivers) {
      t.join();
    }
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      EXPECT_EQ(outcomes[s].stream, references[s])
          << names[s] << " at " << threads << " pool threads";
    }
  }
}

TEST(ServiceEncode, IntraRefreshAndSlicedEntropyIdentical) {
  // Mid-stream intra frames reset the cross-frame gating (an intra front
  // waits on nothing); sliced entropy publishes reference rows from
  // concurrent slice tasks. Both must leave the bytes untouched.
  const auto frames = test_sequence("foreman", 9);
  EncoderConfig config;
  config.qp = 16;
  config.intra_period = 3;
  config.slices = 4;
  const auto reference = encode_standalone(frames, "ACBM", config);

  EncoderService service(4);
  EncodeSession session(service, {frames[0].width(), frames[0].height()},
                        config, core::builtin_estimators().create("ACBM"));
  EXPECT_EQ(drive_session(session, frames).stream, reference);
}

TEST(ServiceEncode, DeblockDegradesToFramePublicationIdentically) {
  // In-loop deblocking rewrites rows after entropy coding, so the pipeline
  // must fall back to whole-frame reference publication — and still match.
  const auto frames = test_sequence("carphone", 6);
  EncoderConfig config;
  config.qp = 20;
  config.deblock = true;
  const auto reference = encode_standalone(frames, "ACBM", config);

  EncoderService service(4);
  EncodeSession session(service, {frames[0].width(), frames[0].height()},
                        config, core::builtin_estimators().create("ACBM"));
  EXPECT_EQ(drive_session(session, frames).stream, reference);
}

TEST(ServiceEncode, RateDistortionModeIdentical) {
  const auto frames = test_sequence("table", 6);
  EncoderConfig config;
  config.qp = 20;
  config.mode_decision = ModeDecision::kRateDistortion;
  const auto reference = encode_standalone(frames, "PBM", config);

  EncoderService service(3);
  EncodeSession session(service, {frames[0].width(), frames[0].height()},
                        config, core::builtin_estimators().create("PBM"));
  EXPECT_EQ(drive_session(session, frames).stream, reference);
}

TEST(ServiceEncode, SynchronousEncodeFrameWorksOnServiceEncoder) {
  // encode_frame on a shared-pool encoder routes through the async path and
  // blocks per frame — still byte-identical.
  const auto frames = test_sequence("foreman", 5);
  EncoderConfig config;
  config.qp = 16;
  const auto reference = encode_standalone(frames, "ACBM", config);

  EncoderService service(2);
  EncodeSession session(service, {frames[0].width(), frames[0].height()},
                        config, core::builtin_estimators().create("ACBM"));
  // Bypass submit(): exercise the blocking API on the service encoder.
  Encoder& encoder = session.encoder();
  for (const video::Frame& frame : frames) {
    const FrameReport report = encoder.encode_frame(frame);
    EXPECT_GT(report.bits, 0u);
    EXPECT_GE(report.frame_wall_seconds, 0.0);
  }
  EXPECT_EQ(session.finish(), reference);
}

TEST(ServiceEncode, StandaloneSubmitFramePacketsTileEncodeFrameStream) {
  // A standalone encoder runs the same engine as a session: submit_frame
  // works on it at one thread (zero-worker pool: every future is resolved
  // on return) and at four, and the packets concatenate to encode_frame's
  // bytes.
  const auto frames = test_sequence("foreman", 6);
  EncoderConfig config;
  config.qp = 16;
  const auto reference = encode_standalone(frames, "ACBM", config);

  for (const int threads : {1, 4}) {
    config.parallel.threads = threads;
    const auto estimator = core::builtin_estimators().create("ACBM");
    Encoder encoder({frames[0].width(), frames[0].height()}, config,
                    *estimator);
    std::vector<std::future<EncodedFrame>> futures;
    for (const video::Frame& frame : frames) {
      futures.push_back(encoder.submit_frame(frame));
      if (threads == 1) {
        EXPECT_EQ(futures.back().wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
      }
    }
    std::vector<std::uint8_t> concatenated;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const EncodedFrame packet = futures[i].get();
      EXPECT_EQ(packet.frame_index, i);
      concatenated.insert(concatenated.end(), packet.bytes.begin(),
                          packet.bytes.end());
    }
    EXPECT_FALSE(encoder.failed());
    EXPECT_EQ(concatenated, reference) << "threads=" << threads;
    EXPECT_EQ(encoder.finish(), reference) << "threads=" << threads;
  }
}

TEST(ServiceEncode, StageHistogramsCountEveryFrame) {
  // The registry histograms are the encoder's only stage clock: one sample
  // per frame each, I-frames included (their front stage plans), and no
  // separate ME or plan stage left to time.
  const auto frames = test_sequence("foreman", 4);
  EncoderConfig config;
  config.qp = 16;
  const auto estimator = core::builtin_estimators().create("ACBM");
  obs::Registry registry;
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  encoder.set_metrics(&registry);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const FrameReport report = encoder.encode_frame(frames[i]);
    EXPECT_GE(report.frame_wall_seconds, 0.0) << i;
  }
  std::map<std::string, std::uint64_t> counts;
  for (const obs::Registry::HistogramRow& row : registry.histogram_rows()) {
    counts[row.name] = row.count;
  }
  for (const char* name :
       {"enc.stage.front", "enc.stage.entropy", "enc.frame.wall"}) {
    EXPECT_EQ(counts[name], frames.size()) << name;
  }
  // No other stage histogram is registered (no ME or plan stage clock).
  for (const auto& [name, count] : counts) {
    if (name.starts_with("enc.stage.")) {
      EXPECT_TRUE(name == "enc.stage.front" || name == "enc.stage.entropy")
          << name;
    }
  }
}

}  // namespace
}  // namespace acbm::codec
