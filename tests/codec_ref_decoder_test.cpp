// Cross-validation layer of the verification pyramid (docs/TESTING.md):
// the deliberately naive codec::RefDecoder must agree sample-for-sample
// with the optimized codec::Decoder on a generated corpus spanning kernels,
// slice counts, RD mode, intra periods, deblocking, QP extremes, and
// multi-session packet streams — and must agree on the *outcome* (decoded
// samples, concealment counts, or an error) when those streams are mutated
// or truncated. Agreement here means every reconstruction path is attested
// by two independent implementations.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/ref_decoder.hpp"
#include "codec/service.hpp"
#include "core/builtin_estimators.hpp"
#include "sim/channel.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
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

struct StreamCase {
  std::string name;
  std::vector<std::uint8_t> stream;
  std::size_t frames = 0;
};

std::vector<std::uint8_t> encode_stream(const std::vector<video::Frame>& in,
                                        const std::string& estimator,
                                        const EncoderConfig& config) {
  const auto est = core::builtin_estimators().create(estimator);
  Encoder encoder({in[0].width(), in[0].height()}, config, *est);
  for (const video::Frame& frame : in) {
    encoder.encode_frame(frame);
  }
  return encoder.finish();
}

/// The ≥30-stream corpus required by the cross-validation contract:
/// {kernel scalar/auto} × {slices 1/4} × {rd on/off} as the base grid, plus
/// intra-period, deblock, QP-extreme, geometry, and multi-session variants.
std::vector<StreamCase> build_corpus() {
  std::vector<StreamCase> corpus;
  const auto add = [&corpus](std::string name, std::vector<std::uint8_t> s,
                             std::size_t frames) {
    corpus.push_back({std::move(name), std::move(s), frames});
  };

  for (const char* kernel : {"scalar", "auto"}) {
    EXPECT_TRUE(simd::select_kernels_by_name(kernel));
    const std::string tag = std::string(kernel) + "/";

    // Base grid: slices × mode-decision.
    for (int slices : {1, 4}) {
      for (bool rd : {false, true}) {
        const auto frames = test_sequence("carphone", 5, {64, 48});
        EncoderConfig config;
        config.qp = 14;
        config.slices = slices;
        config.mode_decision =
            rd ? ModeDecision::kRateDistortion : ModeDecision::kHeuristic;
        add(tag + "slices" + std::to_string(slices) +
                (rd ? "-rd" : "-heuristic"),
            encode_stream(frames, "ACBM", config), frames.size());
      }
    }

    // Periodic intra refresh and in-loop deblocking.
    for (int slices : {1, 4}) {
      {
        const auto frames = test_sequence("foreman", 6, {64, 48});
        EncoderConfig config;
        config.qp = 18;
        config.slices = slices;
        config.intra_period = 2;
        add(tag + "intra2-slices" + std::to_string(slices),
            encode_stream(frames, "ACBM", config), frames.size());
      }
      {
        const auto frames = test_sequence("table", 5, {64, 48});
        EncoderConfig config;
        config.qp = 22;
        config.slices = slices;
        config.deblock = true;
        add(tag + "deblock-slices" + std::to_string(slices),
            encode_stream(frames, "ACBM", config), frames.size());
      }
    }
  }
  EXPECT_TRUE(simd::select_kernels_by_name("auto"));

  // QP extremes (near-lossless and coarse).
  for (int qp : {4, 28}) {
    for (int slices : {1, 4}) {
      const auto frames = test_sequence("miss_america", 4, {64, 48});
      EncoderConfig config;
      config.qp = qp;
      config.slices = slices;
      add("qp" + std::to_string(qp) + "-slices" + std::to_string(slices),
          encode_stream(frames, "ACBM", config), frames.size());
    }
  }

  // Multi-session service streams: packets concatenated per session must
  // decode like any other stream.
  for (int slices : {1, 4}) {
    EncoderService service(2);
    EncoderConfig config;
    config.qp = 16;
    config.slices = slices;
    for (int session = 0; session < 2; ++session) {
      const auto frames =
          test_sequence(session == 0 ? "carphone" : "foreman", 4, {64, 48});
      EncodeSession enc(service, {64, 48}, config,
                        core::builtin_estimators().create("ACBM"));
      std::vector<std::uint8_t> stream;
      for (const video::Frame& frame : frames) {
        auto packet = enc.submit(frame).get();
        stream.insert(stream.end(), packet.bytes.begin(),
                      packet.bytes.end());
      }
      add("session" + std::to_string(session) + "-slices" +
              std::to_string(slices),
          std::move(stream), frames.size());
    }
  }

  // Oddballs: full-pel-only, no-skip, tiny and larger geometry, RD with
  // deblocking across slices, all-intra.
  {
    const auto frames = test_sequence("foreman", 4, {64, 48});
    EncoderConfig config;
    config.qp = 16;
    config.half_pel = false;
    add("fullpel", encode_stream(frames, "ACBM", config), frames.size());
  }
  {
    const auto frames = test_sequence("carphone", 4, {64, 48});
    EncoderConfig config;
    config.qp = 16;
    config.allow_skip = false;
    add("noskip", encode_stream(frames, "ACBM", config), frames.size());
  }
  {
    const auto frames = test_sequence("table", 4, {16, 16});
    EncoderConfig config;
    config.qp = 12;
    add("tiny16x16", encode_stream(frames, "ACBM", config), frames.size());
  }
  {
    const auto frames = test_sequence("foreman", 3, {96, 80});
    EncoderConfig config;
    config.qp = 20;
    config.slices = 3;
    add("96x80-slices3", encode_stream(frames, "ACBM", config),
        frames.size());
  }
  {
    const auto frames = test_sequence("carphone", 4, {64, 48});
    EncoderConfig config;
    config.qp = 24;
    config.slices = 3;
    config.deblock = true;
    config.mode_decision = ModeDecision::kRateDistortion;
    add("rd-deblock-slices3", encode_stream(frames, "PBM", config),
        frames.size());
  }
  {
    const auto frames = test_sequence("miss_america", 3, {64, 48});
    EncoderConfig config;
    config.qp = 18;
    config.intra_period = 1;  // every frame intra
    add("all-intra", encode_stream(frames, "ACBM", config), frames.size());
  }
  return corpus;
}

void expect_picture_equal(const RefPicture& ref, const video::Frame& opt,
                          const std::string& context) {
  ASSERT_EQ(ref.width, opt.width()) << context;
  ASSERT_EQ(ref.height, opt.height()) << context;
  for (int y = 0; y < ref.height; ++y) {
    for (int x = 0; x < ref.width; ++x) {
      ASSERT_EQ(ref.y[static_cast<std::size_t>(y) * ref.width + x],
                opt.y().row(y)[x])
          << context << " luma (" << x << ", " << y << ")";
    }
  }
  const int cw = ref.width / 2;
  const int ch = ref.height / 2;
  for (int y = 0; y < ch; ++y) {
    for (int x = 0; x < cw; ++x) {
      ASSERT_EQ(ref.cb[static_cast<std::size_t>(y) * cw + x],
                opt.cb().row(y)[x])
          << context << " cb (" << x << ", " << y << ")";
      ASSERT_EQ(ref.cr[static_cast<std::size_t>(y) * cw + x],
                opt.cr().row(y)[x])
          << context << " cr (" << x << ", " << y << ")";
    }
  }
}

TEST(RefDecoderCrossValidation, SampleExactOverGeneratedCorpus) {
  const std::vector<StreamCase> corpus = build_corpus();
  ASSERT_GE(corpus.size(), 30u);

  for (const StreamCase& c : corpus) {
    SCOPED_TRACE(c.name);
    Decoder opt(c.stream, DecoderConfig{.threads = 2});
    RefDecoder ref(c.stream);
    EXPECT_EQ(ref.version(), opt.version());
    EXPECT_EQ(ref.width(), opt.size().width);
    EXPECT_EQ(ref.height(), opt.size().height);
    EXPECT_EQ(ref.fps_num(), opt.rate().num);
    EXPECT_EQ(ref.fps_den(), opt.rate().den);

    std::size_t frames = 0;
    while (true) {
      const std::optional<video::Frame> opt_frame = opt.decode_frame();
      const std::optional<RefPicture> ref_frame = ref.decode_frame();
      ASSERT_EQ(ref_frame.has_value(), opt_frame.has_value()) << c.name;
      if (!opt_frame.has_value()) {
        break;
      }
      expect_picture_equal(*ref_frame, *opt_frame,
                           c.name + " frame " + std::to_string(frames));
      ++frames;
    }
    EXPECT_EQ(frames, c.frames) << c.name;
    EXPECT_EQ(ref.concealed_slices(), opt.report().concealed_slices) << c.name;
    EXPECT_EQ(ref.last_frame_slices(), opt.last_frame_slices()) << c.name;
  }
}

// --- Differential oracle on damaged streams --------------------------------
//
// One decode outcome, comparable across implementations: either an error, or
// the decoded frame digests plus the concealment count.

struct Outcome {
  bool error = false;
  std::size_t frames = 0;
  std::uint64_t concealed = 0;
  std::uint64_t resync_skips = 0;
  std::uint64_t digest = 0;
};

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

Outcome optimized_outcome(const std::vector<std::uint8_t>& stream,
                          int threads, bool resync = false) {
  Outcome out;
  try {
    DecoderConfig config;
    config.threads = threads;
    config.conceal = resync ? Concealment::kResync : Concealment::kSlice;
    Decoder decoder(stream, config);
    while (auto frame = decoder.decode_frame()) {
      ++out.frames;
      for (int y = 0; y < frame->height(); ++y) {
        for (int x = 0; x < frame->width(); ++x) {
          mix(out.digest, frame->y().row(y)[x]);
        }
      }
      for (int y = 0; y < frame->height() / 2; ++y) {
        for (int x = 0; x < frame->width() / 2; ++x) {
          mix(out.digest, frame->cb().row(y)[x]);
          mix(out.digest, frame->cr().row(y)[x]);
        }
      }
    }
    out.concealed = decoder.report().concealed_slices;
    out.resync_skips = decoder.report().resync_skips;
  } catch (const DecodeError&) {
    out.error = true;
  }
  return out;
}

Outcome reference_outcome(const std::vector<std::uint8_t>& stream,
                          bool resync = false) {
  Outcome out;
  try {
    RefDecoder decoder(stream, resync);
    while (auto frame = decoder.decode_frame()) {
      ++out.frames;
      for (std::uint8_t s : frame->y) {
        mix(out.digest, s);
      }
      for (std::size_t i = 0; i < frame->cb.size(); ++i) {
        mix(out.digest, frame->cb[i]);
        mix(out.digest, frame->cr[i]);
      }
    }
    out.concealed = decoder.concealed_slices();
    out.resync_skips = decoder.resync_skips();
  } catch (const RefDecodeError&) {
    out.error = true;
  }
  return out;
}

void expect_same_outcome(const Outcome& ref, const Outcome& opt,
                         const std::string& context) {
  ASSERT_EQ(ref.error, opt.error) << context;
  ASSERT_EQ(ref.frames, opt.frames) << context;
  ASSERT_EQ(ref.concealed, opt.concealed) << context;
  ASSERT_EQ(ref.resync_skips, opt.resync_skips) << context;
  ASSERT_EQ(ref.digest, opt.digest) << context;
}

std::vector<std::uint8_t> sliced_stream() {
  const auto frames = test_sequence("foreman", 4, {64, 48});
  EncoderConfig config;
  config.qp = 16;
  config.slices = 3;
  return encode_stream(frames, "ACBM", config);
}

std::vector<std::uint8_t> legacy_stream() {
  const auto frames = test_sequence("carphone", 3, {48, 32});
  EncoderConfig config;
  config.qp = 14;
  return encode_stream(frames, "ACBM", config);
}

TEST(RefDecoderDifferential, BitFlipsProduceIdenticalOutcomes) {
  for (const auto& base : {sliced_stream(), legacy_stream()}) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> pick_byte(0, base.size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    std::uniform_int_distribution<int> pick_count(1, 3);
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<std::uint8_t> mutated = base;
      const int flips = pick_count(rng);
      for (int f = 0; f < flips; ++f) {
        mutated[pick_byte(rng)] ^=
            static_cast<std::uint8_t>(1u << pick_bit(rng));
      }
      const std::string context = "trial " + std::to_string(trial);
      expect_same_outcome(reference_outcome(mutated),
                          optimized_outcome(mutated, /*threads=*/2), context);
    }
  }
}

TEST(RefDecoderDifferential, TruncationAtEveryByteAgrees) {
  const std::vector<std::uint8_t> base = sliced_stream();
  for (std::size_t len = 0; len <= base.size(); ++len) {
    std::vector<std::uint8_t> cut(base.begin(),
                                  base.begin() + static_cast<long>(len));
    expect_same_outcome(reference_outcome(cut),
                        optimized_outcome(cut, /*threads=*/1),
                        "length " + std::to_string(len));
  }
}

TEST(RefDecoderDifferential, ByteOverwritesAgree) {
  const std::vector<std::uint8_t> base = legacy_stream();
  std::mt19937 rng(23);
  std::uniform_int_distribution<std::size_t> pick_byte(0, base.size() - 1);
  std::uniform_int_distribution<int> pick_value(0, 255);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> mutated = base;
    mutated[pick_byte(rng)] = static_cast<std::uint8_t>(pick_value(rng));
    expect_same_outcome(reference_outcome(mutated),
                        optimized_outcome(mutated, /*threads=*/1),
                        "trial " + std::to_string(trial));
  }
}

// --- Channel realizations (PR 8) -------------------------------------------
//
// The resilience contract: under any seeded sim::Channel realization the
// decoder pair must stay outcome-identical — in the default (strict
// directory) mode AND in conceal=resync mode, where both implement the
// normative recovery rules of docs/RESILIENCE.md independently.

TEST(RefDecoderDifferential, ChannelRealizationsAgreeOverCorpus) {
  const std::vector<StreamCase> corpus = build_corpus();
  const std::vector<std::string> specs = {
      "gilbert:loss=0.05,burst=8,seed=7",
      "gilbert:loss=0.2,burst=4,seed=9,hit=header",
      "iid:loss=0.1,seed=3,hit=flip",
      "iid:loss=0.3,seed=21,hit=drop",
      "trunc:at=0.35",
  };
  for (const StreamCase& c : corpus) {
    for (const std::string& spec : specs) {
      const sim::Channel channel{std::string_view(spec)};
      const std::vector<std::uint8_t> damaged = channel.apply(c.stream);
      for (const bool resync : {false, true}) {
        const std::string context =
            c.name + " / " + spec + (resync ? " / resync" : " / strict");
        expect_same_outcome(reference_outcome(damaged, resync),
                            optimized_outcome(damaged, /*threads=*/2, resync),
                            context);
      }
    }
  }
}

TEST(RefDecoderDifferential, ResyncNeverErrorsOnV2ChannelDamage) {
  // conceal=resync turns every post-header corruption into concealment or a
  // forward scan: over many seeds of the nastiest mode (directory hits) the
  // optimized decoder must neither throw nor disagree with the reference.
  const std::vector<std::uint8_t> base = sliced_stream();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string spec =
        "gilbert:loss=0.25,burst=3,seed=" + std::to_string(seed) +
        ",hit=header";
    const sim::Channel channel{std::string_view(spec)};
    const std::vector<std::uint8_t> damaged = channel.apply(base);
    const Outcome opt = optimized_outcome(damaged, /*threads=*/2, true);
    EXPECT_FALSE(opt.error) << spec;
    expect_same_outcome(reference_outcome(damaged, true), opt, spec);
  }
}

TEST(RefDecoderDifferential, ResyncModeAgreesOnRandomMutations) {
  // Resync differential over unstructured damage too — bit flips land in
  // frame headers, directories and payloads alike, exercising every branch
  // of the normative scan rules.
  for (const auto& base : {sliced_stream(), legacy_stream()}) {
    std::mt19937 rng(31);
    std::uniform_int_distribution<std::size_t> pick_byte(0, base.size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    std::uniform_int_distribution<int> pick_count(1, 4);
    for (int trial = 0; trial < 80; ++trial) {
      std::vector<std::uint8_t> mutated = base;
      const int flips = pick_count(rng);
      for (int f = 0; f < flips; ++f) {
        mutated[pick_byte(rng)] ^=
            static_cast<std::uint8_t>(1u << pick_bit(rng));
      }
      const std::string context = "resync trial " + std::to_string(trial);
      expect_same_outcome(reference_outcome(mutated, true),
                          optimized_outcome(mutated, /*threads=*/2, true),
                          context);
    }
  }
}

TEST(RefDecoderDifferential, ResyncTruncationAtEveryByteAgrees) {
  const std::vector<std::uint8_t> base = sliced_stream();
  for (std::size_t len = 0; len <= base.size(); ++len) {
    std::vector<std::uint8_t> cut(base.begin(),
                                  base.begin() + static_cast<long>(len));
    expect_same_outcome(reference_outcome(cut, true),
                        optimized_outcome(cut, /*threads=*/1, true),
                        "resync length " + std::to_string(len));
  }
}

}  // namespace
}  // namespace acbm::codec
