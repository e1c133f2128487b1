// Failure injection: the decoder must survive arbitrary corruption of a
// valid stream — throwing DecodeError or returning fewer frames is fine,
// crashing, hanging or reading out of bounds is not. Deterministic
// "fuzzing": seeded bit flips, truncations, byte erasures.

#include <gtest/gtest.h>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "synth/sequences.hpp"
#include "util/rng.hpp"

namespace acbm::codec {
namespace {

std::vector<std::uint8_t> valid_stream(int frames_count = 4,
                                       int slices = 1) {
  synth::SequenceRequest req;
  req.name = "carphone";
  req.size = {64, 48};
  req.frame_count = frames_count;
  const auto frames = synth::make_sequence(req);
  core::Acbm acbm;
  EncoderConfig cfg;
  cfg.qp = 12;
  cfg.search_range = 7;
  cfg.slices = slices;
  Encoder encoder({64, 48}, cfg, acbm);
  for (const auto& f : frames) {
    (void)encoder.encode_frame(f);
  }
  return encoder.finish();
}

/// Decodes as much as possible; any DecodeError is acceptable, any other
/// outcome than clean frames is a bug surfaced by ASAN/UBSAN or gtest.
void expect_survives(const std::vector<std::uint8_t>& data) {
  try {
    Decoder decoder(data, DecoderConfig{});
    while (true) {
      const auto frame = decoder.decode_frame();
      if (!frame.has_value()) {
        break;
      }
      // Decoded frames must have the advertised geometry.
      ASSERT_EQ(frame->width(), decoder.size().width);
      ASSERT_EQ(frame->height(), decoder.size().height);
    }
  } catch (const DecodeError&) {
    // Detected corruption — the desired failure mode.
  }
}

TEST(DecoderFuzz, SingleBitFlips) {
  const auto stream = valid_stream();
  util::Rng rng(1);
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupted = stream;
    const std::size_t byte = rng.next_below(
        static_cast<std::uint32_t>(corrupted.size()));
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_survives(corrupted);
  }
}

TEST(DecoderFuzz, BurstCorruption) {
  const auto stream = valid_stream();
  util::Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = stream;
    const std::size_t start = rng.next_below(
        static_cast<std::uint32_t>(corrupted.size()));
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(16), corrupted.size() - start);
    for (std::size_t i = 0; i < len; ++i) {
      corrupted[start + i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    expect_survives(corrupted);
  }
}

TEST(DecoderFuzz, AllTruncationLengths) {
  const auto stream = valid_stream(2);
  for (std::size_t len = 0; len <= stream.size(); ++len) {
    std::vector<std::uint8_t> truncated(stream.begin(),
                                        stream.begin() + static_cast<long>(len));
    if (len < 12) {
      // Shorter than the sequence header: constructor must throw.
      EXPECT_THROW(Decoder d(truncated, DecoderConfig{}), DecodeError)
          << "len " << len;
    } else {
      expect_survives(truncated);
    }
  }
}

TEST(DecoderFuzz, RandomGarbageWithValidMagic) {
  util::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> garbage(64 + rng.next_below(512));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    // Valid magic + plausible geometry so parsing reaches the MB layer.
    garbage[0] = 'A';
    garbage[1] = 'C';
    garbage[2] = 'V';
    garbage[3] = '1';
    garbage[4] = 0;
    garbage[5] = 64;
    garbage[6] = 0;
    garbage[7] = 48;
    expect_survives(garbage);
  }
}

TEST(DecoderFuzz, DuplicatedAndReorderedFrames) {
  const auto stream = valid_stream(3);
  // Appending a copy of the tail re-feeds P-frame data; the decoder must
  // either decode it (it is syntactically valid) or flag an error.
  auto doubled = stream;
  doubled.insert(doubled.end(), stream.begin() + 12, stream.end());
  expect_survives(doubled);
}

TEST(DecoderFuzz, EmptyAndTinyInputs) {
  EXPECT_THROW(Decoder d(std::vector<std::uint8_t>{}, DecoderConfig{}),
               DecodeError);
  EXPECT_THROW(Decoder d(std::vector<std::uint8_t>{0x41}, DecoderConfig{}),
               DecodeError);
}

// ----------------------------------------------------- ACV2 (sliced) cases

TEST(DecoderFuzz, SlicedSingleBitFlips) {
  const auto stream = valid_stream(4, /*slices=*/3);
  util::Rng rng(4);
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupted = stream;
    const std::size_t byte = rng.next_below(
        static_cast<std::uint32_t>(corrupted.size()));
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_survives(corrupted);
  }
}

TEST(DecoderFuzz, SlicedBurstCorruption) {
  const auto stream = valid_stream(4, /*slices=*/3);
  util::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = stream;
    const std::size_t start = rng.next_below(
        static_cast<std::uint32_t>(corrupted.size()));
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(16), corrupted.size() - start);
    for (std::size_t i = 0; i < len; ++i) {
      corrupted[start + i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    expect_survives(corrupted);
  }
}

TEST(DecoderFuzz, SlicedAllTruncationLengths) {
  const auto stream = valid_stream(2, /*slices=*/3);
  for (std::size_t len = 0; len <= stream.size(); ++len) {
    std::vector<std::uint8_t> truncated(stream.begin(),
                                        stream.begin() + static_cast<long>(len));
    if (len < 12) {
      EXPECT_THROW(Decoder d(truncated, DecoderConfig{}), DecodeError)
          << "len " << len;
    } else {
      expect_survives(truncated);
    }
  }
}

TEST(DecoderFuzz, SlicedParallelDecodeSurvivesCorruption) {
  // The pool path must be as corruption-proof as the serial one: tasks may
  // not throw, so concealment has to absorb payload errors on the workers.
  const auto stream = valid_stream(4, /*slices=*/3);
  util::Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = stream;
    const std::size_t byte = rng.next_below(
        static_cast<std::uint32_t>(corrupted.size()));
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      Decoder decoder(corrupted, DecoderConfig{.threads = 3});
      (void)decoder.decode_all();
    } catch (const DecodeError&) {
      // structural corruption — acceptable
    }
  }
}

TEST(DecoderFuzz, CorruptSlicePayloadIsConcealedAndResynchronised) {
  // Deterministic resynchronisation: zero out the first slice's payload of
  // the first frame. The all-zero data parses as empty macroblocks without
  // consuming the payload, which the decoder must flag and conceal — while
  // every later slice (located via the payload-length field in its header)
  // still decodes.
  const auto stream = valid_stream(3, /*slices=*/3);
  const auto reference_frames = [&] {
    Decoder d(stream, DecoderConfig{});
    return d.decode_all();
  }();
  ASSERT_EQ(reference_frames.size(), 3u);

  // Layout: 12-byte sequence header, 3-byte frame header, 1-byte slice
  // count, 9-byte slice header, then slice 0's payload.
  constexpr std::size_t kHeaderBytes = 12 + 3 + 1 + 9;
  const std::size_t payload_len = (std::size_t{stream[kHeaderBytes - 4]}
                                       << 24) |
                                  (std::size_t{stream[kHeaderBytes - 3]}
                                       << 16) |
                                  (std::size_t{stream[kHeaderBytes - 2]}
                                       << 8) |
                                  std::size_t{stream[kHeaderBytes - 1]};
  ASSERT_GT(payload_len, 0u);
  ASSERT_LT(kHeaderBytes + payload_len, stream.size());

  auto corrupted = stream;
  for (std::size_t i = 0; i < payload_len; ++i) {
    corrupted[kHeaderBytes + i] = 0;
  }

  Decoder decoder(corrupted, DecoderConfig{});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), 3u);  // resynchronised: no frame was lost
  EXPECT_GE(decoder.report().concealed_slices, 1u);
}

TEST(DecoderFuzz, SliceDirectoryTargetedCorruption) {
  // Random flips mostly land in payloads; this walk aims every shot at the
  // slice directory itself — sync word, index, first_row, payload length —
  // of every slice header in every frame, where a single byte can redirect
  // the resynchronisation machinery rather than just garble coefficients.
  const auto stream = valid_stream(3, /*slices=*/3);
  std::vector<std::size_t> headers;
  std::size_t pos = 12;  // sequence header
  while (pos + 4 <= stream.size()) {
    pos += 3;  // 23-bit frame header, byte-aligned
    const std::size_t slice_count = stream[pos++];
    for (std::size_t s = 0; s < slice_count && pos + 9 <= stream.size();
         ++s) {
      headers.push_back(pos);
      const std::size_t payload = (std::size_t{stream[pos + 5]} << 24) |
                                  (std::size_t{stream[pos + 6]} << 16) |
                                  (std::size_t{stream[pos + 7]} << 8) |
                                  std::size_t{stream[pos + 8]};
      pos += 9 + payload;
    }
  }
  ASSERT_EQ(headers.size(), 9u);  // 3 frames x 3 slices: the walk is sound
  util::Rng rng(7);
  for (const std::size_t header : headers) {
    for (std::size_t field = 0; field < 9; ++field) {
      const auto random_byte =
          static_cast<std::uint8_t>(rng.next_below(256));
      for (const std::uint8_t value :
           {std::uint8_t{0x00}, std::uint8_t{0xFF}, random_byte}) {
        auto corrupted = stream;
        corrupted[header + field] = value;
        expect_survives(corrupted);
      }
    }
  }
}

TEST(DecoderFuzz, TruncatedDecodeIsAPrefixOfTheFullDecode) {
  // Stronger than surviving truncation: because a truncated stream is a bit
  // prefix of the original and every emitted frame must have consumed only
  // bits that were actually present (slice payload lengths are validated
  // against the remaining buffer; V1 latches reader exhaustion), every
  // frame a truncated decode produces must be sample-identical to the
  // corresponding frame of the full decode — truncation can shorten the
  // output, never alter it.
  for (const int slices : {1, 3}) {
    const auto stream = valid_stream(4, slices);
    const auto reference = [&] {
      Decoder d(stream, DecoderConfig{});
      return d.decode_all();
    }();
    ASSERT_EQ(reference.size(), 4u);
    for (std::size_t len = 12; len < stream.size(); ++len) {
      const std::vector<std::uint8_t> truncated(
          stream.begin(), stream.begin() + static_cast<long>(len));
      std::vector<video::Frame> decoded;
      try {
        Decoder decoder(truncated, DecoderConfig{});
        while (auto frame = decoder.decode_frame()) {
          decoded.push_back(std::move(*frame));
        }
      } catch (const DecodeError&) {
        // the cut landed mid-frame — the partial frame must not be emitted
      }
      ASSERT_LE(decoded.size(), reference.size())
          << slices << " slices, len " << len;
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        ASSERT_TRUE(decoded[i].y().visible_equals(reference[i].y()))
            << slices << " slices, len " << len << ", frame " << i;
        ASSERT_TRUE(decoded[i].cb().visible_equals(reference[i].cb()));
        ASSERT_TRUE(decoded[i].cr().visible_equals(reference[i].cr()));
      }
    }
  }
}

TEST(DecoderFuzz, SliceHeaderCorruptionIsRejected) {
  const auto stream = valid_stream(2, /*slices=*/3);
  // Byte 16 is the first slice header's sync word ("SL"): smashing it must
  // throw — the directory itself carries the resynchronisation points, so
  // there is nothing left to recover with.
  auto corrupted = stream;
  corrupted[16] = 0xFF;
  corrupted[17] = 0xFF;
  EXPECT_THROW(
      {
        Decoder d(corrupted, DecoderConfig{});
        (void)d.decode_all();
      },
      DecodeError);

  // Payload length pointing past the end of the buffer: reject, not read.
  auto overrun = stream;
  overrun[21] = 0x7F;  // top byte of slice 0's u32 payload length
  EXPECT_THROW(
      {
        Decoder d(overrun, DecoderConfig{});
        (void)d.decode_all();
      },
      DecodeError);
}

TEST(DecoderFuzz, StrictFaultsReportClassAndMessage) {
  // One targeted byte edit per structural check of the first frame, decoded
  // under both non-resync policies: the report must name the layer and the
  // exact check that failed, in the order the checks run. Layout: 12-byte
  // sequence header; frame sync at 12..13; header byte 14 (inter bit 7, qp
  // bits 6..2, deblock bit 1); slice count at 15; slice 0's entry at 16
  // (sync 16..17, index 18, first row 19..20, payload length 21..24).
  const auto stream = valid_stream(3, /*slices=*/3);
  ASSERT_EQ(stream[14] & 0x80, 0);  // frame 0 is intra
  struct Fault {
    const char* name;
    std::size_t byte;
    std::uint8_t value;
    DecodeErrorClass error_class;
    const char* message;
  };
  const Fault faults[] = {
      {"bad frame sync", 12, static_cast<std::uint8_t>(stream[12] ^ 0xFF),
       DecodeErrorClass::kFrame, "decoder: lost frame sync"},
      {"qp out of range", 14, static_cast<std::uint8_t>(stream[14] & ~0x7C),
       DecodeErrorClass::kFrame, "decoder: qp out of range"},
      {"inter first frame", 14, static_cast<std::uint8_t>(stream[14] | 0x80),
       DecodeErrorClass::kFrame, "decoder: first frame must be intra"},
      {"invalid slice count", 15, 0, DecodeErrorClass::kDirectory,
       "decoder: invalid slice count"},
      {"lost slice sync", 16, static_cast<std::uint8_t>(stream[16] ^ 0xFF),
       DecodeErrorClass::kDirectory, "decoder: lost slice sync"},
      {"bad row layout", 20, 1, DecodeErrorClass::kDirectory,
       "decoder: invalid slice row layout"},
      {"truncated payload", 21, 0x7F, DecodeErrorClass::kDirectory,
       "decoder: truncated slice payload"},
  };
  for (const Concealment conceal : {Concealment::kSlice, Concealment::kOff}) {
    for (const Fault& fault : faults) {
      auto corrupted = stream;
      corrupted[fault.byte] = fault.value;
      DecoderConfig config;
      config.conceal = conceal;
      Decoder decoder(corrupted, config);
      const DecodeReport report = decoder.decode_stream();
      EXPECT_EQ(report.frames, 0u) << fault.name;
      EXPECT_EQ(report.error_class, fault.error_class) << fault.name;
      EXPECT_EQ(report.error_message, fault.message) << fault.name;
    }
  }
}

}  // namespace
}  // namespace acbm::codec
