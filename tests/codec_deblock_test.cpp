// Annex-J deblocking: edge operator, strength table, plane filtering, and
// in-loop parity between encoder and decoder.

#include "codec/deblock.hpp"

#include <gtest/gtest.h>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "me/pbm.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"
#include "video/psnr.hpp"

namespace acbm::codec {
namespace {

TEST(DeblockStrength, TableEndpointsAndMonotonicity) {
  EXPECT_EQ(deblock_strength(1), 1);
  EXPECT_EQ(deblock_strength(8), 4);
  EXPECT_EQ(deblock_strength(16), 7);
  EXPECT_EQ(deblock_strength(31), 12);
  for (int qp = 2; qp <= 31; ++qp) {
    EXPECT_GE(deblock_strength(qp), deblock_strength(qp - 1));
  }
}

TEST(DeblockEdge, FlatQuadUnchanged) {
  std::uint8_t a = 100, b = 100, c = 100, d = 100;
  deblock_edge(a, b, c, d, 12);
  EXPECT_EQ(a, 100);
  EXPECT_EQ(b, 100);
  EXPECT_EQ(c, 100);
  EXPECT_EQ(d, 100);
}

TEST(DeblockEdge, SmallStepIsSmoothed) {
  // A small blocking step (quantization artefact) gets pulled together.
  std::uint8_t a = 100, b = 100, c = 108, d = 108;
  deblock_edge(a, b, c, d, 8);
  EXPECT_GT(b, 100);
  EXPECT_LT(c, 108);
  EXPECT_LE(static_cast<int>(c) - b, 8);
}

TEST(DeblockEdge, LargeRealEdgeIsPreserved) {
  // The up/down ramp turns off for differences far beyond the strength —
  // genuine image edges must not be blurred.
  std::uint8_t a = 20, b = 20, c = 220, d = 220;
  deblock_edge(a, b, c, d, 4);
  EXPECT_EQ(b, 20);
  EXPECT_EQ(c, 220);
}

TEST(DeblockEdge, ZeroStrengthIsIdentity) {
  std::uint8_t a = 90, b = 100, c = 120, d = 130;
  deblock_edge(a, b, c, d, 0);
  EXPECT_EQ(b, 100);
  EXPECT_EQ(c, 120);
}

TEST(DeblockPlane, ReducesBlockinessOnSyntheticArtefact) {
  // Build a plane with constant 8×8 tiles of alternating level — the
  // worst-case blocking pattern. Filtering must cut the total variation
  // across tile boundaries.
  video::Plane plane(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      const bool odd_tile = (((x / 8) + (y / 8)) & 1) != 0;
      plane.set(x, y, odd_tile ? 110 : 100);
    }
  }
  plane.extend_border();
  auto boundary_variation = [](const video::Plane& p) {
    std::uint64_t tv = 0;
    for (int y = 0; y < p.height(); ++y) {
      for (int edge = 8; edge < p.width(); edge += 8) {
        tv += static_cast<std::uint64_t>(
            std::abs(int(p.at(edge - 1, y)) - int(p.at(edge, y))));
      }
    }
    return tv;
  };
  const std::uint64_t before = boundary_variation(plane);
  deblock_plane(plane, 16);
  EXPECT_LT(boundary_variation(plane), before / 2);
}

TEST(DeblockPlane, InteriorOfBlocksUntouchedByFlatContent) {
  video::Plane plane(32, 32);
  plane.fill(77);
  plane.extend_border();
  deblock_plane(plane, 31);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      ASSERT_EQ(plane.at(x, y), 77);
    }
  }
}

TEST(DeblockFrame, FiltersAllThreePlanes) {
  video::Frame frame(32, 32);
  // Step across the 8-boundary in every plane.
  for (auto* plane : {&frame.y(), &frame.cb(), &frame.cr()}) {
    for (int y = 0; y < plane->height(); ++y) {
      for (int x = 0; x < plane->width(); ++x) {
        plane->set(x, y, x < 8 ? 100 : 110);
      }
    }
  }
  frame.extend_borders();
  deblock_frame(frame, 16);
  EXPECT_GT(frame.y().at(7, 4), 100);
  EXPECT_GT(frame.cb().at(7, 4), 100);
  EXPECT_GT(frame.cr().at(7, 4), 100);
}

TEST(DeblockLoop, EncoderDecoderParityWithFilterOn) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = {64, 48};
  req.frame_count = 4;
  const auto frames = synth::make_sequence(req);

  me::Pbm pbm;
  EncoderConfig cfg;
  cfg.qp = 24;
  cfg.search_range = 7;
  cfg.deblock = true;
  Encoder encoder({64, 48}, cfg, pbm);
  std::vector<video::Frame> recons;
  for (const auto& f : frames) {
    (void)encoder.encode_frame(f);
    recons.push_back(encoder.last_recon());
  }
  Decoder decoder(encoder.finish(), DecoderConfig{});
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(decoded[i].y().visible_equals(recons[i].y())) << i;
    EXPECT_TRUE(decoded[i].cb().visible_equals(recons[i].cb())) << i;
  }
}

TEST(DeblockLoop, FlagTravelsPerStream) {
  // A stream encoded without the filter must decode without it (the flag is
  // in the frame header, not guessed from configuration).
  synth::SequenceRequest req;
  req.name = "table";
  req.size = {64, 48};
  req.frame_count = 3;
  const auto frames = synth::make_sequence(req);

  auto encode = [&](bool deblock) {
    me::Pbm pbm;
    EncoderConfig cfg;
    cfg.qp = 28;
    cfg.search_range = 7;
    cfg.deblock = deblock;
    Encoder encoder({64, 48}, cfg, pbm);
    std::vector<video::Frame> recons;
    for (const auto& f : frames) {
      (void)encoder.encode_frame(f);
      recons.push_back(encoder.last_recon());
    }
    auto stream = encoder.finish();
    return std::pair{std::move(stream), std::move(recons)};
  };
  const auto [with, recons_with] = encode(true);
  const auto [without, recons_without] = encode(false);
  EXPECT_FALSE(
      recons_with.back().y().visible_equals(recons_without.back().y()));

  Decoder dec_with(with, DecoderConfig{});
  Decoder dec_without(without, DecoderConfig{});
  EXPECT_TRUE(dec_with.decode_all().back().y().visible_equals(
      recons_with.back().y()));
  EXPECT_TRUE(dec_without.decode_all().back().y().visible_equals(
      recons_without.back().y()));
}

}  // namespace
}  // namespace acbm::codec
