// Encoder behaviour: frame types, rate/quality trends, SKIP economics,
// bit accounting, and configuration validation. (Decoder parity is covered
// in codec_roundtrip_test.cpp.)

#include "codec/encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/acbm.hpp"
#include "me/full_search.hpp"
#include "me/pbm.hpp"
#include "synth/sequences.hpp"
#include "video/psnr.hpp"
#include "test_support.hpp"

namespace acbm::codec {
namespace {

std::vector<video::Frame> small_sequence(int frames, int fps = 30) {
  synth::SequenceRequest req;
  req.name = "carphone";
  req.size = {64, 48};  // small for fast tests
  req.frame_count = frames;
  req.fps = fps;
  return synth::make_sequence(req);
}

EncoderConfig config_with(int qp, int range = 7) {
  EncoderConfig c;
  c.qp = qp;
  c.search_range = range;
  return c;
}

TEST(Encoder, RejectsBadGeometryAndQp) {
  me::Pbm pbm;
  EXPECT_THROW(Encoder({60, 48}, config_with(16), pbm),
               std::invalid_argument);
  EXPECT_THROW(Encoder({64, 48}, config_with(0), pbm), std::invalid_argument);
  EXPECT_THROW(Encoder({64, 48}, config_with(32), pbm),
               std::invalid_argument);
}

TEST(Encoder, FirstFrameIsIntra) {
  const auto frames = small_sequence(2);
  me::Pbm pbm;
  Encoder enc({64, 48}, config_with(10), pbm);
  const FrameReport r0 = enc.encode_frame(frames[0]);
  EXPECT_TRUE(r0.intra);
  EXPECT_EQ(r0.intra_mbs, (64 / 16) * (48 / 16));
  EXPECT_EQ(r0.inter_mbs, 0);
  EXPECT_EQ(r0.me_positions, 0u);
  const FrameReport r1 = enc.encode_frame(frames[1]);
  EXPECT_FALSE(r1.intra);
  EXPECT_GT(r1.me_positions, 0u);
}

TEST(Encoder, IntraPeriodForcesRefreshes) {
  const auto frames = small_sequence(5);
  me::Pbm pbm;
  EncoderConfig cfg = config_with(12);
  cfg.intra_period = 2;
  Encoder enc({64, 48}, cfg, pbm);
  std::vector<bool> intra;
  for (const auto& f : frames) {
    intra.push_back(enc.encode_frame(f).intra);
  }
  EXPECT_EQ(intra, (std::vector<bool>{true, false, true, false, true}));
}

TEST(Encoder, LowerQpMoreBitsBetterPsnr) {
  const auto frames = small_sequence(4);
  std::uint64_t bits_hi_qp = 0;
  std::uint64_t bits_lo_qp = 0;
  double psnr_hi_qp = 0.0;
  double psnr_lo_qp = 0.0;
  for (const int qp : {28, 6}) {
    me::Pbm pbm;
    Encoder enc({64, 48}, config_with(qp), pbm);
    std::uint64_t bits = 0;
    double psnr = 0.0;
    for (const auto& f : frames) {
      const FrameReport r = enc.encode_frame(f);
      bits += r.bits;
      psnr += r.psnr_y;
    }
    if (qp == 28) {
      bits_hi_qp = bits;
      psnr_hi_qp = psnr;
    } else {
      bits_lo_qp = bits;
      psnr_lo_qp = psnr;
    }
  }
  EXPECT_GT(bits_lo_qp, bits_hi_qp);
  EXPECT_GT(psnr_lo_qp, psnr_hi_qp);
}

TEST(Encoder, StaticSceneSkipsAlmostEverything) {
  // Identical frames: after the intra frame every MB is COD=1 (1 bit).
  video::Frame still(64, 48);
  still.y() = acbm::test::random_plane(64, 48, 1);
  still.extend_borders();
  me::FullSearch fsbm;
  Encoder enc({64, 48}, config_with(16), fsbm);
  const FrameReport r0 = enc.encode_frame(still);
  const FrameReport r = enc.encode_frame(still);
  EXPECT_EQ(r.skip_mbs, 12);
  EXPECT_EQ(r.inter_mbs, 0);
  // Frame cost ≈ sync+header+12 COD bits, byte-aligned.
  EXPECT_LT(r.bits, 64u);
  // Skipped MBs copy the previous reconstruction, so quality is exactly the
  // intra frame's quality — no drift.
  EXPECT_NEAR(r.psnr_y, r0.psnr_y, 1e-9);
}

TEST(Encoder, SkipDisabledStillCodes) {
  video::Frame still(64, 48);
  still.y() = acbm::test::random_plane(64, 48, 2);
  still.extend_borders();
  me::FullSearch fsbm;
  EncoderConfig cfg = config_with(16);
  cfg.allow_skip = false;
  Encoder enc({64, 48}, cfg, fsbm);
  (void)enc.encode_frame(still);
  const FrameReport r = enc.encode_frame(still);
  EXPECT_EQ(r.skip_mbs, 0);
  EXPECT_EQ(r.inter_mbs, 12);
}

TEST(Encoder, BitCategoriesSumToTotal) {
  const auto frames = small_sequence(3);
  me::FullSearch fsbm;
  Encoder enc({64, 48}, config_with(14), fsbm);
  for (const auto& f : frames) {
    const FrameReport r = enc.encode_frame(f);
    // Alignment padding (≤7 bits/frame) is the only uncategorised residue.
    EXPECT_LE(r.header_bits + r.mv_bits + r.coeff_bits, r.bits);
    EXPECT_GE(r.header_bits + r.mv_bits + r.coeff_bits + 7, r.bits);
  }
}

TEST(Encoder, ReportsFullSearchBlocks) {
  const auto frames = small_sequence(2);
  me::FullSearch fsbm;
  Encoder enc({64, 48}, config_with(16), fsbm);
  (void)enc.encode_frame(frames[0]);
  const FrameReport r = enc.encode_frame(frames[1]);
  EXPECT_EQ(r.full_search_blocks, 12u);  // FSBM runs on every MB
  // Test config uses p = 7: (2·7+1)² + 8 half-pel candidates per MB.
  EXPECT_EQ(r.me_positions, 12u * ((7 * 2 + 1) * (7 * 2 + 1) + 8));
}

// FSBM rows prune with their block-sum band: the positions keep Table 1's
// count while most SADs are skipped, the same at any thread count. ACBM
// takes no band, so it computes a SAD for every position.
TEST(Encoder, ReportsSadEvaluations) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.frame_count = 3;
  const std::vector<video::Frame> frames = synth::make_sequence(req);
  std::vector<std::uint64_t> fsbm_sads;
  for (const int threads : {1, 4}) {
    me::FullSearch fsbm;
    EncoderConfig cfg = config_with(16, 15);
    cfg.parallel.threads = threads;
    Encoder enc(video::kQcif, cfg, fsbm);
    std::uint64_t positions = 0;
    std::uint64_t sads = 0;
    for (const auto& f : frames) {
      const FrameReport r = enc.encode_frame(f);
      positions += r.me_positions;
      sads += r.me_sad_evaluations;
    }
    EXPECT_EQ(positions, 2u * 99u * 969u);
    EXPECT_LT(2 * sads, positions);
    fsbm_sads.push_back(sads);
  }
  EXPECT_EQ(fsbm_sads[0], fsbm_sads[1]);

  core::Acbm acbm;
  Encoder enc(video::kQcif, config_with(16, 15), acbm);
  for (const auto& f : frames) {
    const FrameReport r = enc.encode_frame(f);
    EXPECT_EQ(r.me_sad_evaluations, r.me_positions);
  }
}

TEST(Encoder, PbmUsesFarFewerPositionsThanFsbm) {
  const auto frames = small_sequence(3);
  std::uint64_t positions_fsbm = 0;
  std::uint64_t positions_pbm = 0;
  {
    me::FullSearch fsbm;
    Encoder enc({64, 48}, config_with(16), fsbm);
    for (const auto& f : frames) {
      positions_fsbm += enc.encode_frame(f).me_positions;
    }
  }
  {
    me::Pbm pbm;
    Encoder enc({64, 48}, config_with(16), pbm);
    for (const auto& f : frames) {
      positions_pbm += enc.encode_frame(f).me_positions;
    }
  }
  EXPECT_LT(positions_pbm * 5, positions_fsbm);
}

TEST(Encoder, MeFieldExposedAndSized) {
  const auto frames = small_sequence(2);
  me::Pbm pbm;
  Encoder enc({64, 48}, config_with(16), pbm);
  (void)enc.encode_frame(frames[0]);
  (void)enc.encode_frame(frames[1]);
  EXPECT_EQ(enc.last_me_field().mbs_x(), 4);
  EXPECT_EQ(enc.last_me_field().mbs_y(), 3);
  EXPECT_EQ(enc.last_coded_field().mbs_x(), 4);
}

TEST(Encoder, ReconstructionMatchesReportedPsnr) {
  const auto frames = small_sequence(2);
  me::Pbm pbm;
  Encoder enc({64, 48}, config_with(8), pbm);
  const FrameReport r = enc.encode_frame(frames[0]);
  EXPECT_EQ(video::psnr_luma(frames[0], enc.last_recon()), r.psnr_y);
}

TEST(Encoder, FinishProducesMagicHeader) {
  me::Pbm pbm;
  Encoder enc({64, 48}, config_with(16), pbm);
  const auto bytes = enc.finish();
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes[0], 'A');
  EXPECT_EQ(bytes[1], 'C');
  EXPECT_EQ(bytes[2], 'V');
  EXPECT_EQ(bytes[3], '1');
  EXPECT_EQ((bytes[4] << 8) | bytes[5], 64);
  EXPECT_EQ((bytes[6] << 8) | bytes[7], 48);
}

TEST(Encoder, AcbmStatsVisibleThroughBorrowedEstimator) {
  const auto frames = small_sequence(3);
  core::Acbm acbm;
  Encoder enc({64, 48}, config_with(16), acbm);
  for (const auto& f : frames) {
    (void)enc.encode_frame(f);
  }
  EXPECT_EQ(acbm.stats().blocks, 2u * 12u);  // two P frames × 12 MBs
  EXPECT_GT(acbm.stats().total_positions, 0u);
}

}  // namespace
}  // namespace acbm::codec
