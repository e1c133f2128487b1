// Motion compensation: predict_block against the per-sample oracle on every
// phase out to the last readable border sample, the luma and chroma
// forwards, chroma vector derivation (H.263 rounding table), the
// block-codec pipeline and the macroblock sample paths.

#include "codec/mc.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "codec/block_codec.hpp"
#include "codec/macroblock.hpp"
#include "codec/quant.hpp"
#include "simd/dispatch.hpp"
#include "test_support.hpp"

namespace acbm::codec {
namespace {

// Every sample random, border included: a border that does not replicate
// its edge makes a read one sample off (or one row off) show.
video::Plane random_bordered_plane(int w, int h, int border,
                                   std::uint64_t seed) {
  video::Plane p(w, h, border);
  util::Rng rng(seed);
  for (int y = -border; y < h + border; ++y) {
    for (int x = -border; x < w + border; ++x) {
      p.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
    }
  }
  return p;
}

TEST(PredictBlock, EveryPhaseMatchesTheOracleOutToTheBorder) {
  // A luma-sized plane with the default border and a chroma-sized one with
  // an odd, smaller border. Each block's read footprint
  // [rx, rx + size + phase_h) × [ry, ry + size + phase_v) is placed at the
  // first readable sample, one inside it, the picture origin, one inside
  // the last readable sample and at the last, on both axes.
  struct PlaneCase {
    int w, h, border;
  };
  int blocks = 0;
  for (const PlaneCase c : {PlaneCase{64, 48, 24}, PlaneCase{32, 24, 13}}) {
    const video::Plane ref =
        random_bordered_plane(c.w, c.h, c.border, 100 + c.border);
    for (const int size : {16, 8}) {
      for (int phase = 0; phase < 4; ++phase) {
        const int ph = phase & 1;
        const int pv = phase >> 1;
        const int lo = -c.border;
        const int hi_x = c.w + c.border - size - ph;
        const int hi_y = c.h + c.border - size - pv;
        for (const int rx : {lo, lo + 1, 0, hi_x - 1, hi_x}) {
          for (const int ry : {lo, lo + 1, 0, hi_y - 1, hi_y}) {
            // Place the block at either corner of the picture; the vector
            // carries it to (rx, ry).
            for (const int x : {0, c.w - size}) {
              const int y = x == 0 ? 0 : c.h - size;
              const me::Mv mv{2 * (rx - x) + ph, 2 * (ry - y) + pv};
              std::uint8_t dst[16 * 16];
              predict_block(ref, x, y, mv, size, size, dst, size);
              for (int row = 0; row < size; ++row) {
                for (int col = 0; col < size; ++col) {
                  ASSERT_EQ(dst[row * size + col],
                            acbm::test::sample_halfpel(
                                ref, (x + col) * 2 + mv.x,
                                (y + row) * 2 + mv.y))
                      << c.w << "x" << c.h << " size " << size << " mv ("
                      << mv.x << "," << mv.y << ") at (" << col << ","
                      << row << ")";
                }
              }
              ++blocks;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(blocks, 2 * 2 * 4 * 5 * 5 * 2);
}

#ifndef NDEBUG
// Plane::row() bounds only the row index it is given, so neither overrun
// below trips it: one column past the right border (which stays inside the
// plane's storage, where ASan cannot see it either), and the interpolation
// row one past the bottom border. Only predict_block's footprint assert
// catches them.
TEST(PredictBlockDeathTest, ReadPastTheBorderAsserts) {
  const video::Plane ref = random_bordered_plane(32, 24, 4, 7);
  std::uint8_t dst[8 * 8];
  predict_block(ref, 24, 8, {7, 0}, 8, 8, dst, 8);  // last column: fine
  EXPECT_DEATH(predict_block(ref, 24, 8, {9, 0}, 8, 8, dst, 8), "");
  predict_block(ref, 8, 16, {0, 7}, 8, 8, dst, 8);  // last row: fine
  EXPECT_DEATH(predict_block(ref, 8, 16, {0, 9}, 8, 8, dst, 8), "");
}
#endif

TEST(PredictLuma, IntegerVectorCopiesBlock) {
  const video::Plane ref = acbm::test::random_plane(64, 48, 1);
  const video::HalfpelPlanes hp(ref);
  std::uint8_t dst[16 * 16];
  predict_luma(hp, 16, 16, me::mv_from_fullpel(3, -2), 16, 16, dst, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      ASSERT_EQ(dst[y * 16 + x], ref.at(16 + x + 3, 16 + y - 2));
    }
  }
}

TEST(PredictLuma, HalfpelVectorInterpolates) {
  const video::Plane ref = acbm::test::random_plane(64, 48, 2);
  const video::HalfpelPlanes hp(ref);
  std::uint8_t dst[8 * 8];
  predict_luma(hp, 24, 24, {5, 1}, 8, 8, dst, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      ASSERT_EQ(dst[y * 8 + x],
                acbm::test::sample_halfpel(ref, (24 + x) * 2 + 5,
                                           (24 + y) * 2 + 1));
    }
  }
}

TEST(PredictLuma, NegativeVectorReadsBorder) {
  video::Plane ref(32, 32);
  ref.fill(77);
  ref.extend_border();
  const video::HalfpelPlanes hp(ref);
  std::uint8_t dst[16 * 16];
  predict_luma(hp, 0, 0, me::mv_from_fullpel(-15, -15), 16, 16, dst, 16);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(dst[i], 77);
  }
}

TEST(DeriveChromaMv, H263RoundingTable) {
  // luma half-pel → chroma half-pel: fraction {1,2,3}/4 all map to 1/2.
  EXPECT_EQ(derive_chroma_mv({0, 0}), (me::Mv{0, 0}));
  EXPECT_EQ(derive_chroma_mv({4, 0}), (me::Mv{2, 0}));   // +2 luma → +1 chroma
  EXPECT_EQ(derive_chroma_mv({1, 0}), (me::Mv{1, 0}));   // ¼ → ½
  EXPECT_EQ(derive_chroma_mv({2, 0}), (me::Mv{1, 0}));   // ½ → ½
  EXPECT_EQ(derive_chroma_mv({3, 0}), (me::Mv{1, 0}));   // ¾ → ½
  EXPECT_EQ(derive_chroma_mv({5, 0}), (me::Mv{3, 0}));   // 1¼ → 1½
  EXPECT_EQ(derive_chroma_mv({0, -1}), (me::Mv{0, -1}));
  EXPECT_EQ(derive_chroma_mv({0, -4}), (me::Mv{0, -2}));
  EXPECT_EQ(derive_chroma_mv({-6, 7}), (me::Mv{-3, 3}));
}

TEST(DeriveChromaMv, OddSymmetry) {
  for (int v = -30; v <= 30; ++v) {
    EXPECT_EQ(derive_chroma_mv({v, 0}).x, -derive_chroma_mv({-v, 0}).x);
  }
}

TEST(PredictChroma, IntegerChromaVectorCopies) {
  const video::Plane ref = acbm::test::random_plane(32, 24, 3);
  std::uint8_t dst[8 * 8];
  predict_chroma(ref, 8, 8, {4, -2}, 8, 8, dst, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      ASSERT_EQ(dst[y * 8 + x], ref.at(8 + x + 2, 8 + y - 1));
    }
  }
}

TEST(PredictChroma, HalfSampleInterpolates) {
  const video::Plane ref = acbm::test::random_plane(32, 24, 4);
  std::uint8_t dst[4 * 4];
  predict_chroma(ref, 8, 8, {1, 1}, 4, 4, dst, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      ASSERT_EQ(dst[y * 4 + x],
                acbm::test::sample_halfpel(ref, (8 + x) * 2 + 1,
                                           (8 + y) * 2 + 1));
    }
  }
}

TEST(BlockCodec, IntraRoundTripCloseToSource) {
  const video::Plane src = acbm::test::random_plane(16, 16, 5);
  std::int16_t levels[kDctSamples];
  const std::uint8_t dc = encode_intra_block(src.row(0), src.stride(),
                                             levels, /*qp=*/4);
  video::Plane rec(16, 16);
  reconstruct_intra_block(levels, dc, 4, rec.row(0), rec.stride());
  // Max per-sample error bounded by quantizer noise across 64 coefficients;
  // at qp=4 a generous bound is ±32.
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      ASSERT_NEAR(int(rec.at(x, y)), int(src.at(x, y)), 32);
    }
  }
}

TEST(BlockCodec, IntraFlatBlockNearExact) {
  video::Plane src(8, 8);
  src.fill(137);
  std::int16_t levels[kDctSamples];
  const std::uint8_t dc =
      encode_intra_block(src.row(0), src.stride(), levels, 8);
  EXPECT_EQ(dc, 137);  // DC = 8·137/8
  video::Plane rec(8, 8);
  reconstruct_intra_block(levels, dc, 8, rec.row(0), rec.stride());
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      ASSERT_NEAR(int(rec.at(x, y)), 137, 1);
    }
  }
}

TEST(BlockCodec, InterZeroResidualGivesZeroLevels) {
  const video::Plane src = acbm::test::random_plane(8, 8, 6);
  std::int16_t levels[kDctSamples];
  std::uint8_t pred[64];
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      pred[y * 8 + x] = src.at(x, y);
    }
  }
  encode_inter_block(src.row(0), src.stride(), pred, 8, levels, 10);
  for (int i = 0; i < kDctSamples; ++i) {
    ASSERT_EQ(levels[i], 0);
  }
}

TEST(BlockCodec, InterReconstructionImprovesOnPrediction) {
  const video::Plane src = acbm::test::random_plane(8, 8, 7);
  video::Plane pred_plane(8, 8);
  pred_plane.fill(128);
  std::uint8_t pred[64];
  for (int i = 0; i < 64; ++i) {
    pred[i] = 128;
  }
  std::int16_t levels[kDctSamples];
  encode_inter_block(src.row(0), src.stride(), pred, 8, levels, 4);
  video::Plane rec(8, 8);
  reconstruct_inter_block(levels, pred, 8, 4, rec.row(0), rec.stride());
  std::uint64_t err_pred = 0;
  std::uint64_t err_rec = 0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      err_pred += std::abs(int(src.at(x, y)) - 128);
      err_rec += std::abs(int(src.at(x, y)) - int(rec.at(x, y)));
    }
  }
  EXPECT_LT(err_rec, err_pred / 2);
}

TEST(BlockCodec, InterSkipEquivalence) {
  // All-zero levels (the SKIP path) must reproduce the prediction exactly.
  // reconstruct_inter_block short-cuts them to a copy of pred, so the
  // result must also equal the full dequant → IDCT → clamp path under every
  // kernel table, at the sample extremes 0 and 255 and on a ramp.
  const std::int16_t levels[kDctSamples] = {};
  for (simd::KernelIsa isa : {simd::KernelIsa::kScalar, simd::KernelIsa::kSse2,
                              simd::KernelIsa::kAvx2}) {
    if (!simd::select_kernels(isa)) {
      continue;
    }
    for (int fill : {0, 255, -1}) {
      std::uint8_t pred[kDctSamples];
      for (int i = 0; i < kDctSamples; ++i) {
        pred[i] = static_cast<std::uint8_t>(fill >= 0 ? fill : i * 3);
      }
      for (int qp : {1, 16, 31}) {
        std::int16_t coeffs[kDctSamples];
        std::int16_t residual[kDctSamples];
        dequantize_block(levels, coeffs, qp, /*intra=*/false);
        inverse_dct8x8_to_int(coeffs, residual, /*limit=*/512);
        std::uint8_t dst[kDctSamples];
        reconstruct_inter_block(levels, pred, 8, qp, dst, 8);
        for (int i = 0; i < kDctSamples; ++i) {
          ASSERT_EQ(dst[i], pred[i]) << simd::active_kernel_name();
          ASSERT_EQ(dst[i], std::clamp(pred[i] + residual[i], 0, 255))
              << simd::active_kernel_name();
        }
      }
    }
  }
  simd::select_kernels(simd::KernelIsa::kAuto);
}

video::Frame random_frame(int w, int h, std::uint64_t seed) {
  video::Frame frame(w, h);
  frame.y() = acbm::test::random_plane(w, h, seed);
  frame.cb() = acbm::test::random_plane(w / 2, h / 2, seed + 1);
  frame.cr() = acbm::test::random_plane(w / 2, h / 2, seed + 2);
  return frame;
}

// Every sample 7, so a check can tell which samples a write touched.
video::Frame sentinel_frame(int w, int h) {
  video::Frame frame(w, h);
  frame.y().fill(7);
  frame.cb().fill(7);
  frame.cr().fill(7);
  return frame;
}

// Macroblock (bx, by) of `frame` equals `buffer` sample for sample, and
// every sample outside it still holds `outside`.
void expect_frame_mb_equals(const video::Frame& frame, int bx, int by,
                            const MbBuffer& buffer, std::uint8_t outside) {
  const auto check = [&](const video::Plane& plane, const std::uint8_t* mb,
                         int size) {
    for (int y = 0; y < plane.height(); ++y) {
      for (int x = 0; x < plane.width(); ++x) {
        const bool inside = x / size == bx && y / size == by;
        ASSERT_EQ(plane.at(x, y),
                  inside ? mb[(y % size) * size + x % size] : outside)
            << "(" << x << ", " << y << ")";
      }
    }
  };
  check(frame.y(), buffer.y, kMbSize);
  check(frame.cb(), buffer.cb, kMbSize / 2);
  check(frame.cr(), buffer.cr, kMbSize / 2);
}

TEST(Macroblock, IntraReconstructionIsTheSameInBufferAndFrame) {
  const video::Frame src = random_frame(64, 48, 21);
  for (const int qp : {2, 16, 31}) {
    MbLevels mb;
    encode_intra_mb(src, 2, 1, qp, mb);
    MbBuffer buffer;
    reconstruct_intra_mb(mb, qp, MbSamples(buffer));
    video::Frame frame = sentinel_frame(64, 48);
    reconstruct_intra_mb(mb, qp, MbSamples(frame, 2, 1));
    expect_frame_mb_equals(frame, 2, 1, buffer, 7);
  }
}

TEST(Macroblock, InterReconstructionIsTheSameInBufferAndFrame) {
  const video::Frame src = random_frame(64, 48, 31);
  const video::Frame ref = random_frame(64, 48, 41);
  for (const me::Mv mv : {me::Mv{0, 0}, me::Mv{5, -3}, me::Mv{-8, 7}}) {
    MbBuffer pred;
    predict_mb(ref, 1, 1, mv, pred);
    MbLevels mb;
    encode_inter_mb(src, 1, 1, pred, 6, mb);
    MbBuffer buffer;
    reconstruct_inter_mb(mb, pred, 6, MbSamples(buffer));
    video::Frame frame = sentinel_frame(64, 48);
    reconstruct_inter_mb(mb, pred, 6, MbSamples(frame, 1, 1));
    expect_frame_mb_equals(frame, 1, 1, buffer, 7);
  }
}

TEST(Macroblock, CopyMbCopiesTheReferenceMacroblock) {
  const video::Frame ref = random_frame(64, 48, 51);
  MbBuffer buffer;
  copy_mb(ref, 3, 2, MbSamples(buffer));
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      ASSERT_EQ(buffer.y[y * kMbSize + x], ref.y().at(48 + x, 32 + y));
    }
  }
  for (int y = 0; y < kMbSize / 2; ++y) {
    for (int x = 0; x < kMbSize / 2; ++x) {
      ASSERT_EQ(buffer.cb[y * 8 + x], ref.cb().at(24 + x, 16 + y));
      ASSERT_EQ(buffer.cr[y * 8 + x], ref.cr().at(24 + x, 16 + y));
    }
  }
  video::Frame frame = sentinel_frame(64, 48);
  copy_mb(ref, 3, 2, MbSamples(frame, 3, 2));
  expect_frame_mb_equals(frame, 3, 2, buffer, 7);
}

}  // namespace
}  // namespace acbm::codec
