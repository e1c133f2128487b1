// Entropy layer: run/level block coding, differential MV coding and the
// macroblock payload syntax.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "codec/coeff_coding.hpp"
#include "codec/macroblock.hpp"
#include "codec/mv_coding.hpp"
#include "me/cost.hpp"
#include "util/bitstream.hpp"
#include "util/expgolomb.hpp"
#include "util/rng.hpp"

namespace acbm::codec {
namespace {

void expect_blocks_equal(const std::int16_t a[kDctSamples],
                         const std::int16_t b[kDctSamples]) {
  for (int i = 0; i < kDctSamples; ++i) {
    ASSERT_EQ(a[i], b[i]) << "coefficient " << i;
  }
}

TEST(CoeffCoding, EmptyBlockIsJustEob) {
  const std::int16_t levels[kDctSamples] = {};
  util::BitWriter bw;
  encode_block_coeffs(bw, levels);
  EXPECT_EQ(bw.bit_count(),
            static_cast<std::size_t>(util::ue_bit_length(kEob)));
  const auto bytes = bw.take();
  util::BitReader br(bytes);
  std::int16_t out[kDctSamples];
  ASSERT_TRUE(decode_block_coeffs(br, out));
  expect_blocks_equal(levels, out);
}

TEST(CoeffCoding, SingleDcCoefficient) {
  std::int16_t levels[kDctSamples] = {};
  levels[0] = -5;
  util::BitWriter bw;
  encode_block_coeffs(bw, levels);
  const auto bytes = bw.take();
  util::BitReader br(bytes);
  std::int16_t out[kDctSamples];
  ASSERT_TRUE(decode_block_coeffs(br, out));
  expect_blocks_equal(levels, out);
}

TEST(CoeffCoding, TrailingCoefficientPosition63) {
  std::int16_t levels[kDctSamples] = {};
  levels[63] = 3;  // last zig-zag position: run of 63 zeros
  util::BitWriter bw;
  encode_block_coeffs(bw, levels);
  const auto bytes = bw.take();
  util::BitReader br(bytes);
  std::int16_t out[kDctSamples];
  ASSERT_TRUE(decode_block_coeffs(br, out));
  expect_blocks_equal(levels, out);
}

TEST(CoeffCoding, SkipDcExcludesIndexZero) {
  std::int16_t levels[kDctSamples] = {};
  levels[0] = 99;  // must be ignored under skip_dc
  levels[1] = 2;
  util::BitWriter bw;
  encode_block_coeffs(bw, levels, /*skip_dc=*/true);
  const auto bytes = bw.take();
  util::BitReader br(bytes);
  std::int16_t out[kDctSamples];
  ASSERT_TRUE(decode_block_coeffs(br, out, /*skip_dc=*/true));
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 2);
}

TEST(CoeffCoding, BitCountMatchesEncoding) {
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    std::int16_t levels[kDctSamples] = {};
    const int nonzero = static_cast<int>(rng.next_below(20));
    for (int i = 0; i < nonzero; ++i) {
      levels[rng.next_below(kDctSamples)] =
          static_cast<std::int16_t>(rng.next_in_range(-127, 127));
    }
    for (bool skip_dc : {false, true}) {
      util::BitWriter bw;
      encode_block_coeffs(bw, levels, skip_dc);
      EXPECT_EQ(bw.bit_count(), block_coeff_bits(levels, skip_dc));
    }
  }
}

TEST(CoeffCoding, RandomizedRoundTrip) {
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::int16_t levels[kDctSamples] = {};
    const int nonzero = static_cast<int>(rng.next_below(30));
    for (int i = 0; i < nonzero; ++i) {
      std::int16_t v = static_cast<std::int16_t>(rng.next_in_range(-127, 127));
      if (v == 0) {
        v = 1;
      }
      levels[rng.next_below(kDctSamples)] = v;
    }
    util::BitWriter bw;
    encode_block_coeffs(bw, levels);
    const auto bytes = bw.take();
    util::BitReader br(bytes);
    std::int16_t out[kDctSamples];
    ASSERT_TRUE(decode_block_coeffs(br, out));
    expect_blocks_equal(levels, out);
  }
}

TEST(CoeffCoding, SparseBlocksCheaperThanDense) {
  std::int16_t sparse[kDctSamples] = {};
  sparse[0] = 4;
  sparse[1] = -2;
  std::int16_t dense[kDctSamples];
  for (int i = 0; i < kDctSamples; ++i) {
    dense[i] = static_cast<std::int16_t>((i % 5) - 2);
    if (dense[i] == 0) {
      dense[i] = 1;
    }
  }
  EXPECT_LT(block_coeff_bits(sparse), block_coeff_bits(dense) / 4);
}

TEST(CoeffCoding, BlockHasCoeffsRespectsSkipDc) {
  std::int16_t levels[kDctSamples] = {};
  EXPECT_FALSE(block_has_coeffs(levels));
  levels[0] = 7;
  EXPECT_TRUE(block_has_coeffs(levels));
  EXPECT_FALSE(block_has_coeffs(levels, /*skip_dc=*/true));
  levels[13] = -1;
  EXPECT_TRUE(block_has_coeffs(levels, /*skip_dc=*/true));
}

TEST(CoeffCoding, DecodeRejectsTruncatedStream) {
  std::int16_t levels[kDctSamples] = {};
  levels[5] = 3;
  util::BitWriter bw;
  encode_block_coeffs(bw, levels);
  auto bytes = bw.take();
  bytes.resize(bytes.size() / 2);  // chop the stream
  // Either decode fails outright or the reader reports exhaustion — a
  // truncated block must never silently decode to valid data.
  util::BitReader br(bytes);
  std::int16_t out[kDctSamples];
  const bool ok = decode_block_coeffs(br, out);
  EXPECT_TRUE(!ok || br.exhausted());
}

TEST(MvCoding, RoundTripAgainstPredictors) {
  util::Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const me::Mv mv{rng.next_in_range(-30, 30), rng.next_in_range(-30, 30)};
    const me::Mv pred{rng.next_in_range(-30, 30), rng.next_in_range(-30, 30)};
    util::BitWriter bw;
    encode_mvd(bw, mv, pred);
    EXPECT_EQ(bw.bit_count(), mvd_bits(mv, pred));
    const auto bytes = bw.take();
    util::BitReader br(bytes);
    EXPECT_EQ(decode_mvd(br, pred), mv);
  }
}

TEST(MvCoding, PredictedVectorCostsTwoBits) {
  const me::Mv mv{12, -8};
  EXPECT_EQ(mvd_bits(mv, mv), 2u);
}

TEST(MvCoding, RateMatchesSearchSideModel) {
  // codec::mvd_bits and me::mv_rate_bits must be the same function — the
  // search optimises exactly what the encoder transmits.
  for (int dx = -20; dx <= 20; dx += 3) {
    for (int dy = -20; dy <= 20; dy += 3) {
      EXPECT_EQ(mvd_bits({dx, dy}, {1, -1}),
                me::mv_rate_bits({dx, dy}, {1, -1}));
    }
  }
}

// A macroblock whose coded blocks (cbp bits) hold up to `density` random
// nonzero levels each and whose uncoded blocks are zero, as a reader
// reproduces them. Intra blocks keep index 0 clear (DC travels in dc[]).
MbLevels random_mb(util::Rng& rng, std::uint32_t cbp, int density,
                   bool intra) {
  MbLevels mb{};
  mb.cbp = cbp;
  for (int b = 0; b < kMbBlocks; ++b) {
    mb.dc[b] = static_cast<std::uint8_t>(rng.next_below(256));
    if (((cbp >> b) & 1u) == 0) {
      continue;
    }
    for (int i = 0; i < density; ++i) {
      const int pos =
          intra ? 1 + static_cast<int>(rng.next_below(kDctSamples - 1))
                : static_cast<int>(rng.next_below(kDctSamples));
      const auto v = static_cast<std::int16_t>(rng.next_in_range(-127, 127));
      mb.levels[b][pos] = v == 0 ? 1 : v;
    }
  }
  return mb;
}

void expect_mbs_equal(const MbLevels& a, const MbLevels& b, bool intra) {
  ASSERT_EQ(a.cbp, b.cbp);
  for (int blk = 0; blk < kMbBlocks; ++blk) {
    if (intra) {
      ASSERT_EQ(a.dc[blk], b.dc[blk]) << "block " << blk;
    }
    for (int i = intra ? 1 : 0; i < kDctSamples; ++i) {
      ASSERT_EQ(a.levels[blk][i], b.levels[blk][i])
          << "block " << blk << " coefficient " << i;
    }
  }
}

std::vector<std::uint8_t> write_payload(const MbLevels& mb, bool intra) {
  util::BitWriter bw;
  if (intra) {
    write_intra_payload(bw, mb);
  } else {
    write_inter_body(bw, mb);
  }
  return bw.take();
}

TEST(MacroblockSyntax, BitCountsMatchWrittenBits) {
  util::Rng rng(11);
  for (const bool intra : {true, false}) {
    // All-zero, a sparse pattern and dense blocks in every position.
    for (const auto& [cbp, density] :
         {std::pair{0u, 0}, std::pair{0b100101u, 3}, std::pair{0x3fu, 64}}) {
      const MbLevels mb = random_mb(rng, cbp, density, intra);
      util::BitWriter bw;
      if (intra) {
        write_intra_payload(bw, mb);
        EXPECT_EQ(bw.bit_count(), intra_payload_bits(mb)) << cbp;
      } else {
        write_inter_body(bw, mb);
        EXPECT_EQ(bw.bit_count(), inter_body_bits(mb)) << cbp;
      }
    }
  }
  const MbLevels empty{};
  EXPECT_EQ(intra_payload_bits(empty), 6u * 8u + 6u);
  EXPECT_EQ(inter_body_bits(empty), 6u);
}

TEST(MacroblockSyntax, ReadBackReproducesLevels) {
  util::Rng rng(12);
  for (const bool intra : {true, false}) {
    for (int trial = 0; trial < 50; ++trial) {
      const auto cbp = static_cast<std::uint32_t>(rng.next_below(64));
      const MbLevels mb =
          random_mb(rng, cbp, 1 + static_cast<int>(rng.next_below(40)), intra);
      const std::vector<std::uint8_t> bytes = write_payload(mb, intra);
      util::BitReader br(bytes);
      MbLevels out;
      // Stale contents must not leak into the blocks the CBP leaves out.
      std::fill_n(&out.levels[0][0], kMbBlocks * kDctSamples,
                  std::int16_t{9});
      ASSERT_TRUE(intra ? read_intra_payload(br, out)
                        : read_inter_body(br, out));
      EXPECT_FALSE(br.exhausted());
      expect_mbs_equal(mb, out, intra);
    }
  }
}

TEST(MacroblockSyntax, TruncatedPayloadReadsBackFalse) {
  util::Rng rng(13);
  for (const bool intra : {true, false}) {
    const MbLevels mb = random_mb(rng, 0x3f, 64, intra);
    std::vector<std::uint8_t> bytes = write_payload(mb, intra);
    bytes.resize(bytes.size() / 2);
    util::BitReader br(bytes);
    MbLevels out;
    EXPECT_FALSE(intra ? read_intra_payload(br, out)
                       : read_inter_body(br, out));
  }
}

}  // namespace
}  // namespace acbm::codec
