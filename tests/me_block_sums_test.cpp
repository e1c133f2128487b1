// Multilevel successive elimination for full search: the band's 8×8 sums
// equal brute force at every origin, its bound lies between the 16×16 sum
// bound and the SAD, FullSearch pruned with it returns the exhaustive scan's
// vector, SAD and positions exactly, positions keep their Table 1 meaning
// (the window plus the half-pel probes), and the SADs it computes on fixed
// input are pinned.

#include "me/block_sums.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "me/full_search.hpp"
#include "me/sad.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"

namespace acbm::me {
namespace {

using acbm::test::SearchFixture;

constexpr int kSub = BlockSumBand::kSubSide;

std::uint32_t brute_sum(const video::Plane& p, int x, int y, int side) {
  std::uint32_t sum = 0;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      sum += p.at(x + c, y + r);
    }
  }
  return sum;
}

// (a) Every 8×8 origin of the band, border rows and columns included, and
// the +8 reach of a candidate's right and bottom sub-blocks.
TEST(BlockSumBand, EqualsBruteForceAtEveryOrigin) {
  struct Size {
    int w, h;
  };
  for (const Size size : {Size{176, 144}, Size{352, 288}}) {
    const video::Plane ref = test::random_plane(size.w, size.h, 11 + size.w);
    const int last_row = size.h - kBlockSize;
    for (const int p : {4, 7, 15, 16}) {
      BlockSumBand band;
      // Top and bottom rows read the replicated border; one interior row.
      for (const int block_y : {0, kBlockSize, last_row / 2 / kBlockSize *
                                                   kBlockSize,
                                last_row}) {
        band.build(ref, block_y, p);
        int mismatches = 0;
        for (int y = block_y - p; y <= block_y + p + kSub; ++y) {
          for (int x = -p; x <= size.w - kSub + p; ++x) {
            if (band.at(x, y)[0] != brute_sum(ref, x, y, kSub) &&
                ++mismatches <= 5) {
              ADD_FAILURE() << size.w << "x" << size.h << " p=" << p
                            << " row " << block_y << " origin (" << x << ","
                            << y << ")";
            }
          }
        }
        EXPECT_EQ(mismatches, 0);
      }
    }
  }
}

// The multilevel bound of every candidate of a row: at least the 16×16 sum
// bound, at most the SAD, and the returned least is the row's smallest.
TEST(BlockSumBand, BoundLiesBetweenSumBoundAndSad) {
  constexpr int kRange = 15;
  // Unrelated planes, and a shifted copy, where the bounds get close to the
  // SAD (and reach it at the true displacement).
  std::vector<std::pair<video::Plane, video::Plane>> planes;
  planes.emplace_back(test::random_plane(176, 144, 41),
                      test::random_plane(176, 144, 42));
  planes.push_back(test::shifted_pair(176, 144, 2, -1, 43));
  BlockSumBand band;
  std::uint16_t out[2 * kRange + 1 + BlockSumBand::kLanes];
  for (auto& [ref, cur] : planes) {
    ref.extend_border();
    for (const int by : {0, 64, 128}) {
      band.build(ref, by, kRange);
      for (const int bx : {0, 80, 160}) {
        const BlockSumBand::QuadSums quads =
            BlockSumBand::quad_sums(cur, bx, by);
        std::uint32_t quad_total = 0;
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(quads[static_cast<std::size_t>(i)],
                    brute_sum(cur, bx + (i & 1) * kSub,
                              by + (i >> 1) * kSub, kSub));
          quad_total += quads[static_cast<std::size_t>(i)];
        }
        for (int dy = -kRange; dy <= kRange; ++dy) {
          const std::uint16_t least = band.bounds(
              quads, bx - kRange, by + dy, 2 * kRange + 1, out);
          std::uint16_t want_least = 0xFFFF;
          for (int dx = -kRange; dx <= kRange; ++dx) {
            const int rx = bx + dx;
            const int ry = by + dy;
            const std::uint32_t lb = out[dx + kRange];
            const auto sum_bound = static_cast<std::uint32_t>(std::abs(
                static_cast<int>(quad_total) -
                static_cast<int>(brute_sum(ref, rx, ry, kBlockSize))));
            EXPECT_LE(sum_bound, lb) << "(" << rx << "," << ry << ")";
            EXPECT_LE(lb, sad_block(cur, bx, by, ref, rx, ry, kBlockSize,
                                    kBlockSize))
                << "(" << rx << "," << ry << ")";
            want_least = std::min(want_least, out[dx + kRange]);
          }
          EXPECT_EQ(least, want_least) << "row " << by + dy;
        }
      }
    }
  }
}

// The largest bound, a 0-valued block against a 255-valued reference, is
// exactly 4 · 64 · 255 = 65,280: uint16 holds it without wrapping.
TEST(BlockSumBand, SaturatedBoundDoesNotWrap) {
  constexpr int kRange = 16;
  video::Plane ref(352, 288);
  ref.fill(255);
  ref.extend_border();
  video::Plane cur(352, 288);
  cur.fill(0);
  cur.extend_border();
  BlockSumBand band;
  std::uint16_t out[2 * kRange + 1 + BlockSumBand::kLanes];
  const BlockSumBand::QuadSums quads = BlockSumBand::quad_sums(cur, 336, 272);
  EXPECT_EQ(quads, (BlockSumBand::QuadSums{0, 0, 0, 0}));
  band.build(ref, 272, kRange);
  for (int dy = -kRange; dy <= kRange; ++dy) {
    EXPECT_EQ(band.bounds(quads, 336 - kRange, 272 + dy, 2 * kRange + 1, out),
              65280);
    for (int k = 0; k <= 2 * kRange; ++k) {
      ASSERT_EQ(out[k], 65280) << "row " << dy << " candidate " << k;
    }
  }
  EXPECT_EQ(band.at(-kRange, 272 - kRange)[0], 64 * 255);
}

TEST(BlockSumBand, CoversExactlyTheRowsWindows) {
  const video::Plane ref = test::random_plane(176, 144, 3);
  BlockSumBand band;
  band.build(ref, 32, 7);
  EXPECT_TRUE(band.covers(0, 32, unrestricted_window(7)));
  EXPECT_TRUE(band.covers(160, 32, unrestricted_window(7)));
  // Odd half-pel bounds round inward to the integer grid.
  EXPECT_TRUE(band.covers(0, 32, {-15, 15, -15, 15}));
  EXPECT_FALSE(band.covers(0, 32, unrestricted_window(8)));
  EXPECT_FALSE(band.covers(0, 48, unrestricted_window(7)));  // another row
}

/// A current/reference pair and a label.
struct Pair {
  std::string name;
  video::Plane ref;
  video::Plane cur;
};

/// Random planes (nothing prunes much) and two consecutive synthetic frames
/// (correlated: most candidates prune) of the given size.
std::vector<Pair> pairs(video::PictureSize size = video::kQcif) {
  std::vector<Pair> out;
  out.push_back({"random", test::random_plane(size.width, size.height, 21),
                 test::random_plane(size.width, size.height, 22)});
  for (const char* name : {"foreman", "table"}) {
    synth::SequenceRequest req;
    req.name = name;
    req.size = size;
    req.frame_count = 2;
    const std::vector<video::Frame> frames = synth::make_sequence(req);
    video::Plane ref = frames[0].y();
    ref.extend_border();
    video::Plane cur = frames[1].y();
    cur.extend_border();
    out.push_back({name, std::move(ref), std::move(cur)});
  }
  return out;
}

/// The integer winner's half-pel neighbours inside the window.
std::uint32_t halfpel_probes(const BlockContext& ctx, Mv integer_best) {
  if (!ctx.half_pel) {
    return 0;
  }
  std::uint32_t probes = 0;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if ((dx != 0 || dy != 0) &&
          ctx.window.contains({integer_best.x + dx, integer_best.y + dy})) {
        ++probes;
      }
    }
  }
  return probes;
}

// (b) + (c): pruned and unpruned estimates equal the exhaustive scan, and
// positions count the whole window plus the half-pel probes. QCIF at ±7,
// and CIF at the paper's ±15 and at ±16, over every block: the last block
// column and row read the band's right and bottom edges.
TEST(BlockSumBand, PrunedFullSearchEqualsExhaustiveScan) {
  struct Case {
    video::PictureSize size;
    int range;
  };
  struct Window {
    std::string name;
    SearchWindow (*make)(int x, int y, const Case& c);
  };
  const Window windows[] = {
      {"unrestricted",
       [](int, int, const Case& c) { return unrestricted_window(c.range); }},
      {"restricted",
       [](int x, int y, const Case& c) {
         return restricted_window(c.range, x, y, kBlockSize, kBlockSize,
                                  c.size.width, c.size.height);
       }},
      {"odd half-pel bounds",
       [](int, int, const Case& c) {
         const int r = 2 * c.range;
         return SearchWindow{-r + 1, r - 3, -r + 5, r - 1};
       }},
  };
  const MotionCost costs[] = {MotionCost(0.0), MotionCost(4.0, {6, -4}),
                              MotionCost(14.72, {-3, 5})};
  const FullSearch fsbm;
  BlockSumBand band;
  for (const Case& c : {Case{video::kQcif, 7}, Case{video::kCif, 15},
                        Case{video::kCif, 16}}) {
    for (const Pair& pair : pairs(c.size)) {
      const SearchFixture fx(pair.ref, pair.cur);
      const std::string where = pair.name + " " +
                                std::to_string(c.size.width) + " p=" +
                                std::to_string(c.range) + " ";
      std::uint64_t positions = 0;
      std::uint64_t sads = 0;
      for (int y = 0; y + kBlockSize <= c.size.height; y += kBlockSize) {
        band.build(fx.ref, y, c.range);
        for (int x = 0; x + kBlockSize <= c.size.width; x += kBlockSize) {
          for (const Window& window : windows) {
            for (std::size_t k = 0; k < std::size(costs); ++k) {
              BlockContext ctx = fx.context(x, y, c.range);
              ctx.window = window.make(x, y, c);
              ctx.cost = costs[k];
              const std::string label = where + window.name + " cost " +
                                        std::to_string(k) + " block (" +
                                        std::to_string(x) + "," +
                                        std::to_string(y) + ")";
              const FullSearchResult want = fsbm.search_full(ctx);
              const EstimateResult plain = fsbm.estimate(ctx);
              ctx.sums = &band;
              const EstimateResult pruned = fsbm.estimate(ctx);
              for (const EstimateResult& got : {plain, pruned}) {
                EXPECT_EQ(got.mv, want.best.mv) << label;
                EXPECT_EQ(got.sad, want.best.sad) << label;
                EXPECT_EQ(got.positions, want.best.positions) << label;
              }
              EXPECT_EQ(plain.sad_evaluations, plain.positions) << label;
              EXPECT_LE(pruned.sad_evaluations, pruned.positions) << label;
              EXPECT_EQ(want.best.positions,
                        static_cast<std::uint32_t>(
                            ctx.window.fullpel_positions()) +
                            halfpel_probes(ctx, want.best_integer_mv))
                  << label;
              positions += pruned.positions;
              sads += pruned.sad_evaluations;
            }
          }
        }
      }
      // Correlated frames must prune, or this test would pass with a band
      // that never bounds anything. (At ±7 a row is only three groups and
      // a tail.)
      if (pair.name != "random") {
        EXPECT_LT(sads, positions - positions / 8) << where;
      }
    }
  }
}

// The SADs a fixed search computes, pinned: FSBM at ±15, λ 0, over every
// block of the foreman and table QCIF pairs. A looser bound (a sub-block
// term dropped, say) stays exact, so only this count notices it. The count
// depends on the bound and the scan order, not on the SAD kernel.
TEST(BlockSumBand, PrunedSadEvaluationsArePinned) {
  constexpr int kRange = 15;
  const FullSearch fsbm;
  BlockSumBand band;
  std::uint64_t positions = 0;
  std::uint64_t sads = 0;
  for (const Pair& pair : pairs()) {
    if (pair.name == "random") {
      continue;
    }
    const SearchFixture fx(pair.ref, pair.cur);
    for (int y = 0; y + kBlockSize <= 144; y += kBlockSize) {
      band.build(fx.ref, y, kRange);
      for (int x = 0; x + kBlockSize <= 176; x += kBlockSize) {
        BlockContext ctx = fx.context(x, y, kRange);
        ctx.sums = &band;
        const EstimateResult got = fsbm.estimate(ctx);
        positions += got.positions;
        sads += got.sad_evaluations;
      }
    }
  }
  EXPECT_EQ(positions, 2u * 99u * 969u);
  EXPECT_EQ(sads, 34045u);
}

// A candidate that ties the best cost is always scored: its bound can equal
// the threshold but not exceed it. The current picture is the periodic
// reference shifted by (1, 2) samples, so every offset (1 + 3i, 2 + 4j)
// matches exactly. The raster scan meets (−14, −14) first; the tie-break
// must still reach the shortest match, whose bound is exactly 0.
TEST(BlockSumBand, TiesAreNeverPruned) {
  constexpr int kSize = 96;
  const SearchFixture fx(test::periodic_plane(kSize, kSize, 0, 0, 73),
                         test::periodic_plane(kSize, kSize, 1, 2, 73));
  BlockSumBand band;
  band.build(fx.ref, 32, 15);
  for (const MotionCost& cost : {MotionCost(0.0), MotionCost(4.0, {2, 4})}) {
    BlockContext ctx = fx.context(32, 32, 15);
    ctx.cost = cost;
    const FullSearchResult want = FullSearch().search_full(ctx);
    ASSERT_EQ(want.best_integer_sad, 0u);
    ctx.sums = &band;
    const EstimateResult got = FullSearch().estimate(ctx);
    EXPECT_EQ(got.mv, want.best.mv);
    EXPECT_EQ(got.sad, want.best.sad);
    EXPECT_EQ(got.positions, want.best.positions);
    EXPECT_LT(got.sad_evaluations, got.positions);
  }
}

TEST(BlockSumBand, WindowPastTheBandScansExhaustively) {
  const std::vector<Pair> all = pairs();
  const SearchFixture fx(all[1].ref, all[1].cur);
  BlockSumBand band;
  band.build(fx.ref, 48, 4);  // narrower than the ±7 window below
  BlockContext ctx = fx.context(64, 48, 7);
  const FullSearch fsbm;
  const EstimateResult plain = fsbm.estimate(ctx);
  ctx.sums = &band;
  const EstimateResult got = fsbm.estimate(ctx);
  EXPECT_EQ(got.mv, plain.mv);
  EXPECT_EQ(got.sad, plain.sad);
  EXPECT_EQ(got.positions, plain.positions);
  EXPECT_EQ(got.sad_evaluations, got.positions);
}

// A window inside the band whose rows hold more candidates than the bound
// row buffer (64) also scans exhaustively, and still finds the same winner.
TEST(BlockSumBand, RowsPastTheBoundBufferScanExhaustively) {
  const std::vector<Pair> all = pairs(video::kCif);
  const SearchFixture fx(all[1].ref, all[1].cur);
  BlockSumBand band;
  band.build(fx.ref, 144, 15);
  BlockContext ctx = fx.context(160, 144, 15);
  ctx.window = {-130, 130, -20, 20};  // 131 integer columns
  ASSERT_TRUE(band.covers(ctx.x, ctx.y, ctx.window));
  const FullSearch fsbm;
  const EstimateResult plain = fsbm.estimate(ctx);
  ctx.sums = &band;
  const EstimateResult got = fsbm.estimate(ctx);
  EXPECT_EQ(got.mv, plain.mv);
  EXPECT_EQ(got.sad, plain.sad);
  EXPECT_EQ(got.positions, plain.positions);
  EXPECT_EQ(got.sad_evaluations, got.positions);
  // At 63 columns the same block prunes.
  ctx.window = {-62, 62, -20, 20};
  EXPECT_LT(fsbm.estimate(ctx).sad_evaluations, got.positions);
}

}  // namespace
}  // namespace acbm::me
