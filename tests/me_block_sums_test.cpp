// Successive elimination for full search: the block-sum band equals brute
// force at every origin, FullSearch pruned with it returns the exhaustive
// scan's vector, SAD and positions exactly, and positions keep their
// Table 1 meaning (the window plus the half-pel probes).

#include "me/block_sums.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "me/full_search.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"

namespace acbm::me {
namespace {

using acbm::test::SearchFixture;

std::uint32_t brute_sum(const video::Plane& p, int x, int y) {
  std::uint32_t sum = 0;
  for (int r = 0; r < kBlockSize; ++r) {
    for (int c = 0; c < kBlockSize; ++c) {
      sum += p.at(x + c, y + r);
    }
  }
  return sum;
}

// (a) Every origin of the band, border rows and columns included.
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
        for (int y = block_y - p; y <= block_y + p; ++y) {
          for (int x = -p; x <= size.w - kBlockSize + p; ++x) {
            if (band.at(x, y)[0] != brute_sum(ref, x, y) &&
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
/// (correlated: most candidates prune), QCIF.
std::vector<Pair> pairs() {
  std::vector<Pair> out;
  out.push_back({"random", test::random_plane(176, 144, 21),
                 test::random_plane(176, 144, 22)});
  for (const char* name : {"foreman", "table"}) {
    synth::SequenceRequest req;
    req.name = name;
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
// positions count the whole window plus the half-pel probes.
TEST(BlockSumBand, PrunedFullSearchEqualsExhaustiveScan) {
  constexpr int kRange = 7;
  struct Window {
    std::string name;
    SearchWindow (*make)(int x, int y);
  };
  const Window windows[] = {
      {"unrestricted", [](int, int) { return unrestricted_window(kRange); }},
      {"restricted",
       [](int x, int y) {
         return restricted_window(kRange, x, y, kBlockSize, kBlockSize, 176,
                                  144);
       }},
      {"odd half-pel bounds",
       [](int, int) { return SearchWindow{-13, 11, -9, 13}; }},
  };
  const MotionCost costs[] = {MotionCost(0.0), MotionCost(4.0, {6, -4}),
                              MotionCost(14.72, {-3, 5})};
  const FullSearch fsbm;
  BlockSumBand band;
  for (const Pair& pair : pairs()) {
    const SearchFixture fx(pair.ref, pair.cur);
    std::uint64_t positions = 0;
    std::uint64_t sads = 0;
    for (int y = 0; y + kBlockSize <= 144; y += kBlockSize) {
      band.build(fx.ref, y, kRange);
      for (int x = 0; x + kBlockSize <= 176; x += kBlockSize) {
        for (const Window& window : windows) {
          for (std::size_t c = 0; c < std::size(costs); ++c) {
            BlockContext ctx = fx.context(x, y, kRange);
            ctx.window = window.make(x, y);
            ctx.cost = costs[c];
            const std::string label = pair.name + " " + window.name +
                                      " cost " + std::to_string(c) +
                                      " block (" + std::to_string(x) + "," +
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
    // Correlated frames must prune, or this test would pass with a band that
    // never bounds anything. (At ±7 a row is only three groups and a tail;
    // the encoder test checks the share at the paper's ±15.)
    if (pair.name != "random") {
      EXPECT_LT(sads, positions - positions / 8) << pair.name;
    }
  }
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

}  // namespace
}  // namespace acbm::me
