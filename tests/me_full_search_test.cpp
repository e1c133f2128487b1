// FSBM: optimality, position counts (the paper's 969), half-pel refinement,
// SAD_deviation bookkeeping, half-pel recovery of true sub-pel motion, and
// exact agreement with a brute-force oracle.

#include "me/full_search.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "me/sad.hpp"
#include "simd/dispatch.hpp"
#include "test_support.hpp"

namespace acbm::me {
namespace {

using acbm::test::periodic_plane;
using acbm::test::SearchFixture;
using acbm::test::shifted_pair;

/// What FullSearch must report, computed by brute force.
struct OracleResult {
  Mv best_integer_mv;
  std::uint32_t best_integer_sad = 0;
  std::uint32_t integer_positions = 0;
  std::uint64_t integer_sad_sum = 0;
  Mv mv;
  std::uint32_t sad = 0;
  std::uint32_t positions = 0;
};

/// Scores every integer candidate of the window with sad_block, one at a
/// time, then the eight half-pel neighbours of the integer winner that lie
/// inside the window. The winner is the minimum of (cost_fixed, L∞, y, x).
OracleResult oracle_full_search(const SearchFixture& fx,
                                const BlockContext& ctx) {
  OracleResult o;
  auto key = [&](std::uint32_t sad, Mv mv) {
    return std::tuple(ctx.cost.cost_fixed(sad, mv), mv.linf(), mv.y, mv.x);
  };
  bool first = true;
  for (int my = ctx.window.min_y; my <= ctx.window.max_y; ++my) {
    for (int mx = ctx.window.min_x; mx <= ctx.window.max_x; ++mx) {
      if ((mx & 1) != 0 || (my & 1) != 0) {
        continue;
      }
      const std::uint32_t sad =
          sad_block(fx.cur, ctx.x, ctx.y, fx.ref, ctx.x + mx / 2,
                    ctx.y + my / 2, ctx.bw, ctx.bh);
      ++o.integer_positions;
      o.integer_sad_sum += sad;
      if (first || key(sad, {mx, my}) <
                       key(o.best_integer_sad, o.best_integer_mv)) {
        o.best_integer_mv = {mx, my};
        o.best_integer_sad = sad;
        first = false;
      }
    }
  }
  o.mv = o.best_integer_mv;
  o.sad = o.best_integer_sad;
  o.positions = o.integer_positions;
  if (!ctx.half_pel) {
    return o;
  }
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const Mv cand{o.best_integer_mv.x + dx, o.best_integer_mv.y + dy};
      if ((dx == 0 && dy == 0) || !ctx.window.contains(cand)) {
        continue;
      }
      const std::uint32_t sad = sad_block_halfpel(
          fx.cur, ctx.x, ctx.y, fx.ref_half, ctx.x * 2 + cand.x,
          ctx.y * 2 + cand.y, ctx.bw, ctx.bh);
      ++o.positions;
      if (key(sad, cand) < key(o.sad, o.mv)) {
        o.mv = cand;
        o.sad = sad;
      }
    }
  }
  return o;
}

struct KernelSelectionGuard {
  ~KernelSelectionGuard() { simd::select_kernels(simd::KernelIsa::kAuto); }
};

TEST(FullSearch, FindsExactIntegerShift) {
  for (const auto& [dx, dy] : {std::pair{0, 0}, std::pair{3, -2},
                               std::pair{-7, 5}, std::pair{15, -15}}) {
    auto [ref, cur] = shifted_pair(64, 48, dx, dy, 100 + dx * 31 + dy);
    const SearchFixture fx(std::move(ref), std::move(cur));
    FullSearch fsbm;
    const EstimateResult r = fsbm.estimate(fx.context(16, 16));
    EXPECT_EQ(r.mv, mv_from_fullpel(dx, dy)) << dx << "," << dy;
    EXPECT_EQ(r.sad, 0u);
    EXPECT_TRUE(r.used_full_search);
  }
}

TEST(FullSearch, PositionCountIsPaper969) {
  auto [ref, cur] = shifted_pair(64, 48, 2, 1, 7);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  const EstimateResult r = fsbm.estimate(fx.context(16, 16, 15));
  EXPECT_EQ(r.positions, 969u);  // 31² integer + 8 half-pel
}

TEST(FullSearch, PositionCountScalesWithRange) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 8);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  EXPECT_EQ(fsbm.estimate(fx.context(16, 16, 7)).positions, 225u + 8u);
  EXPECT_EQ(fsbm.estimate(fx.context(16, 16, 1)).positions, 9u + 8u);
}

TEST(FullSearch, NoHalfpelWhenDisabled) {
  auto [ref, cur] = shifted_pair(64, 48, 1, 1, 9);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  BlockContext ctx = fx.context(16, 16, 15);
  ctx.half_pel = false;
  const EstimateResult r = fsbm.estimate(ctx);
  EXPECT_EQ(r.positions, 961u);
  EXPECT_TRUE(r.mv.is_integer());
}

TEST(FullSearch, SadIsGlobalIntegerMinimum) {
  // Verify against an exhaustive naive scan on textured content.
  const SearchFixture fx(acbm::test::random_plane(64, 64, 10),
                         acbm::test::random_plane(64, 64, 11));
  BlockContext ctx = fx.context(32, 32, 7);
  ctx.half_pel = false;
  FullSearch fsbm;
  const EstimateResult r = fsbm.estimate(ctx);
  std::uint32_t best = ~0u;
  for (int dy = -7; dy <= 7; ++dy) {
    for (int dx = -7; dx <= 7; ++dx) {
      best = std::min(best, sad_block(fx.cur, 32, 32, fx.ref, 32 + dx,
                                      32 + dy, 16, 16));
    }
  }
  EXPECT_EQ(r.sad, best);
}

TEST(FullSearch, HalfpelNeverWorseThanInteger) {
  for (int seed = 0; seed < 6; ++seed) {
    const SearchFixture fx(acbm::test::random_plane(64, 64, 20 + seed),
                           acbm::test::random_plane(64, 64, 30 + seed));
    FullSearch fsbm;
    const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
    EXPECT_LE(full.best.sad, full.best_integer_sad);
  }
}

TEST(FullSearch, RecoversTrueHalfpelMotion) {
  // Current frame = reference sampled half a pixel to the right (average of
  // neighbours, H.263 rounding): the half-pel refinement must pick a
  // non-integer vector with a much lower SAD than the best integer one.
  const video::Plane ref = acbm::test::random_plane(64, 48, 40);
  video::Plane cur(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      cur.set(x, y, static_cast<std::uint8_t>(
                        (ref.at(x, y) + ref.at(x + 1, y) + 1) >> 1));
    }
  }
  cur.extend_border();
  const SearchFixture fx(ref, cur);
  FullSearch fsbm;
  const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
  EXPECT_EQ(full.best.mv, (Mv{1, 0}));
  EXPECT_EQ(full.best.sad, 0u);
  EXPECT_GT(full.best_integer_sad, 0u);
}

TEST(FullSearch, DeviationZeroOnConstantPicture) {
  video::Plane flat_ref(48, 48);
  flat_ref.fill(99);
  flat_ref.extend_border();
  video::Plane flat_cur = flat_ref;
  const SearchFixture fx(std::move(flat_ref), std::move(flat_cur));
  FullSearch fsbm;
  const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
  EXPECT_EQ(full.sad_deviation(), 0u);  // every candidate SAD identical (0)
  EXPECT_EQ(full.best_integer_sad, 0u);
}

TEST(FullSearch, DeviationLargeOnTexturedPicture) {
  auto [ref, cur] = shifted_pair(64, 48, 4, 4, 50);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
  EXPECT_EQ(full.best_integer_sad, 0u);
  // Random 8-bit content: off-positions average ≈85 per sample; the sum over
  // 224 wrong candidates must be enormous compared with zero at the truth.
  EXPECT_GT(full.sad_deviation(), 1000000u);
  EXPECT_EQ(full.integer_positions, 225u);
}

TEST(FullSearch, TieBreakPrefersShorterVector) {
  // Constant picture: every candidate has SAD 0 → the zero vector must win.
  video::Plane ref(48, 48);
  ref.fill(50);
  ref.extend_border();
  video::Plane cur = ref;
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  const EstimateResult r = fsbm.estimate(fx.context(16, 16, 7));
  EXPECT_EQ(r.mv, (Mv{0, 0}));
}

TEST(FullSearch, NameIsFsbm) {
  FullSearch fsbm;
  EXPECT_EQ(fsbm.name(), "FSBM");
}

TEST(FullSearch, MatchesBruteForceOracle) {
  // The integer scan scores candidates four at a time; every reported
  // figure must still equal a one-candidate-at-a-time brute force, under
  // every kernel variant, on unique and heavily tied SAD landscapes, at
  // λ = 0 and with a rate term, for windows whose rows end in a partial
  // group of four and for windows clipped at the picture corners.
  KernelSelectionGuard guard;
  constexpr int kSize = 96;
  struct NamedFixture {
    std::string name;
    SearchFixture fx;
  };
  const NamedFixture fixtures[] = {
      {"random",
       {test::random_plane(kSize, kSize, 71),
        test::random_plane(kSize, kSize, 72)}},
      {"periodic",
       {periodic_plane(kSize, kSize, 0, 0, 73),
        periodic_plane(kSize, kSize, 1, 2, 73)}},
  };
  struct NamedCost {
    std::string name;
    MotionCost cost;
  };
  const NamedCost costs[] = {{"0", MotionCost(0.0)},
                             {"0.92*16", MotionCost::for_qp(16, Mv{6, -4})}};
  struct Case {
    std::string name;
    int x, y, bw, bh;
    SearchWindow window;
  };
  std::vector<Case> cases;
  for (int p : {1, 2, 7, 15, 16}) {
    cases.push_back({"p=" + std::to_string(p), 32, 32, 16, 16,
                     unrestricted_window(p)});
  }
  cases.push_back({"8x8 p=7", 40, 40, 8, 8, unrestricted_window(7)});
  cases.push_back({"top-left corner", 0, 0, 16, 16,
                   restricted_window(15, 0, 0, 16, 16, kSize, kSize)});
  cases.push_back({"bottom-right corner", kSize - 16, kSize - 16, 16, 16,
                   restricted_window(15, kSize - 16, kSize - 16, 16, 16,
                                     kSize, kSize)});
  for (const std::string& kernel : simd::available_kernel_names()) {
    ASSERT_TRUE(simd::select_kernels_by_name(kernel));
    for (const auto& [plane_name, fx] : fixtures) {
      for (const auto& [lambda_name, cost] : costs) {
        for (const Case& c : cases) {
          BlockContext ctx = fx.context(c.x, c.y);
          ctx.bw = c.bw;
          ctx.bh = c.bh;
          ctx.window = c.window;
          ctx.cost = cost;
          const std::string label = kernel + " " + plane_name + " " + c.name +
                                    " lambda=" + lambda_name;
          const OracleResult want = oracle_full_search(fx, ctx);
          FullSearch fsbm;
          const EstimateResult est = fsbm.estimate(ctx);
          EXPECT_EQ(est.mv, want.mv) << label;
          EXPECT_EQ(est.sad, want.sad) << label;
          EXPECT_EQ(est.positions, want.positions) << label;
          const FullSearchResult full = fsbm.search_full(ctx);
          EXPECT_EQ(full.best.mv, want.mv) << label;
          EXPECT_EQ(full.best.sad, want.sad) << label;
          EXPECT_EQ(full.best.positions, want.positions) << label;
          EXPECT_EQ(full.best_integer_mv, want.best_integer_mv) << label;
          EXPECT_EQ(full.best_integer_sad, want.best_integer_sad) << label;
          EXPECT_EQ(full.integer_positions, want.integer_positions) << label;
          EXPECT_EQ(full.integer_sad_sum, want.integer_sad_sum) << label;
        }
      }
    }
  }
}

class FullSearchRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(FullSearchRangeTest, IntegerPositionsMatchWindowFormula) {
  const int p = GetParam();
  auto [ref, cur] = shifted_pair(96, 96, 0, 0, 60 + p);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  BlockContext ctx = fx.context(32, 32, p);
  ctx.half_pel = false;
  const EstimateResult r = fsbm.estimate(ctx);
  EXPECT_EQ(r.positions,
            static_cast<std::uint32_t>((2 * p + 1) * (2 * p + 1)));
}

INSTANTIATE_TEST_SUITE_P(Ranges, FullSearchRangeTest,
                         ::testing::Values(1, 2, 3, 5, 7, 10, 15));

}  // namespace
}  // namespace acbm::me
