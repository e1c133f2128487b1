// Motion cost model (J = D + λ·R) and search windows.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "me/cost.hpp"
#include "me/window.hpp"
#include "util/expgolomb.hpp"

namespace acbm::me {
namespace {

TEST(MvRateBits, ZeroDifferenceIsCheapest) {
  const Mv pred{4, -6};
  const std::uint32_t base = mv_rate_bits(pred, pred);
  EXPECT_EQ(base, 2u);  // se(0) twice
  for (int dx = -4; dx <= 4; ++dx) {
    for (int dy = -4; dy <= 4; ++dy) {
      EXPECT_GE(mv_rate_bits({pred.x + dx, pred.y + dy}, pred), base);
    }
  }
}

TEST(MvRateBits, MonotoneInComponentMagnitude) {
  for (int m = 0; m < 60; ++m) {
    EXPECT_LE(mv_rate_bits({m, 0}, {}), mv_rate_bits({m + 1, 0}, {}));
    EXPECT_LE(mv_rate_bits({0, -m}, {}), mv_rate_bits({0, -(m + 1)}, {}));
  }
}

TEST(MvRateBits, MatchesExpGolombLengths) {
  const Mv mv{7, -3};
  const Mv pred{2, 1};
  EXPECT_EQ(mv_rate_bits(mv, pred),
            static_cast<std::uint32_t>(util::se_bit_length(5) +
                                       util::se_bit_length(-4)));
}

TEST(MotionCost, LambdaZeroIsPureSad) {
  const MotionCost cost(0.0, {0, 0});
  EXPECT_EQ(cost.cost_fixed(500, {30, 30}), 500ull << 8);
}

TEST(MotionCost, RateTermPenalisesLongVectors) {
  const MotionCost cost(10.0, {0, 0});
  EXPECT_LT(cost.cost_fixed(100, {0, 0}), cost.cost_fixed(100, {20, 20}));
}

TEST(MotionCost, ForQpScalesLambda) {
  // At SAD 0 the cost is the rate term alone: ⌊0.92·Qp·256⌋·R.
  const Mv mv{6, -4};
  const std::uint64_t bits = mv_rate_bits(mv, {0, 0});
  for (const int qp : {10, 20}) {
    EXPECT_EQ(MotionCost::for_qp(qp).cost_fixed(0, mv),
              static_cast<std::uint64_t>(0.92 * qp * 256.0) * bits)
        << qp;
  }
}

TEST(MotionCost, FixedAndFloatAgreeOnOrdering) {
  const double lambda = 3.7;
  const Mv pred{2, 2};
  const MotionCost cost(lambda, pred);
  const Mv a{0, 0};
  const Mv b{14, -9};
  const auto float_cost = [&](std::uint32_t sad, Mv mv) {
    return sad + lambda * mv_rate_bits(mv, pred);
  };
  const bool float_order = float_cost(200, a) < float_cost(230, b);
  const bool fixed_order = cost.cost_fixed(200, a) < cost.cost_fixed(230, b);
  EXPECT_EQ(float_order, fixed_order);
}

// cost_fixed must equal SAD·256 + ⌊λ·256⌋·R with R the two signed
// exp-Golomb lengths, for every λ the encoder derives from a Qp and for the
// extremes. The length is counted here bit by bit, not with util's formula.
TEST(MotionCost, FixedCostIsTheTruncatedFormula) {
  const auto se_len = [](int v) {
    const std::uint64_t code =
        (v > 0 ? 2 * static_cast<std::uint64_t>(v) - 1
               : 2 * static_cast<std::uint64_t>(-static_cast<std::int64_t>(v))) +
        1;
    int msb = 0;
    while ((code >> (msb + 1)) != 0) {
      ++msb;
    }
    return static_cast<std::uint64_t>(2 * msb + 1);
  };
  std::vector<double> lambdas = {0.0, 0.1, 1e6};
  for (int qp = 1; qp <= 31; ++qp) {
    lambdas.push_back(0.92 * qp);
  }
  int mismatches = 0;
  for (const double lambda : lambdas) {
    const auto lambda_fixed = static_cast<std::uint64_t>(lambda * 256.0);
    for (int py = -64; py <= 64; py += 32) {
      for (int px = -64; px <= 64; px += 32) {
        const MotionCost cost(lambda, {px, py});
        for (int y = -64; y <= 64; ++y) {
          for (int x = -64; x <= 64; ++x) {
            const auto sad = static_cast<std::uint32_t>((x + 64) * 509 +
                                                        (y + 64) * 131);
            const std::uint64_t expected =
                (static_cast<std::uint64_t>(sad) << 8) +
                lambda_fixed * (se_len(x - px) + se_len(y - py));
            if (cost.cost_fixed(sad, {x, y}) != expected) {
              ++mismatches;
              ADD_FAILURE() << "lambda " << lambda << " mv (" << x << "," << y
                            << ") pred (" << px << "," << py << ")";
            }
          }
        }
        if (mismatches > 10) {
          return;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SearchWindow, UnrestrictedBounds) {
  const SearchWindow w = unrestricted_window(15);
  EXPECT_EQ(w.min_x, -30);
  EXPECT_EQ(w.max_x, 30);
  EXPECT_TRUE(w.contains({30, -30}));
  EXPECT_FALSE(w.contains({31, 0}));
  EXPECT_FALSE(w.contains({0, -31}));
}

TEST(SearchWindow, FullpelPositionCountIsPaper961) {
  EXPECT_EQ(unrestricted_window(15).fullpel_positions(), 961);
  EXPECT_EQ(unrestricted_window(7).fullpel_positions(), 225);
  EXPECT_EQ(unrestricted_window(1).fullpel_positions(), 9);
}

TEST(SearchWindow, ClampProjectsComponentwise) {
  const SearchWindow w = unrestricted_window(4);
  EXPECT_EQ(w.clamp({100, -3}), (Mv{8, -3}));
  EXPECT_EQ(w.clamp({-100, 100}), (Mv{-8, 8}));
  EXPECT_EQ(w.clamp({3, 3}), (Mv{3, 3}));
}

TEST(SearchWindow, RestrictedClampsAtPictureEdges) {
  // Top-left block of a QCIF picture with p=15: negative displacements are
  // cut to the picture (slack 0).
  const SearchWindow w = restricted_window(15, 0, 0, 16, 16, 176, 144, 0);
  EXPECT_EQ(w.min_x, 0);
  EXPECT_EQ(w.min_y, 0);
  EXPECT_EQ(w.max_x, 30);
  EXPECT_EQ(w.max_y, 30);
}

TEST(SearchWindow, RestrictedInteriorBlockUnchanged) {
  const SearchWindow w = restricted_window(7, 80, 64, 16, 16, 176, 144, 0);
  EXPECT_EQ(w.min_x, -14);
  EXPECT_EQ(w.max_x, 14);
  EXPECT_EQ(w.min_y, -14);
  EXPECT_EQ(w.max_y, 14);
}

TEST(SearchWindow, RestrictedBottomRightBlock) {
  const SearchWindow w =
      restricted_window(15, 160, 128, 16, 16, 176, 144, 0);
  EXPECT_EQ(w.max_x, 0);
  EXPECT_EQ(w.max_y, 0);
  EXPECT_EQ(w.min_x, -30);
}

TEST(Mv, HelpersBehave) {
  EXPECT_TRUE((Mv{4, -6}).is_integer());
  EXPECT_FALSE((Mv{3, 0}).is_integer());
  EXPECT_EQ((Mv{-7, 4}).linf(), 7);
  EXPECT_EQ(mv_from_fullpel(3, -2), (Mv{6, -4}));
  EXPECT_EQ((Mv{1, 2}) + (Mv{3, 4}), (Mv{4, 6}));
  EXPECT_EQ((Mv{1, 2}) - (Mv{3, 4}), (Mv{-2, -2}));
}

}  // namespace
}  // namespace acbm::me
