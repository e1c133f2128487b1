// Kernel parity: every compiled-and-supported SIMD SAD variant must return
// EXACTLY the scalar reference's value — full-block SAD (including the
// partial totals produced by the row-group early-exit contract), the
// four-candidate kernel, quincunx and row-skip decimation — over randomized
// block sizes, offsets (border included) and thresholds. Plus the dispatch
// API's invariants.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "me/decimation.hpp"
#include "me/sad.hpp"
#include "simd/dispatch.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace acbm::simd {
namespace {

/// Every variant this build/CPU offers beyond the scalar reference.
std::vector<const SadKernels*> vector_variants() {
  std::vector<const SadKernels*> tables;
  for (KernelIsa isa : {KernelIsa::kSse2, KernelIsa::kAvx2}) {
    if (const SadKernels* t = kernels_for(isa)) {
      tables.push_back(t);
    }
  }
  return tables;
}

/// Restores the default (auto) selection when a test that pins the global
/// table exits, so test order never matters.
struct KernelSelectionGuard {
  ~KernelSelectionGuard() { select_kernels(KernelIsa::kAuto); }
};

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  ASSERT_NE(detail::scalar_kernels(), nullptr);
  EXPECT_STREQ(detail::scalar_kernels()->name, "scalar");
  EXPECT_NE(kernels_for(KernelIsa::kAuto), nullptr);
}

TEST(SimdDispatch, TablesAreFullyPopulated) {
  for (const SadKernels* t :
       {kernels_for(KernelIsa::kScalar), kernels_for(KernelIsa::kAuto)}) {
    ASSERT_NE(t, nullptr);
    EXPECT_NE(t->sad, nullptr);
    EXPECT_NE(t->sad_halfpel, nullptr);
    EXPECT_NE(t->sad_x4, nullptr);
    EXPECT_NE(t->sad_quincunx, nullptr);
    EXPECT_NE(t->sad_rowskip, nullptr);
  }
  for (const SadKernels* t : vector_variants()) {
    EXPECT_NE(t->sad, nullptr);
    EXPECT_NE(t->sad_halfpel, nullptr);
    EXPECT_NE(t->sad_x4, nullptr);
    EXPECT_NE(t->sad_quincunx, nullptr);
    EXPECT_NE(t->sad_rowskip, nullptr);
  }
}

TEST(SimdDispatch, SelectByNameRoundTrips) {
  KernelSelectionGuard guard;
  EXPECT_FALSE(select_kernels_by_name("neon"));
  EXPECT_FALSE(select_kernels_by_name(""));
  for (const std::string& name : available_kernel_names()) {
    EXPECT_TRUE(select_kernels_by_name(name)) << name;
    if (name != "auto") {
      EXPECT_EQ(active_kernel_name(), name);
    }
  }
  EXPECT_TRUE(select_kernels_by_name("auto"));
}

TEST(SimdSadParity, RandomizedBlocksOffsetsThresholds) {
  const auto variants = vector_variants();
  if (variants.empty()) {
    GTEST_SKIP() << "no SIMD variants on this build/CPU";
  }
  const SadKernels& ref_table = *detail::scalar_kernels();
  const video::Plane cur = test::random_plane(96, 96, 101);
  const video::Plane ref = test::random_plane(96, 96, 202);

  // Sizes cover the vector widths and every tail path: 16-wide fast paths,
  // 8-wide PSADBW tail, scalar column tails, odd heights (row-pair tails),
  // and >16 widths (chunked rows).
  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {16, 8},  {8, 16},  {8, 8},   {16, 17},
                      {16, 15}, {12, 10}, {7, 5},   {24, 16}, {32, 32},
                      {33, 9},  {5, 16},  {16, 2},  {1, 1},   {48, 3}};
  util::Rng rng(777);
  for (const Dim& d : dims) {
    for (int trial = 0; trial < 24; ++trial) {
      // Offsets range into the border (Plane guarantees 24 samples).
      const int cx = static_cast<int>(rng.next_below(40));
      const int cy = static_cast<int>(rng.next_below(40));
      const int rx =
          static_cast<int>(rng.next_below(60)) - 12;  // may be negative
      const int ry = static_cast<int>(rng.next_below(60)) - 12;
      const std::uint8_t* a = cur.row(cy) + cx;
      const std::uint8_t* b = ref.row(ry) + rx;

      const std::uint32_t exact = ref_table.sad(
          a, cur.stride(), b, ref.stride(), d.bw, d.bh, me::kNoEarlyExit);
      const std::uint32_t thresholds[] = {
          0u, exact / 4, exact / 2, exact > 0 ? exact - 1 : 0, exact,
          me::kNoEarlyExit};
      for (const SadKernels* t : variants) {
        for (std::uint32_t bound : thresholds) {
          EXPECT_EQ(t->sad(a, cur.stride(), b, ref.stride(), d.bw, d.bh,
                           bound),
                    ref_table.sad(a, cur.stride(), b, ref.stride(), d.bw,
                                  d.bh, bound))
              << t->name << " " << d.bw << "x" << d.bh << " bound=" << bound
              << " cur=(" << cx << "," << cy << ") ref=(" << rx << "," << ry
              << ")";
        }
        EXPECT_EQ(
            t->sad_quincunx(a, cur.stride(), b, ref.stride(), d.bw, d.bh),
            ref_table.sad_quincunx(a, cur.stride(), b, ref.stride(), d.bw,
                                   d.bh))
            << t->name << " quincunx " << d.bw << "x" << d.bh;
        EXPECT_EQ(
            t->sad_rowskip(a, cur.stride(), b, ref.stride(), d.bw, d.bh),
            ref_table.sad_rowskip(a, cur.stride(), b, ref.stride(), d.bw,
                                  d.bh))
            << t->name << " rowskip " << d.bw << "x" << d.bh;
      }
    }
  }
}

TEST(SimdSadParity, X4MatchesFourSingleSads) {
  // out[k] of every variant's four-candidate kernel must equal the scalar
  // reference's full SAD against ref + k — over the 16-wide fast paths,
  // generic and odd widths, odd heights, and reference origins reaching
  // into the plane border.
  const SadKernels& scalar = *detail::scalar_kernels();
  std::vector<const SadKernels*> tables = {&scalar};
  for (const SadKernels* t : vector_variants()) {
    tables.push_back(t);
  }
  const video::Plane cur = test::random_plane(96, 96, 505);
  const video::Plane ref = test::random_plane(96, 96, 606);
  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {8, 8},  {16, 8}, {17, 5},  {16, 15},
                      {16, 1},  {32, 7}, {33, 9}, {12, 10}, {1, 1}};
  util::Rng rng(999);
  for (const Dim& d : dims) {
    for (int trial = 0; trial < 24; ++trial) {
      const int cx = static_cast<int>(rng.next_below(40));
      const int cy = static_cast<int>(rng.next_below(40));
      const int rx = static_cast<int>(rng.next_below(60)) - 20;
      const int ry = static_cast<int>(rng.next_below(60)) - 20;
      const std::uint8_t* a = cur.row(cy) + cx;
      const std::uint8_t* b = ref.row(ry) + rx;
      std::uint32_t want[4];
      for (int k = 0; k < 4; ++k) {
        want[k] = scalar.sad(a, cur.stride(), b + k, ref.stride(), d.bw,
                             d.bh, me::kNoEarlyExit);
      }
      for (const SadKernels* t : tables) {
        std::uint32_t got[4] = {~0u, ~0u, ~0u, ~0u};
        t->sad_x4(a, cur.stride(), b, ref.stride(), d.bw, d.bh, got);
        for (int k = 0; k < 4; ++k) {
          EXPECT_EQ(got[k], want[k])
              << t->name << " " << d.bw << "x" << d.bh << " k=" << k
              << " cur=(" << cx << "," << cy << ") ref=(" << rx << "," << ry
              << ")";
        }
      }
    }
  }
}

TEST(SimdSadParity, X4ReadsOnlyBwPlusThreeColumns) {
  // Tight heap buffers whose last row ends exactly at the contract's bound:
  // `bw + 3` reference samples and `bw` current samples. Under
  // AddressSanitizer any read past them lands in the redzone.
  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {16, 15}, {8, 8}, {17, 5}, {33, 3}, {1, 1}};
  util::Rng rng(4242);
  for (const Dim& d : dims) {
    const int cur_stride = d.bw;
    const int ref_stride = d.bw + 3;
    std::vector<std::uint8_t> cur(static_cast<std::size_t>(cur_stride * d.bh));
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(ref_stride * d.bh));
    for (std::uint8_t& v : cur) {
      v = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (std::uint8_t& v : ref) {
      v = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::uint32_t want[4];
    for (int k = 0; k < 4; ++k) {
      want[k] = detail::scalar_kernels()->sad(cur.data(), cur_stride,
                                              ref.data() + k, ref_stride,
                                              d.bw, d.bh, me::kNoEarlyExit);
    }
    std::vector<const SadKernels*> tables = {detail::scalar_kernels()};
    for (const SadKernels* t : vector_variants()) {
      tables.push_back(t);
    }
    for (const SadKernels* t : tables) {
      std::uint32_t got[4];
      t->sad_x4(cur.data(), cur_stride, ref.data(), ref_stride, d.bw, d.bh,
                got);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(got[k], want[k])
            << t->name << " " << d.bw << "x" << d.bh << " k=" << k;
      }
    }
  }
}

TEST(SimdSadParity, EarlyExitStopsAtSharedCheckpoints) {
  // With a bound that trips mid-block, every variant must return the SAME
  // partial total: the sum over whole kEarlyExitRowQuantum-row groups up to
  // and including the first group that exceeds the bound.
  const auto variants = vector_variants();
  if (variants.empty()) {
    GTEST_SKIP() << "no SIMD variants on this build/CPU";
  }
  const SadKernels& ref_table = *detail::scalar_kernels();
  const video::Plane cur = test::random_plane(64, 64, 11);
  const video::Plane ref = test::random_plane(64, 64, 12);
  const std::uint8_t* a = cur.row(8) + 8;
  const std::uint8_t* b = ref.row(10) + 6;

  // Manually accumulate the first group's exact SAD to pick a bound that
  // trips at the first checkpoint of a 16×16 block.
  std::uint32_t first_group = 0;
  for (int y = 0; y < kEarlyExitRowQuantum; ++y) {
    for (int x = 0; x < 16; ++x) {
      const int d = static_cast<int>(a[y * cur.stride() + x]) -
                    static_cast<int>(b[y * ref.stride() + x]);
      first_group += static_cast<std::uint32_t>(d < 0 ? -d : d);
    }
  }
  ASSERT_GT(first_group, 0u);
  const std::uint32_t bound = first_group - 1;  // trips at checkpoint 1
  const std::uint32_t scalar_partial =
      ref_table.sad(a, cur.stride(), b, ref.stride(), 16, 16, bound);
  EXPECT_EQ(scalar_partial, first_group);  // returns the partial, not more
  for (const SadKernels* t : variants) {
    EXPECT_EQ(t->sad(a, cur.stride(), b, ref.stride(), 16, 16, bound),
              scalar_partial)
        << t->name;
  }
}

TEST(SimdSadParity, DispatchedEntryPointsFollowSelection) {
  // me::sad_block / sad_block_decimated route through the active table;
  // pinning each variant must not change any value.
  KernelSelectionGuard guard;
  const video::Plane cur = test::random_plane(64, 64, 31);
  const video::Plane ref = test::random_plane(64, 64, 32);
  ASSERT_TRUE(select_kernels(KernelIsa::kScalar));
  const std::uint32_t want_full = me::sad_block(cur, 16, 16, ref, 13, 19, 16, 16);
  const std::uint32_t want_quin = me::sad_block_decimated(
      cur, 16, 16, ref, 13, 19, 16, 16, me::DecimationPattern::kQuincunx4to1);
  const std::uint32_t want_skip = me::sad_block_decimated(
      cur, 16, 16, ref, 13, 19, 16, 16, me::DecimationPattern::kRowSkip2to1);
  for (const std::string& name : available_kernel_names()) {
    ASSERT_TRUE(select_kernels_by_name(name));
    EXPECT_EQ(me::sad_block(cur, 16, 16, ref, 13, 19, 16, 16), want_full)
        << name;
    EXPECT_EQ(me::sad_block_decimated(cur, 16, 16, ref, 13, 19, 16, 16,
                                      me::DecimationPattern::kQuincunx4to1),
              want_quin)
        << name;
    EXPECT_EQ(me::sad_block_decimated(cur, 16, 16, ref, 13, 19, 16, 16,
                                      me::DecimationPattern::kRowSkip2to1),
              want_skip)
        << name;
  }
}

TEST(SimdSadParity, FusedHalfpelMatchesPreinterpolatedPlanes) {
  // The fused interpolate+SAD kernels must return exactly what matching a
  // pre-interpolated phase plane with the plain SAD kernel returns — for
  // every variant, every phase, randomized geometry, and every early-exit
  // bound (the checkpoints are shared, so partial totals must agree too).
  const SadKernels& scalar = *detail::scalar_kernels();
  std::vector<const SadKernels*> tables = {&scalar};
  for (const SadKernels* t : vector_variants()) {
    tables.push_back(t);
  }
  const video::Plane cur = test::random_plane(96, 96, 303);
  const video::Plane ref = test::random_plane(96, 96, 404);
  const video::Plane phases[4] = {
      test::phase_plane(ref, 0, 0), test::phase_plane(ref, 1, 0),
      test::phase_plane(ref, 0, 1), test::phase_plane(ref, 1, 1)};

  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {16, 8}, {8, 8},   {16, 17}, {16, 15},
                      {12, 10}, {7, 5},  {24, 16}, {32, 32}, {1, 1}};
  util::Rng rng(888);
  for (const Dim& d : dims) {
    for (int trial = 0; trial < 12; ++trial) {
      const int cx = static_cast<int>(rng.next_below(40));
      const int cy = static_cast<int>(rng.next_below(40));
      const int rx = static_cast<int>(rng.next_below(50)) - 10;
      const int ry = static_cast<int>(rng.next_below(50)) - 10;
      for (int phase_v = 0; phase_v <= 1; ++phase_v) {
        for (int phase_h = 0; phase_h <= 1; ++phase_h) {
          // Ground truth: plain SAD against the materialised phase plane.
          const video::Plane& phase = phases[phase_v * 2 + phase_h];
          const std::uint32_t exact = scalar.sad(
              cur.row(cy) + cx, cur.stride(), phase.row(ry) + rx,
              phase.stride(), d.bw, d.bh, me::kNoEarlyExit);
          const std::uint32_t thresholds[] = {
              0u, exact / 3, exact > 0 ? exact - 1 : 0, me::kNoEarlyExit};
          for (const SadKernels* t : tables) {
            for (const std::uint32_t bound : thresholds) {
              const std::uint32_t want = scalar.sad(
                  cur.row(cy) + cx, cur.stride(), phase.row(ry) + rx,
                  phase.stride(), d.bw, d.bh, bound);
              EXPECT_EQ(t->sad_halfpel(cur.row(cy) + cx, cur.stride(),
                                       ref.row(ry) + rx, ref.stride(),
                                       phase_h, phase_v, d.bw, d.bh, bound),
                        want)
                  << t->name << " " << d.bw << "x" << d.bh << " phase=("
                  << phase_h << "," << phase_v << ") bound=" << bound
                  << " cur=(" << cx << "," << cy << ") ref=(" << rx << ","
                  << ry << ")";
            }
          }
        }
      }
    }
  }
}

TEST(SimdSadParity, HalfpelRoutesThroughTable) {
  KernelSelectionGuard guard;
  const video::Plane cur = test::random_plane(64, 64, 41);
  const video::Plane ref = test::random_plane(64, 64, 42);
  const video::HalfpelPlanes hp(ref);
  ASSERT_TRUE(select_kernels(KernelIsa::kScalar));
  const std::uint32_t want[4] = {
      me::sad_block_halfpel(cur, 16, 16, hp, 28, 30, 16, 16),
      me::sad_block_halfpel(cur, 16, 16, hp, 29, 30, 16, 16),
      me::sad_block_halfpel(cur, 16, 16, hp, 28, 31, 16, 16),
      me::sad_block_halfpel(cur, 16, 16, hp, 29, 31, 16, 16)};
  for (const SadKernels* t : vector_variants()) {
    ASSERT_TRUE(select_kernels_by_name(t->name));
    EXPECT_EQ(me::sad_block_halfpel(cur, 16, 16, hp, 28, 30, 16, 16), want[0])
        << t->name;
    EXPECT_EQ(me::sad_block_halfpel(cur, 16, 16, hp, 29, 30, 16, 16), want[1])
        << t->name;
    EXPECT_EQ(me::sad_block_halfpel(cur, 16, 16, hp, 28, 31, 16, 16), want[2])
        << t->name;
    EXPECT_EQ(me::sad_block_halfpel(cur, 16, 16, hp, 29, 31, 16, 16), want[3])
        << t->name;
  }
}

}  // namespace
}  // namespace acbm::simd
