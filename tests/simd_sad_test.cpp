// Kernel parity: every compiled-and-supported SIMD SAD variant must return
// EXACTLY the scalar reference's value — full-block SAD, fused half-pel
// SAD, the four-candidate kernel, quincunx and row-skip decimation — over
// randomized block sizes and offsets (border included), on random content
// and on a saturated pair that drives every sum to its maximum. Plus the
// dispatch API's invariants.

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

/// A current/reference plane pair the parity tests run every kernel over.
struct PlanePair {
  video::Plane cur;
  video::Plane ref;
  bool saturated;  // every |cur − ref| is 255
};

video::Plane constant_plane(int w, int h, std::uint8_t value) {
  video::Plane p(w, h);
  p.fill(value);
  p.extend_border();
  return p;
}

/// Random 96×96 content from two seeds, then a saturated pair (all 0
/// against all 255): its sums are the largest a block can reach (255·48·48
/// for 48×48), so each kernel's single end-of-block reduction is checked at
/// its maximum. Only the saturated pair takes a 16-wide block past 16 bits
/// (255·16·48 for 16×48), where the AVX2 fast paths reduce.
std::vector<PlanePair> parity_inputs(std::uint64_t cur_seed,
                                     std::uint64_t ref_seed) {
  std::vector<PlanePair> inputs;
  inputs.push_back({test::random_plane(96, 96, cur_seed),
                    test::random_plane(96, 96, ref_seed), false});
  inputs.push_back(
      {constant_plane(96, 96, 0), constant_plane(96, 96, 255), true});
  return inputs;
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

TEST(SimdSadParity, RandomizedBlocksAndOffsets) {
  const auto variants = vector_variants();
  if (variants.empty()) {
    GTEST_SKIP() << "no SIMD variants on this build/CPU";
  }
  const SadKernels& ref_table = *detail::scalar_kernels();

  // Sizes cover the vector widths and every tail path: 16-wide fast paths,
  // 8-wide PSADBW tail, scalar column tails, odd heights (row-pair tails),
  // and >16 widths (chunked rows).
  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {16, 8},  {8, 16},  {8, 8},   {16, 17},
                      {16, 15}, {12, 10}, {7, 5},   {24, 16}, {32, 32},
                      {33, 9},  {5, 16},  {16, 2},  {1, 1},   {48, 3},
                      {16, 48}, {48, 48}};
  for (const PlanePair& in : parity_inputs(101, 202)) {
    const video::Plane& cur = in.cur;
    const video::Plane& ref = in.ref;
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

        const std::uint32_t exact =
            ref_table.sad(a, cur.stride(), b, ref.stride(), d.bw, d.bh);
        if (in.saturated) {
          ASSERT_EQ(exact, 255u * static_cast<std::uint32_t>(d.bw * d.bh));
        }
        for (const SadKernels* t : variants) {
          EXPECT_EQ(t->sad(a, cur.stride(), b, ref.stride(), d.bw, d.bh),
                    exact)
              << t->name << " " << d.bw << "x" << d.bh << " cur=(" << cx
              << "," << cy << ") ref=(" << rx << "," << ry << ")";
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
  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {8, 8},  {16, 8}, {17, 5},  {16, 15},
                      {16, 1},  {32, 7}, {33, 9}, {12, 10}, {1, 1},
                      {16, 48}, {48, 48}};
  for (const PlanePair& in : parity_inputs(505, 606)) {
    const video::Plane& cur = in.cur;
    const video::Plane& ref = in.ref;
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
                               d.bh);
        }
        for (const SadKernels* t : tables) {
          std::uint32_t got[4] = {~0u, ~0u, ~0u, ~0u};
          t->sad_x4(a, cur.stride(), b, ref.stride(), d.bw, d.bh, got);
          for (int k = 0; k < 4; ++k) {
            EXPECT_EQ(got[k], want[k])
                << t->name << " " << d.bw << "x" << d.bh << " k=" << k
                << " cur=(" << cx << "," << cy << ") ref=(" << rx << ","
                << ry << ")";
          }
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
                                              d.bw, d.bh);
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
  // every variant, every phase and randomized geometry.
  const SadKernels& scalar = *detail::scalar_kernels();
  std::vector<const SadKernels*> tables = {&scalar};
  for (const SadKernels* t : vector_variants()) {
    tables.push_back(t);
  }
  struct Dim {
    int bw, bh;
  };
  const Dim dims[] = {{16, 16}, {16, 8}, {8, 8},   {16, 17}, {16, 15},
                      {12, 10}, {7, 5},  {24, 16}, {32, 32}, {1, 1},
                      {16, 48}, {48, 48}};
  for (const PlanePair& in : parity_inputs(303, 404)) {
    const video::Plane& cur = in.cur;
    const video::Plane& ref = in.ref;
    const video::Plane phases[4] = {
        test::phase_plane(ref, 0, 0), test::phase_plane(ref, 1, 0),
        test::phase_plane(ref, 0, 1), test::phase_plane(ref, 1, 1)};
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
            const std::uint32_t want =
                scalar.sad(cur.row(cy) + cx, cur.stride(),
                           phase.row(ry) + rx, phase.stride(), d.bw, d.bh);
            for (const SadKernels* t : tables) {
              EXPECT_EQ(t->sad_halfpel(cur.row(cy) + cx, cur.stride(),
                                       ref.row(ry) + rx, ref.stride(),
                                       phase_h, phase_v, d.bw, d.bh),
                        want)
                  << t->name << " " << d.bw << "x" << d.bh << " phase=("
                  << phase_h << "," << phase_v << ") cur=(" << cx << ","
                  << cy << ") ref=(" << rx << "," << ry << ")";
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
