// Exp-Golomb codes: canonical values, bit lengths, round-trips, monotonicity.

#include "util/expgolomb.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/bitstream.hpp"
#include "util/rng.hpp"

namespace acbm::util {
namespace {

// Both lengths stay usable in constant expressions.
static_assert(ue_bit_length(0) == 1 && ue_bit_length(3) == 5 &&
              ue_bit_length(std::numeric_limits<std::uint32_t>::max()) == 65);
static_assert(se_bit_length(0) == 1 && se_bit_length(-2) == 5);

TEST(ExpGolombUe, CanonicalCodewords) {
  // ue(0)=1, ue(1)=010, ue(2)=011, ue(3)=00100 ... (H.26x convention).
  struct Case {
    std::uint32_t value;
    std::uint32_t bits;
    int length;
  };
  const Case cases[] = {
      {0, 0b1, 1},     {1, 0b010, 3},   {2, 0b011, 3},    {3, 0b00100, 5},
      {4, 0b00101, 5}, {5, 0b00110, 5}, {6, 0b00111, 5},  {7, 0b0001000, 7},
  };
  for (const Case& c : cases) {
    BitWriter bw;
    put_ue(bw, c.value);
    EXPECT_EQ(bw.bit_count(), static_cast<std::size_t>(c.length))
        << "value " << c.value;
    const auto bytes = bw.take();
    BitReader br(bytes);
    EXPECT_EQ(br.get_bits(c.length), c.bits) << "value " << c.value;
  }
}

TEST(ExpGolombUe, BitLengthMatchesEncoding) {
  for (std::uint32_t v : {0u, 1u, 2u, 3u, 7u, 8u, 63u, 64u, 255u, 1000u,
                          65535u, 1000000u}) {
    BitWriter bw;
    put_ue(bw, v);
    EXPECT_EQ(static_cast<int>(bw.bit_count()), ue_bit_length(v))
        << "value " << v;
  }
}

// Every value up to 2^16, and 2^k − 2, 2^k − 1, 2^k for k = 1..31 plus
// UINT32_MAX: the writer emits ue_bit_length(v) bits and the reader, whose
// leading-zero count is an independent measure of the length, consumes
// exactly as many and returns v.
TEST(ExpGolombUe, ReaderConsumesExactlyTheCountedLength) {
  std::vector<std::uint32_t> values;
  for (std::uint32_t v = 0; v <= (1u << 16); ++v) {
    values.push_back(v);
  }
  for (int k = 1; k <= 31; ++k) {
    const std::uint32_t p = std::uint32_t{1} << k;
    values.insert(values.end(), {p - 2, p - 1, p});
  }
  values.push_back(std::numeric_limits<std::uint32_t>::max());

  BitWriter bw;
  for (std::uint32_t v : values) {
    const std::size_t before = bw.bit_count();
    put_ue(bw, v);
    ASSERT_EQ(bw.bit_count() - before,
              static_cast<std::size_t>(ue_bit_length(v)))
        << "value " << v;
  }
  const auto bytes = bw.take();
  BitReader br(bytes);
  for (std::uint32_t v : values) {
    const std::size_t before = br.bit_position();
    ASSERT_EQ(get_ue(br), v);
    ASSERT_EQ(br.bit_position() - before,
              static_cast<std::size_t>(ue_bit_length(v)))
        << "value " << v;
  }
  EXPECT_FALSE(br.exhausted());
}

TEST(ExpGolombSe, ReaderConsumesExactlyTheCountedLength) {
  constexpr std::int32_t kMax = 1 << 15;
  BitWriter bw;
  for (std::int32_t v = -kMax; v <= kMax; ++v) {
    const std::size_t before = bw.bit_count();
    put_se(bw, v);
    ASSERT_EQ(bw.bit_count() - before,
              static_cast<std::size_t>(se_bit_length(v)))
        << "value " << v;
  }
  const auto bytes = bw.take();
  BitReader br(bytes);
  for (std::int32_t v = -kMax; v <= kMax; ++v) {
    const std::size_t before = br.bit_position();
    ASSERT_EQ(get_se(br), v);
    ASSERT_EQ(br.bit_position() - before,
              static_cast<std::size_t>(se_bit_length(v)))
        << "value " << v;
  }
  EXPECT_FALSE(br.exhausted());
}

TEST(ExpGolombSe, ZigzagMapping) {
  // se: 0→0, 1→+1, 2→−1, 3→+2, 4→−2 ...
  struct Case {
    std::int32_t value;
    int length;
  };
  const Case cases[] = {{0, 1},  {1, 3},  {-1, 3}, {2, 5},
                        {-2, 5}, {3, 5},  {-3, 5}, {4, 7}};
  for (const Case& c : cases) {
    BitWriter bw;
    put_se(bw, c.value);
    EXPECT_EQ(static_cast<int>(bw.bit_count()), c.length)
        << "value " << c.value;
    EXPECT_EQ(se_bit_length(c.value), c.length) << "value " << c.value;
    const auto bytes = bw.take();
    BitReader br(bytes);
    EXPECT_EQ(get_se(br), c.value);
  }
}

TEST(ExpGolombSe, PositiveShorterOrEqualToNegative) {
  // The mapping gives positive values the (weakly) shorter code — relevant
  // because MVDs are symmetric, so total rate is unaffected, but tests pin
  // the convention.
  for (int v = 1; v < 100; ++v) {
    EXPECT_LE(se_bit_length(v), se_bit_length(-v));
  }
}

TEST(ExpGolombUe, LengthIsMonotoneNonDecreasing) {
  int prev = ue_bit_length(0);
  for (std::uint32_t v = 1; v < 5000; ++v) {
    const int len = ue_bit_length(v);
    EXPECT_GE(len, prev) << "value " << v;
    prev = len;
  }
}

TEST(ExpGolombRoundTrip, UeRandomized) {
  util::Rng rng(7);
  BitWriter bw;
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(
        rng.next_u64() >> (33 + rng.next_below(28)));
    values.push_back(v);
    put_ue(bw, v);
  }
  const auto bytes = bw.take();
  BitReader br(bytes);
  for (std::uint32_t v : values) {
    EXPECT_EQ(get_ue(br), v);
  }
}

TEST(ExpGolombRoundTrip, SeRandomized) {
  util::Rng rng(8);
  BitWriter bw;
  std::vector<std::int32_t> values;
  for (int i = 0; i < 5000; ++i) {
    const std::int32_t v = rng.next_in_range(-100000, 100000);
    values.push_back(v);
    put_se(bw, v);
  }
  const auto bytes = bw.take();
  BitReader br(bytes);
  for (std::int32_t v : values) {
    EXPECT_EQ(get_se(br), v);
  }
}

TEST(ExpGolombRoundTrip, InterleavedUeSeSurvivesAlignment) {
  BitWriter bw;
  put_ue(bw, 13);
  put_se(bw, -7);
  bw.align();
  put_ue(bw, 64);  // the codec's EOB value
  const auto bytes = bw.take();
  BitReader br(bytes);
  EXPECT_EQ(get_ue(br), 13u);
  EXPECT_EQ(get_se(br), -7);
  br.align();
  EXPECT_EQ(get_ue(br), 64u);
}

TEST(ExpGolomb, DecodeOnEmptyStreamIsSafe) {
  const std::vector<std::uint8_t> empty;
  BitReader br(empty);
  EXPECT_EQ(get_ue(br), 0u);
  EXPECT_TRUE(br.exhausted());
}

}  // namespace
}  // namespace acbm::util
