#pragma once
// Exponential-Golomb codes over BitWriter/BitReader.
//
// These universal prefix codes back the codec's motion-vector-difference and
// coefficient escape coding (DESIGN.md §4 documents the substitution for the
// TMN Huffman tables). ue(v) is the classic order-0 code:
//   v=0 -> 1, v=1 -> 010, v=2 -> 011, v=3 -> 00100, ...
// se(v) maps signed integers with the H.26x zig-zag convention
// (0, 1, -1, 2, -2, ...), which keeps small-magnitude values cheap — the
// property the paper's rate term R(mv) relies on.

#include <bit>
#include <cassert>
#include <cstdint>

#include "util/bitstream.hpp"

namespace acbm::util {

/// Number of bits ue(v) occupies, without writing anything: a prefix of
/// msb zeros, then the msb+1 bits of v+1, where msb = bit_width(v+1) − 1.
/// The one length formula: put_ue writes exactly this many bits.
[[nodiscard]] constexpr int ue_bit_length(std::uint32_t value) {
  const std::uint64_t v = static_cast<std::uint64_t>(value) + 1;
  return 2 * (static_cast<int>(std::bit_width(v)) - 1) + 1;
}

/// The H.26x zig-zag map from se(v) to ue: 0, 1, -1, 2, -2 -> 0, 1, 2, 3, 4.
[[nodiscard]] constexpr std::uint32_t se_to_ue(std::int32_t value) {
  return value > 0
             ? static_cast<std::uint32_t>(value) * 2 - 1
             : static_cast<std::uint32_t>(-static_cast<std::int64_t>(value)) * 2;
}

/// Number of bits se(v) occupies.
[[nodiscard]] constexpr int se_bit_length(std::int32_t value) {
  return ue_bit_length(se_to_ue(value));
}

/// Writes an unsigned exp-Golomb code.
inline void put_ue(BitWriter& bw, std::uint32_t value) {
  const std::uint64_t v = static_cast<std::uint64_t>(value) + 1;
  const int msb = ue_bit_length(value) / 2;
  bw.put_bits(0, msb);       // leading zeros
  bw.put_bits(v, msb + 1);   // value with its top bit acting as the stop bit
}

/// Writes a signed exp-Golomb code.
inline void put_se(BitWriter& bw, std::int32_t value) {
  put_ue(bw, se_to_ue(value));
}

/// Reads an unsigned exp-Golomb code.
[[nodiscard]] inline std::uint32_t get_ue(BitReader& br) {
  int zeros = 0;
  while (!br.exhausted() && br.get_bits(1) == 0) {
    ++zeros;
    if (zeros > 32) {  // malformed stream guard
      return 0;
    }
  }
  if (br.exhausted()) {
    return 0;  // ran off the end looking for the stop bit
  }
  const std::uint64_t rest = br.get_bits(zeros);
  const std::uint64_t v = (std::uint64_t{1} << zeros) | rest;
  return static_cast<std::uint32_t>(v - 1);
}

/// Reads a signed exp-Golomb code.
[[nodiscard]] inline std::int32_t get_se(BitReader& br) {
  const std::uint32_t mapped = get_ue(br);
  if (mapped == 0) {
    return 0;
  }
  const std::uint32_t half = (mapped + 1) / 2;
  return (mapped & 1u) != 0 ? static_cast<std::int32_t>(half)
                            : -static_cast<std::int32_t>(half);
}

}  // namespace acbm::util
