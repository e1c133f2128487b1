#pragma once
// The macroblock layer shared by codec::Encoder and codec::Decoder: how one
// 16×16 macroblock is laid out, predicted, reconstructed and written.
//
// A macroblock is six 8×8 blocks in coding order Y00 Y10 Y01 Y11 Cb Cr
// (four luma quadrants in raster order, then the two 4:2:0 chroma blocks).
// Its payload syntax, after the COD / intra-flag bits the caller writes:
//
//   intra payload : 6× u8 DC level, 6-bit CBP, AC run/level per set block
//   inter body    : 6-bit CBP, run/level per set block (the MVD that precedes
//                   it is coded by codec/mv_coding.hpp against a predictor
//                   only the caller knows)
//
// The encoder's reconstruction loop and the decoder run the same functions
// below, which is what keeps the two sample-exact. codec::RefDecoder keeps
// its own independent copy of this format on purpose: it is the oracle the
// tests compare both against.

#include <cassert>
#include <cstdint>

#include "codec/dct.hpp"
#include "me/types.hpp"
#include "util/bitstream.hpp"
#include "video/frame.hpp"

namespace acbm::codec {

inline constexpr int kMbSize = me::kBlockSize;  // 16
inline constexpr int kMbBlocks = 6;

/// Quantised content of one macroblock: the six blocks' levels in coding
/// order, the intra DC levels (intra macroblocks only) and the coded block
/// pattern (bit b set iff block b carries coefficients).
struct MbLevels {
  std::int16_t levels[kMbBlocks][kDctSamples];
  std::uint8_t dc[kMbBlocks];
  std::uint32_t cbp = 0;
};

/// One macroblock's samples, packed: 16×16 luma and two 8×8 chroma blocks.
struct MbBuffer {
  std::uint8_t y[kMbSize * kMbSize];
  std::uint8_t cb[kMbSize / 2 * kMbSize / 2];
  std::uint8_t cr[kMbSize / 2 * kMbSize / 2];
};

/// Where a macroblock's samples live: macroblock (bx, by) of a frame, or an
/// MbBuffer.
struct MbSamples {
  MbSamples(video::Frame& frame, int bx, int by)
      : y(frame.y().row(by * kMbSize) + bx * kMbSize),
        cb(frame.cb().row(by * kMbSize / 2) + bx * kMbSize / 2),
        cr(frame.cr().row(by * kMbSize / 2) + bx * kMbSize / 2),
        y_stride(frame.y().stride()),
        c_stride(frame.cb().stride()) {
    assert(frame.cr().stride() == c_stride);
  }
  explicit MbSamples(MbBuffer& buffer)
      : y(buffer.y), cb(buffer.cb), cr(buffer.cr), y_stride(kMbSize),
        c_stride(kMbSize / 2) {}

  std::uint8_t* y;
  std::uint8_t* cb;
  std::uint8_t* cr;
  int y_stride;
  int c_stride;
};

// ------------------------------------------------------------ sample paths

/// Intra forward path: transforms and quantises macroblock (bx, by) of
/// `src` into `out` (levels, DC levels, CBP).
void encode_intra_mb(const video::Frame& src, int bx, int by, int qp,
                     MbLevels& out);

/// Inter forward path: transforms and quantises the residual of macroblock
/// (bx, by) of `src` against `pred` into `out` (levels and CBP).
void encode_inter_mb(const video::Frame& src, int bx, int by,
                     const MbBuffer& pred, int qp, MbLevels& out);

/// Motion-compensated prediction of macroblock (bx, by) displaced by the
/// half-pel luma vector `mv` from `ref`: luma interpolated from ref.y(),
/// chroma with the derived chroma vector.
void predict_mb(const video::Frame& ref, int bx, int by, me::Mv mv,
                MbBuffer& pred);

/// Reconstructs an intra macroblock into `dst`.
void reconstruct_intra_mb(const MbLevels& mb, int qp, const MbSamples& dst);

/// Reconstructs an inter macroblock: dst = clamp(pred + residual).
void reconstruct_inter_mb(const MbLevels& mb, const MbBuffer& pred, int qp,
                          const MbSamples& dst);

/// SKIP reconstruction: copies macroblock (bx, by) of `ref` into `dst`.
void copy_mb(const video::Frame& ref, int bx, int by, const MbSamples& dst);

// ------------------------------------------------------------------ syntax

/// Writes the intra payload (DC levels, CBP, AC coefficients).
void write_intra_payload(util::BitWriter& bw, const MbLevels& mb);

/// Exact bit count write_intra_payload produces.
[[nodiscard]] std::uint32_t intra_payload_bits(const MbLevels& mb);

/// Reads an intra payload into `mb` (uncoded blocks read as zero). False on
/// malformed coefficient data.
[[nodiscard]] bool read_intra_payload(util::BitReader& br, MbLevels& mb);

/// Writes the inter body (CBP and coefficients).
void write_inter_body(util::BitWriter& bw, const MbLevels& mb);

/// Exact bit count write_inter_body produces.
[[nodiscard]] std::uint32_t inter_body_bits(const MbLevels& mb);

/// Reads an inter body into `mb` (uncoded blocks read as zero). False on
/// malformed coefficient data.
[[nodiscard]] bool read_inter_body(util::BitReader& br, MbLevels& mb);

}  // namespace acbm::codec
