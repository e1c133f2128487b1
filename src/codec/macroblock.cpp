#include "codec/macroblock.hpp"

#include <cstring>

#include "codec/block_codec.hpp"
#include "codec/coeff_coding.hpp"
#include "codec/mc.hpp"

namespace acbm::codec {

namespace {

constexpr int kChroma = kMbSize / 2;  // 8

/// Read-only counterpart of MbSamples, for sources and predictions.
struct MbSource {
  MbSource(const video::Frame& frame, int bx, int by)
      : y(frame.y().row(by * kMbSize) + bx * kMbSize),
        cb(frame.cb().row(by * kChroma) + bx * kChroma),
        cr(frame.cr().row(by * kChroma) + bx * kChroma),
        y_stride(frame.y().stride()),
        c_stride(frame.cb().stride()) {}
  explicit MbSource(const MbBuffer& buffer)
      : y(buffer.y), cb(buffer.cb), cr(buffer.cr), y_stride(kMbSize),
        c_stride(kChroma) {}

  const std::uint8_t* y;
  const std::uint8_t* cb;
  const std::uint8_t* cr;
  int y_stride;
  int c_stride;
};

/// Top-left sample of block b (coding order) of a macroblock view.
template <typename View>
auto* block(const View& mb, int b) {
  if (b < 4) {
    return mb.y + (b >> 1) * kDctSize * mb.y_stride + (b & 1) * kDctSize;
  }
  return b == 4 ? mb.cb : mb.cr;
}

template <typename View>
int stride(const View& mb, int b) {
  return b < 4 ? mb.y_stride : mb.c_stride;
}

/// CBP + the coefficients of every coded block — the part of the payload
/// intra and inter macroblocks share (intra blocks code DC out of band).
void write_coded_blocks(util::BitWriter& bw, const MbLevels& mb,
                        bool skip_dc) {
  bw.put_bits(mb.cbp, 6);
  for (int b = 0; b < kMbBlocks; ++b) {
    if ((mb.cbp >> b) & 1u) {
      encode_block_coeffs(bw, mb.levels[b], skip_dc);
    }
  }
}

std::uint32_t coded_blocks_bits(const MbLevels& mb, bool skip_dc) {
  std::uint32_t bits = 6;
  for (int b = 0; b < kMbBlocks; ++b) {
    if ((mb.cbp >> b) & 1u) {
      bits += block_coeff_bits(mb.levels[b], skip_dc);
    }
  }
  return bits;
}

bool read_coded_blocks(util::BitReader& br, MbLevels& mb, bool skip_dc) {
  mb.cbp = static_cast<std::uint32_t>(br.get_bits(6));
  for (int b = 0; b < kMbBlocks; ++b) {
    if ((mb.cbp >> b) & 1u) {
      if (!decode_block_coeffs(br, mb.levels[b], skip_dc)) {
        return false;
      }
    } else {
      std::memset(mb.levels[b], 0, sizeof(mb.levels[b]));
    }
  }
  return true;
}

}  // namespace

void encode_intra_mb(const video::Frame& src, int bx, int by, int qp,
                     MbLevels& out) {
  const MbSource s(src, bx, by);
  out.cbp = 0;
  for (int b = 0; b < kMbBlocks; ++b) {
    out.dc[b] = encode_intra_block(block(s, b), stride(s, b), out.levels[b],
                                   qp);
    if (block_has_coeffs(out.levels[b], /*skip_dc=*/true)) {
      out.cbp |= 1u << b;
    }
  }
}

void encode_inter_mb(const video::Frame& src, int bx, int by,
                     const MbBuffer& pred, int qp, MbLevels& out) {
  const MbSource s(src, bx, by);
  const MbSource p(pred);
  out.cbp = 0;
  for (int b = 0; b < kMbBlocks; ++b) {
    encode_inter_block(block(s, b), stride(s, b), block(p, b), stride(p, b),
                       out.levels[b], qp);
    if (block_has_coeffs(out.levels[b])) {
      out.cbp |= 1u << b;
    }
  }
}

void predict_mb(const video::Frame& ref, int bx, int by, me::Mv mv,
                MbBuffer& pred) {
  const int x = bx * kMbSize;
  const int y = by * kMbSize;
  predict_luma(video::HalfpelPlanes(ref.y()), x, y, mv, kMbSize, kMbSize,
               pred.y, kMbSize);
  const me::Mv cmv = derive_chroma_mv(mv);
  predict_chroma(ref.cb(), x / 2, y / 2, cmv, kChroma, kChroma, pred.cb,
                 kChroma);
  predict_chroma(ref.cr(), x / 2, y / 2, cmv, kChroma, kChroma, pred.cr,
                 kChroma);
}

void reconstruct_intra_mb(const MbLevels& mb, int qp, const MbSamples& dst) {
  for (int b = 0; b < kMbBlocks; ++b) {
    reconstruct_intra_block(mb.levels[b], mb.dc[b], qp, block(dst, b),
                            stride(dst, b));
  }
}

void reconstruct_inter_mb(const MbLevels& mb, const MbBuffer& pred, int qp,
                          const MbSamples& dst) {
  const MbSource p(pred);
  for (int b = 0; b < kMbBlocks; ++b) {
    reconstruct_inter_block(mb.levels[b], block(p, b), stride(p, b), qp,
                            block(dst, b), stride(dst, b));
  }
}

void copy_mb(const video::Frame& ref, int bx, int by, const MbSamples& dst) {
  const MbSource s(ref, bx, by);
  for (int row = 0; row < kMbSize; ++row) {
    std::memcpy(dst.y + row * dst.y_stride, s.y + row * s.y_stride, kMbSize);
  }
  for (int row = 0; row < kChroma; ++row) {
    std::memcpy(dst.cb + row * dst.c_stride, s.cb + row * s.c_stride, kChroma);
    std::memcpy(dst.cr + row * dst.c_stride, s.cr + row * s.c_stride, kChroma);
  }
}

void write_intra_payload(util::BitWriter& bw, const MbLevels& mb) {
  for (const std::uint8_t dc : mb.dc) {
    bw.put_bits(dc, 8);
  }
  write_coded_blocks(bw, mb, /*skip_dc=*/true);
}

std::uint32_t intra_payload_bits(const MbLevels& mb) {
  return kMbBlocks * 8 + coded_blocks_bits(mb, /*skip_dc=*/true);
}

bool read_intra_payload(util::BitReader& br, MbLevels& mb) {
  for (std::uint8_t& dc : mb.dc) {
    dc = static_cast<std::uint8_t>(br.get_bits(8));
  }
  return read_coded_blocks(br, mb, /*skip_dc=*/true);
}

void write_inter_body(util::BitWriter& bw, const MbLevels& mb) {
  write_coded_blocks(bw, mb, /*skip_dc=*/false);
}

std::uint32_t inter_body_bits(const MbLevels& mb) {
  return coded_blocks_bits(mb, /*skip_dc=*/false);
}

bool read_inter_body(util::BitReader& br, MbLevels& mb) {
  return read_coded_blocks(br, mb, /*skip_dc=*/false);
}

}  // namespace acbm::codec
