#include "codec/ref_decoder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

// Everything below is written from the wire-format documentation, not from
// the optimized decoder's sources: simple loops, per-sample clamping, fresh
// vectors per frame. Keep it that way — the value of this file is exactly
// its independence.

namespace acbm::codec {

namespace {

constexpr int kMacroblock = 16;
constexpr int kBlock = 8;
constexpr int kBlockSamples = kBlock * kBlock;

// Wire constants, from the format description in docs/ARCHITECTURE.md.
constexpr std::uint32_t kRefMagicV1 = 0x41435631;  // "ACV1"
constexpr std::uint32_t kRefMagicV2 = 0x41435632;  // "ACV2"
constexpr std::uint32_t kRefFrameSync = 0x7E5A;
constexpr std::uint32_t kRefSliceSync = 0x534C;  // "SL"
constexpr std::uint32_t kRefEob = 64;            // end-of-block escape run
constexpr int kRefMinQp = 1;
constexpr int kRefMaxQp = 31;
constexpr int kRefMaxDimension = 4096;
constexpr int kRefCoeffLimit = 2047;
// Compensated reads must stay within this many samples of the picture edge
// (the optimized decoder's 24-sample replicated border, minus the sample the
// half-pel interpolation reads past the block).
constexpr int kRefMvMargin = 23;

// --- Exp-Golomb -----------------------------------------------------------

std::uint32_t read_ue(RefDecoder::BitCursor&);

// --- Zig-zag scan, derived from the diagonal walk (H.263 Figure 14) -------

struct ZigzagTable {
  std::array<int, kBlockSamples> raster_of_scan{};

  ZigzagTable() {
    int k = 0;
    for (int d = 0; d <= 2 * (kBlock - 1); ++d) {
      // Diagonal d holds cells with row+col == d. Odd diagonals walk with
      // the row increasing, even diagonals with the row decreasing.
      const int lo = std::max(0, d - (kBlock - 1));
      const int hi = std::min(kBlock - 1, d);
      if ((d & 1) != 0) {
        for (int row = lo; row <= hi; ++row) {
          raster_of_scan[static_cast<std::size_t>(k++)] =
              row * kBlock + (d - row);
        }
      } else {
        for (int row = hi; row >= lo; --row) {
          raster_of_scan[static_cast<std::size_t>(k++)] =
              row * kBlock + (d - row);
        }
      }
    }
  }
};

const ZigzagTable kZigzag;

// --- Inverse DCT ----------------------------------------------------------
//
// Orthonormal basis and columns-then-rows accumulation order; both are
// normative for sample-exactness (see ref_decoder.hpp).

struct RefBasis {
  double b[kBlock][kBlock];

  RefBasis() {
    for (int u = 0; u < kBlock; ++u) {
      const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
      for (int x = 0; x < kBlock; ++x) {
        b[u][x] = 0.5 * cu *
                  std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
      }
    }
  }
};

const RefBasis kRefBasis;

void ref_inverse_dct(const int coeffs[kBlockSamples],
                     int spatial[kBlockSamples]) {
  double in[kBlockSamples];
  for (int i = 0; i < kBlockSamples; ++i) {
    in[i] = coeffs[i];
  }
  double tmp[kBlockSamples];
  for (int u = 0; u < kBlock; ++u) {
    for (int y = 0; y < kBlock; ++y) {
      double s = 0.0;
      for (int v = 0; v < kBlock; ++v) {
        s += kRefBasis.b[v][y] * in[v * kBlock + u];
      }
      tmp[y * kBlock + u] = s;
    }
  }
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      double s = 0.0;
      for (int u = 0; u < kBlock; ++u) {
        s += kRefBasis.b[u][x] * tmp[y * kBlock + u];
      }
      const long r = std::lround(s);
      spatial[y * kBlock + x] =
          static_cast<int>(std::clamp<long>(r, -512, 512));
    }
  }
}

// --- Dequantization (H.263/TMN) -------------------------------------------

int ref_dequant_ac(int level, int qp) {
  if (level == 0) {
    return 0;
  }
  const int mag = level < 0 ? -level : level;
  int rec = qp * (2 * mag + 1);
  if ((qp & 1) == 0) {
    rec -= 1;
  }
  rec = std::min(rec, kRefCoeffLimit);
  return level < 0 ? -rec : rec;
}

// --- Clamped picture sampling ---------------------------------------------
//
// The optimized decoder replicates each plane's edge samples into a border;
// sampling with clamped coordinates reads the same values without one.

int clamp_coord(int v, int limit) { return std::clamp(v, 0, limit - 1); }

std::uint8_t sample(const std::vector<std::uint8_t>& plane, int w, int h,
                    int x, int y) {
  return plane[static_cast<std::size_t>(clamp_coord(y, h)) *
                   static_cast<std::size_t>(w) +
               static_cast<std::size_t>(clamp_coord(x, w))];
}

/// One sample at half-pel coordinates (hx, hy), H.263 rounding.
std::uint8_t halfpel_sample(const std::vector<std::uint8_t>& plane, int w,
                            int h, int hx, int hy) {
  const int phase_h = hx & 1;
  const int phase_v = hy & 1;
  const int x = (hx - phase_h) >> 1;
  const int y = (hy - phase_v) >> 1;
  const int a = sample(plane, w, h, x, y);
  if (phase_h == 0 && phase_v == 0) {
    return static_cast<std::uint8_t>(a);
  }
  if (phase_v == 0) {
    return static_cast<std::uint8_t>((a + sample(plane, w, h, x + 1, y) + 1) >>
                                     1);
  }
  if (phase_h == 0) {
    return static_cast<std::uint8_t>((a + sample(plane, w, h, x, y + 1) + 1) >>
                                     1);
  }
  return static_cast<std::uint8_t>(
      (a + sample(plane, w, h, x + 1, y) + sample(plane, w, h, x, y + 1) +
       sample(plane, w, h, x + 1, y + 1) + 2) >>
      2);
}

std::uint8_t clamp_sample(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

// --- Deblocking (H.263 Annex J) -------------------------------------------

int ref_deblock_strength(int qp) {
  static constexpr int kStrength[32] = {
      0,  1, 1, 2, 2, 3, 3, 4,  4,  4,  5,  5,  6,  6,  7,  7,
      7,  8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12};
  return kStrength[std::clamp(qp, kRefMinQp, kRefMaxQp)];
}

void ref_deblock_edge(std::uint8_t& a, std::uint8_t& b, std::uint8_t& c,
                      std::uint8_t& d, int strength) {
  const int ia = a;
  const int ib = b;
  const int ic = c;
  const int id = d;
  const int diff = (ia - 4 * ib + 4 * ic - id) / 8;
  const int adiff = std::abs(diff);
  const int ramp = std::max(0, adiff - std::max(0, 2 * (adiff - strength)));
  const int d1 = diff >= 0 ? ramp : -ramp;
  const int half = std::abs(d1) / 2;
  const int d2 = std::clamp((ia - id) / 4, -half, half);
  a = clamp_sample(ia - d2);
  b = clamp_sample(ib + d1);
  c = clamp_sample(ic - d1);
  d = clamp_sample(id + d2);
}

void ref_deblock_plane(std::vector<std::uint8_t>& plane, int w, int h,
                       int qp) {
  const int strength = ref_deblock_strength(qp);
  if (strength == 0 || w == 0 || h == 0) {
    return;
  }
  auto at = [&](int x, int y) -> std::uint8_t& {
    return plane[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                 static_cast<std::size_t>(x)];
  };
  // Horizontal block edges first, then vertical — the order is normative.
  for (int edge = kBlock; edge < h; edge += kBlock) {
    for (int x = 0; x < w; ++x) {
      ref_deblock_edge(at(x, edge - 2), at(x, edge - 1), at(x, edge),
                       at(x, edge + 1), strength);
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int edge = kBlock; edge < w; edge += kBlock) {
      ref_deblock_edge(at(edge - 2, y), at(edge - 1, y), at(edge, y),
                       at(edge + 1, y), strength);
    }
  }
}

// --- Coefficient decoding --------------------------------------------------

std::int32_t read_se(RefDecoder::BitCursor& bc) {
  const std::uint32_t mapped = read_ue(bc);
  if (mapped == 0) {
    return 0;
  }
  const std::uint32_t half = (mapped + 1) / 2;
  return (mapped & 1u) != 0 ? static_cast<std::int32_t>(half)
                            : -static_cast<std::int32_t>(half);
}

/// Decodes one block's run/level events into raster-order levels. Returns
/// false on a malformed stream.
bool decode_coeffs(RefDecoder::BitCursor& bc, int levels[kBlockSamples],
                   bool skip_dc) {
  // Levels are 16-bit on the wire's reconstruction path; a corrupt stream's
  // oversized se() value wraps through int16 exactly as it does there.
  std::int16_t scanned[kBlockSamples] = {};
  int k = skip_dc ? 1 : 0;
  while (true) {
    const std::uint32_t run = read_ue(bc);
    if (bc.exhausted) {
      return false;
    }
    if (run == kRefEob) {
      break;
    }
    if (run > 63) {
      return false;
    }
    const std::int32_t level = read_se(bc);
    if (bc.exhausted || level == 0) {
      return false;
    }
    k += static_cast<int>(run);
    if (k >= kBlockSamples) {
      return false;
    }
    scanned[k] = static_cast<std::int16_t>(level);
    ++k;
  }
  for (int i = 0; i < kBlockSamples; ++i) {
    levels[kZigzag.raster_of_scan[static_cast<std::size_t>(i)]] = scanned[i];
  }
  return true;
}

std::uint32_t read_ue(RefDecoder::BitCursor& bc) {
  int zeros = 0;
  while (!bc.exhausted && bc.get_bits(1) == 0) {
    ++zeros;
    if (zeros > 32) {  // malformed stream guard
      return 0;
    }
  }
  if (bc.exhausted) {
    return 0;
  }
  const std::uint64_t rest = bc.get_bits(zeros);
  const std::uint64_t v = (std::uint64_t{1} << zeros) | rest;
  return static_cast<std::uint32_t>(v - 1);
}

}  // namespace

// --- BitCursor -------------------------------------------------------------

std::uint64_t RefDecoder::BitCursor::get_bits(int count) {
  std::uint64_t value = 0;
  for (int i = 0; i < count; ++i) {
    const std::size_t byte_index = bit_pos >> 3;
    std::uint64_t bit = 0;
    if (byte_index < size) {
      const int shift = 7 - static_cast<int>(bit_pos & 7u);
      bit = (data[byte_index] >> shift) & 1u;
      ++bit_pos;
    } else {
      exhausted = true;
    }
    value = (value << 1) | bit;
  }
  return value;
}

void RefDecoder::BitCursor::align() {
  bit_pos = (bit_pos + 7u) & ~std::size_t{7};
  if (bit_pos > bit_size()) {
    bit_pos = bit_size();
  }
}

void RefDecoder::BitCursor::skip_bits(std::size_t count) {
  if (count > bit_size() - bit_pos) {
    bit_pos = bit_size();
    exhausted = true;
    return;
  }
  bit_pos += count;
}

// --- RefDecoder ------------------------------------------------------------

RefDecoder::RefDecoder(std::span<const std::uint8_t> data,
                       bool conceal_resync)
    : data_(data.begin(), data.end()), conceal_resync_(conceal_resync) {
  reader_.data = data_.data();
  reader_.size = data_.size();
  const std::uint32_t magic =
      static_cast<std::uint32_t>(reader_.get_bits(32));
  if ((magic != kRefMagicV1 && magic != kRefMagicV2) || reader_.exhausted) {
    throw RefDecodeError("ref decoder: missing ACV1/ACV2 magic");
  }
  version_ = magic == kRefMagicV2 ? 2 : 1;
  width_ = static_cast<int>(reader_.get_bits(16));
  height_ = static_cast<int>(reader_.get_bits(16));
  fps_num_ = static_cast<int>(reader_.get_bits(16));
  fps_den_ = static_cast<int>(reader_.get_bits(16));
  if (reader_.exhausted || width_ <= 0 || height_ <= 0 ||
      width_ % kMacroblock != 0 || height_ % kMacroblock != 0 ||
      width_ > kRefMaxDimension || height_ > kRefMaxDimension) {
    throw RefDecodeError("ref decoder: invalid sequence header");
  }
  mbs_x_ = width_ / kMacroblock;
  mbs_y_ = height_ / kMacroblock;
  ref_.width = width_;
  ref_.height = height_;
  ref_.y.assign(static_cast<std::size_t>(width_) * height_, 0);
  ref_.cb.assign(static_cast<std::size_t>(width_ / 2) * (height_ / 2), 0);
  ref_.cr.assign(static_cast<std::size_t>(width_ / 2) * (height_ / 2), 0);
}

std::optional<RefPicture> RefDecoder::decode_frame() {
  if (conceal_resync_ && version_ == 2) {
    return decode_frame_resync();
  }
  return decode_frame_strict();
}

RefPicture RefDecoder::fresh_picture() {
  RefPicture out;
  out.width = width_;
  out.height = height_;
  out.y.assign(static_cast<std::size_t>(width_) * height_, 0);
  out.cb.assign(static_cast<std::size_t>(width_ / 2) * (height_ / 2), 0);
  out.cr.assign(static_cast<std::size_t>(width_ / 2) * (height_ / 2), 0);
  coded_mvx_.assign(static_cast<std::size_t>(mbs_x_) * mbs_y_, 0);
  coded_mvy_.assign(static_cast<std::size_t>(mbs_x_) * mbs_y_, 0);
  return out;
}

void RefDecoder::finish_frame(RefPicture& out, int qp, bool deblock) {
  if (deblock) {
    ref_deblock_plane(out.y, width_, height_, qp);
    ref_deblock_plane(out.cb, width_ / 2, height_ / 2, qp);
    ref_deblock_plane(out.cr, width_ / 2, height_ / 2, qp);
  }
  ref_ = out;
  first_frame_ = false;
}

std::optional<RefPicture> RefDecoder::decode_frame_strict() {
  reader_.align();
  if (reader_.bits_left() < 16 + 1 + 5 + 1) {
    return std::nullopt;  // clean end of stream
  }
  if (reader_.get_bits(16) != kRefFrameSync) {
    throw RefDecodeError("ref decoder: lost frame sync");
  }
  const bool inter_frame = reader_.get_bit();
  const int qp = static_cast<int>(reader_.get_bits(5));
  const bool deblock = reader_.get_bit();
  if (qp < kRefMinQp || qp > kRefMaxQp) {
    throw RefDecodeError("ref decoder: qp out of range");
  }
  if (first_frame_ && inter_frame) {
    throw RefDecodeError("ref decoder: first frame must be intra");
  }

  RefPicture out = fresh_picture();
  if (version_ == 2) {
    decode_frame_slices(out, qp, inter_frame);
  } else {
    decode_frame_v1(out, qp, inter_frame);
  }
  finish_frame(out, qp, deblock);
  return out;
}

std::optional<RefPicture> RefDecoder::decode_frame_resync() {
  // The normative recovery rules (docs/RESILIENCE.md), implemented here
  // from the text and nowhere shared with codec::Decoder: a frame header
  // that fails any check emits nothing and the cursor scans forward from
  // the byte after the sync position; slice-directory damage is handled by
  // decode_frame_slices_resync (which emits a partially concealed frame).
  while (true) {
    reader_.align();
    if (reader_.bits_left() < 16 + 1 + 5 + 1) {
      return std::nullopt;  // clean end of stream
    }
    const std::size_t frame_start = reader_.bit_pos / 8;
    const std::uint32_t sync =
        static_cast<std::uint32_t>(reader_.get_bits(16));
    const bool inter_frame = reader_.get_bit();
    const int qp = static_cast<int>(reader_.get_bits(5));
    const bool deblock = reader_.get_bit();
    if (sync != kRefFrameSync || qp < kRefMinQp || qp > kRefMaxQp ||
        (first_frame_ && inter_frame)) {
      ++resync_skips_;
      if (!find_restart(frame_start + 1)) {
        return std::nullopt;
      }
      continue;
    }
    // Header validated ⇒ the frame will be emitted (directory damage only
    // conceals), so it can serve as a reference: clear first_frame_ before
    // any scan inside decode_frame_slices_resync rejects inter headers.
    first_frame_ = false;
    RefPicture out = fresh_picture();
    decode_frame_slices_resync(out, qp, inter_frame);
    finish_frame(out, qp, deblock);
    return out;
  }
}

std::vector<RefPicture> RefDecoder::decode_all() {
  std::vector<RefPicture> frames;
  while (auto frame = decode_frame()) {
    frames.push_back(std::move(*frame));
  }
  return frames;
}

void RefDecoder::decode_frame_v1(RefPicture& out, int qp, bool inter_frame) {
  last_frame_slices_ = 1;
  // No slice boundaries: corruption anywhere in the frame is a hard error.
  if (!decode_rows(reader_, out, qp, inter_frame, 0, mbs_y_,
                   /*first_row=*/0) ||
      reader_.exhausted) {
    throw RefDecodeError("ref decoder: corrupt frame");
  }
}

void RefDecoder::decode_frame_slices(RefPicture& out, int qp,
                                     bool inter_frame) {
  reader_.align();
  const int slice_count = static_cast<int>(reader_.get_bits(8));
  if (reader_.exhausted || slice_count < 1 || slice_count > mbs_y_) {
    throw RefDecodeError("ref decoder: invalid slice count");
  }

  // Walk the directory: per slice a sync word, its index, its first MB row,
  // and the byte length of its aligned payload.
  struct Slice {
    int first_row = 0;
    int end_row = 0;
    std::size_t offset = 0;
    std::size_t bytes = 0;
  };
  std::vector<Slice> slices(static_cast<std::size_t>(slice_count));
  for (int s = 0; s < slice_count; ++s) {
    Slice& entry = slices[static_cast<std::size_t>(s)];
    reader_.align();
    const std::uint32_t sync =
        static_cast<std::uint32_t>(reader_.get_bits(16));
    const int index = static_cast<int>(reader_.get_bits(8));
    const int first_row = static_cast<int>(reader_.get_bits(16));
    const std::uint64_t payload_bytes = reader_.get_bits(32);
    if (reader_.exhausted || sync != kRefSliceSync || index != s) {
      throw RefDecodeError("ref decoder: lost slice sync");
    }
    const int prev_first =
        s > 0 ? slices[static_cast<std::size_t>(s) - 1].first_row : 0;
    if (first_row >= mbs_y_ ||
        (s == 0 ? first_row != 0 : first_row <= prev_first)) {
      throw RefDecodeError("ref decoder: invalid slice row layout");
    }
    if (payload_bytes > reader_.bits_left() / 8) {
      throw RefDecodeError("ref decoder: truncated slice payload");
    }
    entry.first_row = first_row;
    entry.offset = reader_.bit_pos / 8;  // aligned above
    entry.bytes = static_cast<std::size_t>(payload_bytes);
    reader_.skip_bits(entry.bytes * 8);
  }
  for (int s = 0; s < slice_count; ++s) {
    slices[static_cast<std::size_t>(s)].end_row =
        s + 1 < slice_count
            ? slices[static_cast<std::size_t>(s) + 1].first_row
            : mbs_y_;
  }

  // Decode every payload serially from its own cursor; a payload is good
  // when its rows decode and only alignment padding (< 8 bits) remains.
  // Bad payloads are concealed: the region copies the reference and its
  // vectors read as zero.
  for (const Slice& entry : slices) {
    BitCursor bc;
    bc.data = data_.data() + entry.offset;
    bc.size = entry.bytes;
    const bool ok = decode_rows(bc, out, qp, inter_frame, entry.first_row,
                                entry.end_row, entry.first_row) &&
                    bc.bits_left() < 8;
    if (!ok) {
      conceal_rows(out, entry.first_row, entry.end_row);
      ++concealed_slices_;
    }
  }
  last_frame_slices_ = slice_count;
}

void RefDecoder::decode_frame_slices_resync(RefPicture& out, int qp,
                                            bool inter_frame) {
  reader_.align();
  const std::size_t count_pos = reader_.bit_pos / 8;
  const int slice_count = static_cast<int>(reader_.get_bits(8));
  if (reader_.exhausted || slice_count < 1 || slice_count > mbs_y_) {
    // Unusable slice count: the whole picture is concealed (one
    // concealment) and decoding scans on from the byte after the count.
    conceal_rows(out, 0, mbs_y_);
    concealed_slices_ += 1;
    last_frame_slices_ = 1;
    ++resync_skips_;
    find_restart(count_pos + 1);
    return;
  }

  // Walk the directory, stopping at the first entry that fails an
  // invariant instead of throwing.
  std::vector<int> first_rows;
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> lengths;
  int valid = slice_count;
  std::size_t damage_pos = 0;
  for (int s = 0; s < slice_count; ++s) {
    reader_.align();
    const std::size_t entry_pos = reader_.bit_pos / 8;
    const std::uint32_t sync =
        static_cast<std::uint32_t>(reader_.get_bits(16));
    const int index = static_cast<int>(reader_.get_bits(8));
    const int first_row = static_cast<int>(reader_.get_bits(16));
    const std::uint64_t payload_bytes = reader_.get_bits(32);
    const int prev_first = s > 0 ? first_rows.back() : 0;
    if (reader_.exhausted || sync != kRefSliceSync || index != s ||
        first_row >= mbs_y_ ||
        (s == 0 ? first_row != 0 : first_row <= prev_first) ||
        payload_bytes > reader_.bits_left() / 8) {
      valid = s;
      damage_pos = entry_pos;
      break;
    }
    first_rows.push_back(first_row);
    offsets.push_back(reader_.bit_pos / 8);
    lengths.push_back(static_cast<std::size_t>(payload_bytes));
    reader_.skip_bits(payload_bytes * 8);
  }

  // Decode every slice whose row extent is known: all of them when the
  // directory is intact, the first valid-1 when entry `valid` is damaged
  // (the last parsed entry's extent would depend on the damaged one).
  const bool intact = valid == slice_count;
  const int decodable = intact ? slice_count : std::max(0, valid - 1);
  for (int s = 0; s < decodable; ++s) {
    const int end_row = s + 1 < slice_count
                            ? (s + 1 < static_cast<int>(first_rows.size())
                                   ? first_rows[static_cast<std::size_t>(s) + 1]
                                   : mbs_y_)
                            : mbs_y_;
    BitCursor bc;
    bc.data = data_.data() + offsets[static_cast<std::size_t>(s)];
    bc.size = lengths[static_cast<std::size_t>(s)];
    const bool ok =
        decode_rows(bc, out, qp, inter_frame,
                    first_rows[static_cast<std::size_t>(s)], end_row,
                    first_rows[static_cast<std::size_t>(s)]) &&
        bc.bits_left() < 8;
    if (!ok) {
      conceal_rows(out, first_rows[static_cast<std::size_t>(s)], end_row);
      ++concealed_slices_;
    }
  }
  last_frame_slices_ = slice_count;
  if (intact) {
    return;
  }
  // Conceal the unreachable remainder — from the last parsed entry's first
  // row (all rows when the very first entry is damaged) — counted as the
  // slices it replaces, then scan from the byte after the damaged entry.
  const int conceal_from = valid >= 1 ? first_rows.back() : 0;
  conceal_rows(out, conceal_from, mbs_y_);
  concealed_slices_ +=
      static_cast<std::uint64_t>(slice_count - std::max(0, valid - 1));
  ++resync_skips_;
  find_restart(damage_pos + 1);
}

bool RefDecoder::find_restart(std::size_t from_byte) {
  // Resynchronisation scan (normative, docs/RESILIENCE.md): an offset is a
  // restart point iff the frame sync, header fields, slice count and the
  // complete slice directory (hopping payload lengths) all validate.
  for (std::size_t o = from_byte; o + 4 <= data_.size(); ++o) {
    if (data_[o] != 0x7E || data_[o + 1] != 0x5A) {
      continue;
    }
    const std::uint8_t fields = data_[o + 2];
    const bool inter = (fields & 0x80u) != 0;
    const int qp = (fields >> 2) & 0x1F;
    if (qp < kRefMinQp || qp > kRefMaxQp) {
      continue;
    }
    if (first_frame_ && inter) {
      continue;  // before any emitted frame the restart must be intra
    }
    const int count = data_[o + 3];
    if (count < 1 || count > mbs_y_) {
      continue;
    }
    std::size_t p = o + 4;
    bool ok = true;
    int prev_first = 0;
    for (int s = 0; s < count; ++s) {
      if (data_.size() - p < 9) {
        ok = false;
        break;
      }
      const std::uint32_t sync =
          (static_cast<std::uint32_t>(data_[p]) << 8) | data_[p + 1];
      const int first_row =
          (static_cast<int>(data_[p + 3]) << 8) | data_[p + 4];
      const std::size_t len =
          (static_cast<std::size_t>(data_[p + 5]) << 24) |
          (static_cast<std::size_t>(data_[p + 6]) << 16) |
          (static_cast<std::size_t>(data_[p + 7]) << 8) |
          static_cast<std::size_t>(data_[p + 8]);
      if (sync != kRefSliceSync || data_[p + 2] != s || first_row >= mbs_y_ ||
          (s == 0 ? first_row != 0 : first_row <= prev_first) ||
          len > data_.size() - (p + 9)) {
        ok = false;
        break;
      }
      prev_first = first_row;
      p += 9 + len;
    }
    if (!ok) {
      continue;
    }
    reader_.bit_pos = o * 8;
    reader_.exhausted = false;
    return true;
  }
  reader_.bit_pos = reader_.bit_size();
  return false;
}

bool RefDecoder::decode_rows(BitCursor& bc, RefPicture& out, int qp,
                             bool inter_frame, int row_begin, int row_end,
                             int first_row) {
  for (int by = row_begin; by < row_end; ++by) {
    for (int bx = 0; bx < mbs_x_; ++bx) {
      if (!inter_frame) {
        if (!decode_intra_mb(bc, out, bx, by, qp)) {
          return false;
        }
        continue;
      }
      const bool skip = bc.get_bit();  // COD
      if (skip) {
        copy_skip_mb(out, bx, by);
        coded_mvx_[static_cast<std::size_t>(by) * mbs_x_ + bx] = 0;
        coded_mvy_[static_cast<std::size_t>(by) * mbs_x_ + bx] = 0;
        continue;
      }
      const bool intra = bc.get_bit();
      if (intra) {
        if (!decode_intra_mb(bc, out, bx, by, qp)) {
          return false;
        }
        continue;
      }
      int px = 0;
      int py = 0;
      predicted_mv(bx, by, first_row, px, py);
      const int mvx = px + read_se(bc);
      const int mvy = py + read_se(bc);
      if (!mv_in_reference(mvx, mvy, bx * kMacroblock, by * kMacroblock)) {
        return false;  // corrupt MVD pointing outside the reference margin
      }
      if (!decode_inter_mb(bc, out, bx, by, qp, mvx, mvy)) {
        return false;
      }
      coded_mvx_[static_cast<std::size_t>(by) * mbs_x_ + bx] = mvx;
      coded_mvy_[static_cast<std::size_t>(by) * mbs_x_ + bx] = mvy;
      if (bc.exhausted) {
        return false;  // truncated macroblock data
      }
    }
  }
  return !bc.exhausted;
}

void RefDecoder::predicted_mv(int bx, int by, int first_row, int& px,
                              int& py) const {
  // H.263 §6.1.1 median of left, above, above-right; outside-picture (or,
  // for slices, outside-slice) candidates are zero, except that in a
  // slice's first row the left candidate is used directly.
  auto mv_at = [&](int x, int y, int& ox, int& oy) {
    if (x < 0 || x >= mbs_x_ || y < 0 || y >= mbs_y_) {
      ox = 0;
      oy = 0;
      return;
    }
    const std::size_t i =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(mbs_x_) +
        static_cast<std::size_t>(x);
    ox = coded_mvx_[i];
    oy = coded_mvy_[i];
  };
  int lx = 0;
  int ly = 0;
  mv_at(bx - 1, by, lx, ly);
  if (by == first_row) {
    px = lx;
    py = ly;
    return;
  }
  int ax = 0;
  int ay = 0;
  int rx = 0;
  int ry = 0;
  mv_at(bx, by - 1, ax, ay);
  mv_at(bx + 1, by - 1, rx, ry);
  auto median3 = [](int a, int b, int c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };
  px = median3(lx, ax, rx);
  py = median3(ly, ay, ry);
}

bool RefDecoder::mv_in_reference(int mvx, int mvy, int x, int y) const {
  const int ix = (mvx - (mvx & 1)) >> 1;
  const int iy = (mvy - (mvy & 1)) >> 1;
  return x + ix >= -kRefMvMargin &&
         x + ix + kMacroblock <= width_ + kRefMvMargin &&
         y + iy >= -kRefMvMargin &&
         y + iy + kMacroblock <= height_ + kRefMvMargin;
}

void RefDecoder::conceal_rows(RefPicture& out, int row_begin, int row_end) {
  for (int by = row_begin; by < row_end; ++by) {
    for (int bx = 0; bx < mbs_x_; ++bx) {
      copy_skip_mb(out, bx, by);
      coded_mvx_[static_cast<std::size_t>(by) * mbs_x_ + bx] = 0;
      coded_mvy_[static_cast<std::size_t>(by) * mbs_x_ + bx] = 0;
    }
  }
}

bool RefDecoder::decode_intra_mb(BitCursor& bc, RefPicture& out, int bx,
                                 int by, int qp) {
  const int x = bx * kMacroblock;
  const int y = by * kMacroblock;

  int dc[6];
  for (int& d : dc) {
    d = static_cast<int>(bc.get_bits(8));
  }
  const std::uint32_t cbp = static_cast<std::uint32_t>(bc.get_bits(6));

  int levels[6][kBlockSamples] = {};
  for (int b = 0; b < 6; ++b) {
    if ((cbp >> b) & 1u) {
      if (!decode_coeffs(bc, levels[b], /*skip_dc=*/true)) {
        return false;
      }
    }
  }

  // Blocks in Y00 Y10 Y01 Y11 Cb Cr order; intra DC is coded out of band at
  // a fixed step of 8 and the AC coefficients dequantize per H.263.
  auto reconstruct = [&](const int lv[kBlockSamples], int dc_level,
                         std::vector<std::uint8_t>& plane, int w, int px,
                         int py) {
    int coeffs[kBlockSamples];
    for (int i = 0; i < kBlockSamples; ++i) {
      coeffs[i] = ref_dequant_ac(static_cast<int>(lv[i]), qp);
    }
    coeffs[0] = dc_level * 8;
    int spatial[kBlockSamples];
    ref_inverse_dct(coeffs, spatial);
    for (int r = 0; r < kBlock; ++r) {
      for (int c = 0; c < kBlock; ++c) {
        plane[static_cast<std::size_t>(py + r) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(px + c)] =
            clamp_sample(spatial[r * kBlock + c]);
      }
    }
  };
  reconstruct(levels[0], dc[0], out.y, width_, x, y);
  reconstruct(levels[1], dc[1], out.y, width_, x + kBlock, y);
  reconstruct(levels[2], dc[2], out.y, width_, x, y + kBlock);
  reconstruct(levels[3], dc[3], out.y, width_, x + kBlock, y + kBlock);
  reconstruct(levels[4], dc[4], out.cb, width_ / 2, x / 2, y / 2);
  reconstruct(levels[5], dc[5], out.cr, width_ / 2, x / 2, y / 2);
  coded_mvx_[static_cast<std::size_t>(by) * mbs_x_ + bx] = 0;
  coded_mvy_[static_cast<std::size_t>(by) * mbs_x_ + bx] = 0;
  return true;
}

bool RefDecoder::decode_inter_mb(BitCursor& bc, RefPicture& out, int bx,
                                 int by, int qp, int mvx, int mvy) {
  const int x = bx * kMacroblock;
  const int y = by * kMacroblock;

  const std::uint32_t cbp = static_cast<std::uint32_t>(bc.get_bits(6));
  int levels[6][kBlockSamples] = {};
  for (int b = 0; b < 6; ++b) {
    if ((cbp >> b) & 1u) {
      if (!decode_coeffs(bc, levels[b], /*skip_dc=*/false)) {
        return false;
      }
    }
  }

  // Luma prediction: half-pel phases from the vector's low bits, bilinear
  // H.263 rounding, sampled from the previous reconstruction.
  std::vector<std::uint8_t> pred_y(kMacroblock * kMacroblock);
  const int phase_h = mvx & 1;
  const int phase_v = mvy & 1;
  const int rx = x + ((mvx - phase_h) >> 1);
  const int ry = y + ((mvy - phase_v) >> 1);
  for (int row = 0; row < kMacroblock; ++row) {
    for (int col = 0; col < kMacroblock; ++col) {
      const int a = sample(ref_.y, width_, height_, rx + col, ry + row);
      int value;
      if (phase_h == 0 && phase_v == 0) {
        value = a;
      } else if (phase_v == 0) {
        value =
            (a + sample(ref_.y, width_, height_, rx + col + 1, ry + row) + 1) >>
            1;
      } else if (phase_h == 0) {
        value =
            (a + sample(ref_.y, width_, height_, rx + col, ry + row + 1) + 1) >>
            1;
      } else {
        value = (a + sample(ref_.y, width_, height_, rx + col + 1, ry + row) +
                 sample(ref_.y, width_, height_, rx + col, ry + row + 1) +
                 sample(ref_.y, width_, height_, rx + col + 1, ry + row + 1) +
                 2) >>
                2;
      }
      pred_y[static_cast<std::size_t>(row) * kMacroblock +
             static_cast<std::size_t>(col)] =
          static_cast<std::uint8_t>(value);
    }
  }

  // Chroma vector: halve each component rounding any fractional chroma
  // position to the half-sample grid, then sample half-pel.
  auto chroma_component = [](int v) {
    const int sign = v < 0 ? -1 : 1;
    const int a = v < 0 ? -v : v;
    return sign * ((a >> 2) * 2 + ((a & 3) != 0 ? 1 : 0));
  };
  const int cmvx = chroma_component(mvx);
  const int cmvy = chroma_component(mvy);
  const int cw = width_ / 2;
  const int ch = height_ / 2;
  std::vector<std::uint8_t> pred_cb(kBlockSamples);
  std::vector<std::uint8_t> pred_cr(kBlockSamples);
  for (int row = 0; row < kBlock; ++row) {
    for (int col = 0; col < kBlock; ++col) {
      const int hx = (x / 2 + col) * 2 + cmvx;
      const int hy = (y / 2 + row) * 2 + cmvy;
      pred_cb[static_cast<std::size_t>(row) * kBlock + col] =
          halfpel_sample(ref_.cb, cw, ch, hx, hy);
      pred_cr[static_cast<std::size_t>(row) * kBlock + col] =
          halfpel_sample(ref_.cr, cw, ch, hx, hy);
    }
  }

  auto reconstruct = [&](const int lv[kBlockSamples],
                         const std::vector<std::uint8_t>& pred,
                         int pred_stride, int pred_ox, int pred_oy,
                         std::vector<std::uint8_t>& plane, int w, int px,
                         int py) {
    int coeffs[kBlockSamples];
    for (int i = 0; i < kBlockSamples; ++i) {
      coeffs[i] = ref_dequant_ac(static_cast<int>(lv[i]), qp);
    }
    int residual[kBlockSamples];
    ref_inverse_dct(coeffs, residual);
    for (int r = 0; r < kBlock; ++r) {
      for (int c = 0; c < kBlock; ++c) {
        const int p =
            pred[static_cast<std::size_t>(pred_oy + r) * pred_stride +
                 static_cast<std::size_t>(pred_ox + c)];
        plane[static_cast<std::size_t>(py + r) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(px + c)] =
            clamp_sample(p + residual[r * kBlock + c]);
      }
    }
  };
  reconstruct(levels[0], pred_y, kMacroblock, 0, 0, out.y, width_, x, y);
  reconstruct(levels[1], pred_y, kMacroblock, kBlock, 0, out.y, width_,
              x + kBlock, y);
  reconstruct(levels[2], pred_y, kMacroblock, 0, kBlock, out.y, width_, x,
              y + kBlock);
  reconstruct(levels[3], pred_y, kMacroblock, kBlock, kBlock, out.y, width_,
              x + kBlock, y + kBlock);
  reconstruct(levels[4], pred_cb, kBlock, 0, 0, out.cb, cw, x / 2, y / 2);
  reconstruct(levels[5], pred_cr, kBlock, 0, 0, out.cr, cw, x / 2, y / 2);
  return true;
}

void RefDecoder::copy_skip_mb(RefPicture& out, int bx, int by) {
  const int x = bx * kMacroblock;
  const int y = by * kMacroblock;
  for (int row = 0; row < kMacroblock; ++row) {
    for (int col = 0; col < kMacroblock; ++col) {
      out.y[static_cast<std::size_t>(y + row) *
                static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x + col)] =
          ref_.y[static_cast<std::size_t>(y + row) *
                     static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x + col)];
    }
  }
  const int cw = width_ / 2;
  for (int row = 0; row < kBlock; ++row) {
    for (int col = 0; col < kBlock; ++col) {
      const std::size_t i =
          static_cast<std::size_t>(y / 2 + row) * static_cast<std::size_t>(cw) +
          static_cast<std::size_t>(x / 2 + col);
      out.cb[i] = ref_.cb[i];
      out.cr[i] = ref_.cr[i];
    }
  }
}

}  // namespace acbm::codec
