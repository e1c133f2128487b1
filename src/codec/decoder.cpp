#include "codec/decoder.hpp"

#include <algorithm>

#include "codec/block_codec.hpp"
#include "codec/coeff_coding.hpp"
#include "codec/deblock.hpp"
#include "codec/mc.hpp"
#include "codec/mv_coding.hpp"
#include "codec/quant.hpp"
#include "me/types.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace acbm::codec {

namespace {

constexpr int kMb = me::kBlockSize;
constexpr int kLumaBlockOffsets[4][2] = {{0, 0}, {8, 0}, {0, 8}, {8, 8}};
// Local mirrors of the encoder's constants (encoder.hpp is not included to
// keep the decoder linkable without the encoder's dependencies).
constexpr std::uint32_t kMagicV1 = 0x41435631;  // "ACV1"
constexpr std::uint32_t kMagicV2 = 0x41435632;  // "ACV2"
constexpr std::uint32_t kSync = 0x7E5A;
constexpr std::uint32_t kSliceSyncWord = 0x534C;  // "SL"
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_plane(const video::Plane& plane, int width, int height,
               std::uint64_t& digest) {
  for (int y = 0; y < height; ++y) {
    const std::uint8_t* row = plane.row(y);
    for (int x = 0; x < width; ++x) {
      digest = (digest ^ row[x]) * kFnvPrime;
    }
  }
}

}  // namespace

void Decoder::fail(DecodeErrorClass error_class, const std::string& message) {
  report_.error_class = error_class;
  report_.error_message = message;
  throw DecodeError(message);
}

Decoder::Decoder(std::span<const std::uint8_t> data,
                 const DecoderConfig& config)
    : data_(data.begin(), data.end()), reader_(data_), config_(config) {
  const std::uint32_t magic =
      static_cast<std::uint32_t>(reader_.get_bits(32));
  if ((magic != kMagicV1 && magic != kMagicV2) || reader_.exhausted()) {
    fail(DecodeErrorClass::kHeader, "decoder: missing ACV1/ACV2 magic");
  }
  version_ = magic == kMagicV2 ? 2 : 1;
  size_.width = static_cast<int>(reader_.get_bits(16));
  size_.height = static_cast<int>(reader_.get_bits(16));
  rate_.num = static_cast<int>(reader_.get_bits(16));
  rate_.den = static_cast<int>(reader_.get_bits(16));
  // 4096×4096 comfortably covers any realistic use of this codec and keeps
  // a corrupted header from demanding gigabyte allocations.
  constexpr int kMaxDimension = 4096;
  if (reader_.exhausted() || size_.width <= 0 || size_.height <= 0 ||
      size_.width % kMb != 0 || size_.height % kMb != 0 ||
      size_.width > kMaxDimension || size_.height > kMaxDimension) {
    fail(DecodeErrorClass::kHeader, "decoder: invalid sequence header");
  }
  ref_ = video::Frame(size_);
  coded_field_ = me::MvField::for_picture(size_.width, size_.height);

  // Header-level expectations are decidable right here; mismatches are
  // report entries, not exceptions (the stream still decodes fine).
  const auto expect = [&](const char* key, std::int64_t want,
                          std::int64_t have) {
    if (want >= 0 && have != want) {
      report_.expectation_failures.push_back(
          std::string("expect ") + key + '=' + std::to_string(want) +
          " but stream has " + std::to_string(have));
    }
  };
  expect("width", config_.expect_width, size_.width);
  expect("height", config_.expect_height, size_.height);
  expect("fps", config_.expect_fps,
         static_cast<std::int64_t>(rate_.fps()));
  expect("version", config_.expect_version, version_);
}

Decoder::Decoder(std::span<const std::uint8_t> data,
                 const DecoderConfig& config, util::ThreadPool& shared_pool)
    : Decoder(data, config) {
  shared_pool_ = &shared_pool;
}

Decoder::~Decoder() = default;

std::optional<video::Frame> Decoder::decode_frame() {
  const obs::Span span("dec", "frame.decode", /*session=*/-1,
                       static_cast<std::int32_t>(report_.frames));
  const std::uint64_t concealed_before = report_.concealed_slices;
  std::optional<video::Frame> out =
      config_.conceal == Concealment::kResync && version_ == 2
          ? decode_frame_resync()
          : decode_frame_strict();
  if (out.has_value()) {
    account_frame(*out, concealed_before);
  }
  return out;
}

void Decoder::account_frame(const video::Frame& frame,
                            std::uint64_t concealed_before) {
  ++report_.frames;
  report_.concealed_per_frame.push_back(static_cast<std::uint32_t>(
      report_.concealed_slices - concealed_before));
  fnv_plane(frame.y(), size_.width, size_.height, report_.sample_digest);
  fnv_plane(frame.cb(), size_.width / 2, size_.height / 2,
            report_.sample_digest);
  fnv_plane(frame.cr(), size_.width / 2, size_.height / 2,
            report_.sample_digest);
  if (config_.expect_slices >= 0 && !slices_mismatch_recorded_ &&
      last_frame_slices_ != config_.expect_slices) {
    slices_mismatch_recorded_ = true;
    report_.expectation_failures.push_back(
        "expect slices=" + std::to_string(config_.expect_slices) +
        " but frame " + std::to_string(report_.frames - 1) + " has " +
        std::to_string(last_frame_slices_));
  }
}

std::optional<video::Frame> Decoder::decode_frame_strict() {
  reader_.align();
  if (reader_.bits_left() < 16 + 1 + 5 + 1) {
    return std::nullopt;  // clean end of stream
  }
  if (reader_.get_bits(16) != kSync) {
    fail(DecodeErrorClass::kFrame, "decoder: lost frame sync");
  }
  const bool inter_frame = reader_.get_bit();
  const int qp = static_cast<int>(reader_.get_bits(5));
  const bool deblock = reader_.get_bit();
  if (qp < kMinQp || qp > kMaxQp) {
    fail(DecodeErrorClass::kFrame, "decoder: qp out of range");
  }
  if (first_frame_ && inter_frame) {
    fail(DecodeErrorClass::kFrame, "decoder: first frame must be intra");
  }

  video::Frame out(size_);
  coded_field_ = me::MvField::for_picture(size_.width, size_.height);
  if (inter_frame) {
    ref_half_ = video::HalfpelPlanes(ref_.y());
  }

  if (version_ == 2) {
    decode_frame_slices(out, qp, inter_frame);
  } else {
    decode_frame_v1(out, qp, inter_frame);
  }

  if (deblock) {
    deblock_frame(out, qp);
  }
  out.extend_borders();
  ref_ = out;
  ref_.extend_borders();
  first_frame_ = false;
  return out;
}

std::optional<video::Frame> Decoder::decode_frame_resync() {
  // conceal=resync, V2 only: nothing after the sequence header throws.
  // Frame-header damage emits no frame and scans forward; directory damage
  // conceals the unreachable rows, emits the frame, then scans. The scan
  // rules are normative (docs/RESILIENCE.md) — RefDecoder implements them
  // independently and the two must stay outcome-identical.
  while (true) {
    reader_.align();
    if (reader_.bits_left() < 16 + 1 + 5 + 1) {
      return std::nullopt;  // clean end of stream
    }
    const std::size_t frame_start = reader_.bit_position() / 8;
    const std::uint64_t sync = reader_.get_bits(16);
    const bool inter_frame = reader_.get_bit();
    const int qp = static_cast<int>(reader_.get_bits(5));
    const bool deblock = reader_.get_bit();
    if (sync != kSync || qp < kMinQp || qp > kMaxQp ||
        (first_frame_ && inter_frame)) {
      ++report_.resync_skips;
      if (!seek_next_frame(frame_start + 1)) {
        return std::nullopt;
      }
      continue;
    }
    // The header validated, so this frame WILL be emitted (directory damage
    // conceals, it does not abort). Clearing first_frame_ now lets a scan
    // triggered inside decode_frame_slices_resync accept inter frame
    // headers — the concealed frame is a legitimate prediction reference.
    first_frame_ = false;

    video::Frame out(size_);
    coded_field_ = me::MvField::for_picture(size_.width, size_.height);
    if (inter_frame) {
      ref_half_ = video::HalfpelPlanes(ref_.y());
    }
    decode_frame_slices_resync(out, qp, inter_frame);
    if (deblock) {
      deblock_frame(out, qp);
    }
    out.extend_borders();
    ref_ = out;
    ref_.extend_borders();
    return out;
  }
}

void Decoder::decode_frame_v1(video::Frame& out, int qp, bool inter_frame) {
  const int mbs_y = size_.height / kMb;
  last_frame_slices_ = 1;
  // Legacy semantics: corruption anywhere in the frame is a hard error —
  // there are no slice boundaries to resynchronise on.
  if (!decode_rows(reader_, out, qp, inter_frame, 0, mbs_y,
                   /*first_row=*/0) ||
      reader_.exhausted()) {
    fail(DecodeErrorClass::kFrame, "decoder: corrupt frame");
  }
}

void Decoder::decode_frame_slices(video::Frame& out, int qp,
                                  bool inter_frame) {
  const int mbs_y = size_.height / kMb;
  reader_.align();
  const int slice_count = static_cast<int>(reader_.get_bits(8));
  if (reader_.exhausted() || slice_count < 1 || slice_count > mbs_y) {
    fail(DecodeErrorClass::kDirectory, "decoder: invalid slice count");
  }

  // Pass 1 — walk the slice directory. Payload lengths let us locate every
  // slice header without decoding any macroblock, which is both the
  // resynchronisation mechanism and what makes the payloads independently
  // decodable afterwards.
  std::vector<SliceEntry> slices(static_cast<std::size_t>(slice_count));
  for (int s = 0; s < slice_count; ++s) {
    SliceEntry& entry = slices[static_cast<std::size_t>(s)];
    reader_.align();
    const std::uint32_t sync =
        static_cast<std::uint32_t>(reader_.get_bits(16));
    const int index = static_cast<int>(reader_.get_bits(8));
    const int first_row = static_cast<int>(reader_.get_bits(16));
    const std::uint64_t payload_bytes = reader_.get_bits(32);
    if (reader_.exhausted() || sync != kSliceSyncWord || index != s) {
      fail(DecodeErrorClass::kDirectory, "decoder: lost slice sync");
    }
    const int prev_first =
        s > 0 ? slices[static_cast<std::size_t>(s) - 1].first_row : 0;
    if (first_row >= mbs_y || (s == 0 ? first_row != 0
                                      : first_row <= prev_first)) {
      fail(DecodeErrorClass::kDirectory, "decoder: invalid slice row layout");
    }
    if (payload_bytes > reader_.bits_left() / 8) {
      fail(DecodeErrorClass::kDirectory, "decoder: truncated slice payload");
    }
    entry.first_row = first_row;
    entry.offset = reader_.bit_position() / 8;  // aligned above
    entry.bytes = static_cast<std::size_t>(payload_bytes);
    reader_.skip_bits(entry.bytes * 8);
  }
  for (int s = 0; s < slice_count; ++s) {
    slices[static_cast<std::size_t>(s)].end_row =
        s + 1 < slice_count ? slices[static_cast<std::size_t>(s) + 1].first_row
                            : mbs_y;
  }

  decode_slice_payloads(slices, out, qp, inter_frame);
  last_frame_slices_ = slice_count;
}

void Decoder::decode_frame_slices_resync(video::Frame& out, int qp,
                                         bool inter_frame) {
  const int mbs_y = size_.height / kMb;
  reader_.align();
  const std::size_t count_off = reader_.bit_position() / 8;
  const int slice_count = static_cast<int>(reader_.get_bits(8));
  if (reader_.exhausted() || slice_count < 1 || slice_count > mbs_y) {
    // An unusable slice count leaves nothing navigable in this frame: the
    // whole picture is concealed (counted as one concealment) and decoding
    // scans on from the byte after the count.
    conceal_rows(out, 0, mbs_y);
    ++report_.concealed_slices;
    last_frame_slices_ = 1;
    ++report_.resync_skips;
    seek_next_frame(count_off + 1);
    return;
  }

  // Pass 1 with damage detection instead of throws: stop at the first
  // entry that fails any directory invariant.
  std::vector<SliceEntry> slices;
  slices.reserve(static_cast<std::size_t>(slice_count));
  int valid_entries = slice_count;
  std::size_t damage_off = 0;
  for (int s = 0; s < slice_count; ++s) {
    reader_.align();
    const std::size_t entry_off = reader_.bit_position() / 8;
    const std::uint32_t sync =
        static_cast<std::uint32_t>(reader_.get_bits(16));
    const int index = static_cast<int>(reader_.get_bits(8));
    const int first_row = static_cast<int>(reader_.get_bits(16));
    const std::uint64_t payload_bytes = reader_.get_bits(32);
    const int prev_first = s > 0 ? slices.back().first_row : 0;
    if (reader_.exhausted() || sync != kSliceSyncWord || index != s ||
        first_row >= mbs_y ||
        (s == 0 ? first_row != 0 : first_row <= prev_first) ||
        payload_bytes > reader_.bits_left() / 8) {
      valid_entries = s;
      damage_off = entry_off;
      break;
    }
    SliceEntry entry;
    entry.first_row = first_row;
    entry.offset = reader_.bit_position() / 8;  // aligned above
    entry.bytes = static_cast<std::size_t>(payload_bytes);
    slices.push_back(entry);
    reader_.skip_bits(entry.bytes * 8);
  }

  if (valid_entries == slice_count) {
    // Intact directory — identical to the strict path from here on.
    for (int s = 0; s < slice_count; ++s) {
      slices[static_cast<std::size_t>(s)].end_row =
          s + 1 < slice_count
              ? slices[static_cast<std::size_t>(s) + 1].first_row
              : mbs_y;
    }
    decode_slice_payloads(slices, out, qp, inter_frame);
    last_frame_slices_ = slice_count;
    return;
  }

  // Entry k is damaged. Entries 0..k-1 parsed, but entry k-1's extent
  // depends on entry k's first row, so only slices 0..k-2 have known
  // extents and decode; rows from entry k-1's first row down are concealed
  // (all rows when k == 0), counted as the slices they replace.
  const int k = valid_entries;
  if (k >= 2) {
    std::vector<SliceEntry> known(
        slices.begin(), slices.begin() + static_cast<std::ptrdiff_t>(k - 1));
    for (int s = 0; s + 1 < k; ++s) {
      known[static_cast<std::size_t>(s)].end_row =
          slices[static_cast<std::size_t>(s) + 1].first_row;
    }
    decode_slice_payloads(known, out, qp, inter_frame);
  }
  const int conceal_from =
      k >= 1 ? slices[static_cast<std::size_t>(k) - 1].first_row : 0;
  conceal_rows(out, conceal_from, mbs_y);
  report_.concealed_slices +=
      static_cast<std::uint64_t>(slice_count - std::max(0, k - 1));
  last_frame_slices_ = slice_count;
  ++report_.resync_skips;
  seek_next_frame(damage_off + 1);
}

void Decoder::decode_slice_payloads(std::vector<SliceEntry>& slices,
                                    video::Frame& out, int qp,
                                    bool inter_frame) {
  // Pass 2 — decode the payloads, each from its own BitReader. Slices write
  // only row-disjoint regions of `out` and the coded field and predict
  // vectors strictly within their own rows, so they are independent; with a
  // worker pool they run concurrently and the output is identical either
  // way.
  const auto decode_one = [&](SliceEntry& entry) {
    const obs::Span span("dec", "slice.decode", /*session=*/-1,
                         static_cast<std::int32_t>(report_.frames),
                         entry.first_row);
    util::BitReader br(
        std::span<const std::uint8_t>(data_).subspan(entry.offset,
                                                     entry.bytes));
    entry.ok = decode_rows(br, out, qp, inter_frame, entry.first_row,
                           entry.end_row, entry.first_row) &&
               br.bits_left() < 8;  // only alignment padding may remain:
                                    // leftover payload means the entropy
                                    // data desynchronised somewhere
  };
  const int slice_count = static_cast<int>(slices.size());
  const int workers =
      shared_pool_ != nullptr
          ? shared_pool_->size()
          : util::ThreadPool::resolve_thread_count(config_.threads);
  if (workers > 1 && slice_count > 1) {
    util::ThreadPool* pool = shared_pool_;
    if (pool == nullptr) {
      if (!pool_) {
        pool_ = std::make_unique<util::ThreadPool>(workers);
      }
      pool = pool_.get();
    }
    if (!queue_) {
      queue_ = std::make_unique<util::ThreadPool::Queue>(*pool);
    }
    // The group covers this frame's slices only, so on a shared pool the
    // barrier never waits on (or is woken by) other sessions' traffic.
    util::TaskGroup group;
    for (SliceEntry& entry : slices) {
      pool->submit(
          *queue_, [&decode_one, &entry] { decode_one(entry); }, &group);
    }
    pool->wait(group);
  } else {
    for (SliceEntry& entry : slices) {
      decode_one(entry);
    }
  }

  // Pass 3 — conceal whatever failed. The slice's region is rewritten
  // wholesale (a corrupt payload may have deposited partial macroblocks
  // before the error was detected), which keeps the output deterministic.
  // Under conceal=off the first failure is fatal instead.
  for (const SliceEntry& entry : slices) {
    if (!entry.ok) {
      if (config_.conceal == Concealment::kOff) {
        fail(DecodeErrorClass::kPayload, "decoder: corrupt slice payload");
      }
      conceal_rows(out, entry.first_row, entry.end_row);
      ++report_.concealed_slices;
    }
  }
}

bool Decoder::seek_next_frame(std::size_t from_byte) {
  // Resynchronisation scan (normative; docs/RESILIENCE.md): a byte offset
  // is a valid restart point iff the frame sync word, frame header fields,
  // slice count and the *entire* slice directory all validate — payload
  // hops included — so a restart can never land on entropy data that
  // merely looks like a sync word without paying for it structurally.
  const int mbs_y = size_.height / kMb;
  const auto u16 = [&](std::size_t at) {
    return (static_cast<std::uint32_t>(data_[at]) << 8) |
           static_cast<std::uint32_t>(data_[at + 1]);
  };
  for (std::size_t o = from_byte; o + 4 <= data_.size(); ++o) {
    if (u16(o) != kSync) {
      continue;
    }
    const std::uint8_t header = data_[o + 2];
    const bool inter = (header & 0x80u) != 0;
    const int qp = (header >> 2) & 0x1F;
    if (qp < kMinQp || qp > kMaxQp) {
      continue;
    }
    if (first_frame_ && inter) {
      continue;  // a restart before any emitted frame must be intra
    }
    const int count = data_[o + 3];
    if (count < 1 || count > mbs_y) {
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
      const int first_row = static_cast<int>(u16(p + 3));
      const std::size_t payload =
          (static_cast<std::size_t>(data_[p + 5]) << 24) |
          (static_cast<std::size_t>(data_[p + 6]) << 16) |
          (static_cast<std::size_t>(data_[p + 7]) << 8) |
          static_cast<std::size_t>(data_[p + 8]);
      if (u16(p) != kSliceSyncWord || data_[p + 2] != s ||
          first_row >= mbs_y ||
          (s == 0 ? first_row != 0 : first_row <= prev_first) ||
          payload > data_.size() - (p + 9)) {
        ok = false;
        break;
      }
      prev_first = first_row;
      p += 9 + payload;
    }
    if (!ok) {
      continue;
    }
    reader_ = util::BitReader(data_);
    reader_.skip_bits(o * 8);
    return true;
  }
  reader_ = util::BitReader(data_);
  reader_.skip_bits(data_.size() * 8);
  return false;
}

bool Decoder::decode_rows(util::BitReader& br, video::Frame& out, int qp,
                          bool inter_frame, int row_begin, int row_end,
                          int first_row) noexcept {
  const int mbs_x = size_.width / kMb;
  for (int by = row_begin; by < row_end; ++by) {
    for (int bx = 0; bx < mbs_x; ++bx) {
      if (!inter_frame) {
        if (!decode_intra_block_set(br, out, bx, by, qp)) {
          return false;
        }
        continue;
      }
      const bool skip = br.get_bit();  // COD
      if (skip) {
        copy_skip_mb(out, bx, by);
        coded_field_.set(bx, by, {0, 0});
        continue;
      }
      const bool intra = br.get_bit();
      if (intra) {
        if (!decode_intra_block_set(br, out, bx, by, qp)) {
          return false;
        }
        continue;
      }
      const me::Mv mv =
          decode_mvd(br, coded_field_.median_predictor(bx, by, first_row));
      if (!mv_in_reference(mv, bx * kMb, by * kMb)) {
        return false;  // corrupt MVD pointing outside the padded reference
      }
      if (!decode_inter_block_set(br, out, bx, by, qp, mv)) {
        return false;
      }
      coded_field_.set(bx, by, mv);
      if (br.exhausted()) {
        return false;  // truncated macroblock data
      }
    }
  }
  return !br.exhausted();
}

bool Decoder::mv_in_reference(me::Mv mv, int x, int y) const {
  // Same integer-part computation as predict_luma; the compensated 16×16
  // read must stay inside the reference's replicated border (one sample is
  // reserved for the half-pel interpolation overread). A valid encoder can
  // never emit such a vector — its search window is border-clamped — so an
  // out-of-range one is always stream corruption, and rejecting it here is
  // what keeps a fuzzed MVD from indexing outside the plane.
  const int margin = ref_.y().border() - 1;
  const int ix = (mv.x - (mv.x & 1)) >> 1;
  const int iy = (mv.y - (mv.y & 1)) >> 1;
  return x + ix >= -margin && x + ix + kMb <= size_.width + margin &&
         y + iy >= -margin && y + iy + kMb <= size_.height + margin;
}

void Decoder::conceal_rows(video::Frame& out, int row_begin, int row_end) {
  const int mbs_x = size_.width / kMb;
  for (int by = row_begin; by < row_end; ++by) {
    for (int bx = 0; bx < mbs_x; ++bx) {
      copy_skip_mb(out, bx, by);
      coded_field_.set(bx, by, {0, 0});
    }
  }
}

std::vector<video::Frame> Decoder::decode_all() {
  std::vector<video::Frame> frames;
  while (auto frame = decode_frame()) {
    frames.push_back(std::move(*frame));
  }
  return frames;
}

DecodeReport Decoder::decode_stream(std::vector<video::Frame>* frames) {
  try {
    while (auto frame = decode_frame()) {
      if (frames != nullptr) {
        frames->push_back(std::move(*frame));
      }
    }
  } catch (const DecodeError&) {
    // Class and message were recorded by fail() before the throw.
  }
  if (config_.expect_frames >= 0 &&
      report_.frames != static_cast<std::uint64_t>(config_.expect_frames)) {
    report_.expectation_failures.push_back(
        "expect frames=" + std::to_string(config_.expect_frames) +
        " but stream has " + std::to_string(report_.frames));
  }
  if (config_.expect_slices >= 0 && report_.frames == 0) {
    report_.expectation_failures.push_back(
        "expect slices=" + std::to_string(config_.expect_slices) +
        " but the stream has no frames to check against");
  }
  return report_;
}

bool Decoder::decode_intra_block_set(util::BitReader& br, video::Frame& out,
                                     int bx, int by, int qp) {
  const int x = bx * kMb;
  const int y = by * kMb;

  std::uint8_t dc[6];
  for (auto& d : dc) {
    d = static_cast<std::uint8_t>(br.get_bits(8));
  }
  const std::uint32_t cbp = static_cast<std::uint32_t>(br.get_bits(6));

  std::int16_t levels[6][kDctSamples] = {};
  for (int b = 0; b < 6; ++b) {
    if ((cbp >> b) & 1u) {
      if (!decode_block_coeffs(br, levels[b], /*skip_dc=*/true)) {
        return false;  // bad intra coefficients
      }
    }
  }

  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    reconstruct_intra_block(levels[b], dc[b], qp, out.y().row(y + oy) + x + ox,
                            out.y().stride());
  }
  reconstruct_intra_block(levels[4], dc[4], qp, out.cb().row(y / 2) + x / 2,
                          out.cb().stride());
  reconstruct_intra_block(levels[5], dc[5], qp, out.cr().row(y / 2) + x / 2,
                          out.cr().stride());
  coded_field_.set(bx, by, {0, 0});
  return true;
}

bool Decoder::decode_inter_block_set(util::BitReader& br, video::Frame& out,
                                     int bx, int by, int qp, me::Mv mv) {
  const int x = bx * kMb;
  const int y = by * kMb;

  const std::uint32_t cbp = static_cast<std::uint32_t>(br.get_bits(6));
  std::int16_t levels[6][kDctSamples] = {};
  for (int b = 0; b < 6; ++b) {
    if ((cbp >> b) & 1u) {
      if (!decode_block_coeffs(br, levels[b])) {
        return false;  // bad inter coefficients
      }
    }
  }

  std::uint8_t pred_y[kMb * kMb];
  predict_luma(ref_half_, x, y, mv, kMb, kMb, pred_y, kMb);
  const me::Mv cmv = derive_chroma_mv(mv);
  std::uint8_t pred_cb[8 * 8];
  std::uint8_t pred_cr[8 * 8];
  predict_chroma(ref_.cb(), x / 2, y / 2, cmv, 8, 8, pred_cb, 8);
  predict_chroma(ref_.cr(), x / 2, y / 2, cmv, 8, 8, pred_cr, 8);

  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    reconstruct_inter_block(levels[b], pred_y + oy * kMb + ox, kMb, qp,
                            out.y().row(y + oy) + x + ox, out.y().stride());
  }
  reconstruct_inter_block(levels[4], pred_cb, 8, qp,
                          out.cb().row(y / 2) + x / 2, out.cb().stride());
  reconstruct_inter_block(levels[5], pred_cr, 8, qp,
                          out.cr().row(y / 2) + x / 2, out.cr().stride());
  return true;
}

void Decoder::copy_skip_mb(video::Frame& out, int bx, int by) {
  const int x = bx * kMb;
  const int y = by * kMb;
  for (int row = 0; row < kMb; ++row) {
    std::uint8_t* dst = out.y().row(y + row) + x;
    const std::uint8_t* src = ref_.y().row(y + row) + x;
    for (int col = 0; col < kMb; ++col) {
      dst[col] = src[col];
    }
  }
  for (int row = 0; row < kMb / 2; ++row) {
    std::uint8_t* dcb = out.cb().row(y / 2 + row) + x / 2;
    const std::uint8_t* scb = ref_.cb().row(y / 2 + row) + x / 2;
    std::uint8_t* dcr = out.cr().row(y / 2 + row) + x / 2;
    const std::uint8_t* scr = ref_.cr().row(y / 2 + row) + x / 2;
    for (int col = 0; col < kMb / 2; ++col) {
      dcb[col] = scb[col];
      dcr[col] = scr[col];
    }
  }
}

}  // namespace acbm::codec
