#include "codec/decoder.hpp"

#include "codec/deblock.hpp"
#include "codec/macroblock.hpp"
#include "codec/mv_coding.hpp"
#include "codec/quant.hpp"
#include "codec/wire_format.hpp"
#include "me/types.hpp"
#include "obs/trace.hpp"

namespace acbm::codec {

namespace {

constexpr int kMb = me::kBlockSize;
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

/// Worker count of a decoder's pool: none at one thread, so the slice
/// tasks run on the thread that waits for them.
int pool_workers(int threads) {
  const int resolved = util::ThreadPool::resolve_thread_count(threads);
  return resolved > 1 ? resolved : 0;
}

}  // namespace

void Decoder::fail(DecodeErrorClass error_class, const std::string& message) {
  report_.error_class = error_class;
  report_.error_message = message;
  throw DecodeError(message);
}

Decoder::Decoder(std::span<const std::uint8_t> data,
                 const DecoderConfig& config)
    : data_(data.begin(), data.end()),
      reader_(data_),
      config_(config),
      pool_(pool_workers(config.threads)),
      queue_(pool_) {
  const std::uint32_t magic =
      static_cast<std::uint32_t>(reader_.get_bits(32));
  if ((magic != kSequenceMagic && magic != kSequenceMagicV2) ||
      reader_.exhausted()) {
    fail(DecodeErrorClass::kHeader, "decoder: missing ACV1/ACV2 magic");
  }
  version_ = magic == kSequenceMagicV2 ? 2 : 1;
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

Decoder::~Decoder() = default;

std::optional<video::Frame> Decoder::decode_frame() {
  const obs::Span span("dec", "frame.decode", /*session=*/-1,
                       static_cast<std::int32_t>(report_.frames));
  const std::uint64_t concealed_before = report_.concealed_slices;
  // conceal=resync recovers from directory and frame-header damage (the
  // rules are normative, docs/RESILIENCE.md; RefDecoder implements them
  // independently and the two must stay outcome-identical). ACV1 has no
  // directory to resynchronise on, so it always decodes strictly.
  const bool resync =
      config_.conceal == Concealment::kResync && version_ == 2;
  FrameLayout frame;
  while (true) {
    reader_.align();
    if (reader_.bits_left() < 16 + 1 + 5 + 1) {
      return std::nullopt;  // clean end of stream
    }
    frame = parse_frame(reader_);
    if (frame.fault != FrameLayout::Fault::kHeader) {
      break;
    }
    if (!resync) {
      fail(DecodeErrorClass::kFrame, frame.message);
    }
    // Rule 1: no frame is emitted; scan on from the byte after the sync.
    ++report_.resync_skips;
    if (!seek_next_frame(frame.fault_offset + 1)) {
      return std::nullopt;
    }
  }
  // The header validated, so this frame is emitted unless the policy
  // throws: it becomes a prediction reference, and a scan triggered below
  // may accept inter frame headers.
  first_frame_ = false;

  video::Frame out(size_);
  coded_field_.reset_for_picture(size_.width, size_.height);
  const int mbs_y = size_.height / kMb;
  // Rule 2: an unusable slice count leaves the whole picture to conceal,
  // counted and reported as one slice.
  const int slice_count =
      frame.fault == FrameLayout::Fault::kSliceCount ? 1 : frame.slice_count;
  if (version_ == 1) {
    // No slice boundaries to resynchronise on: corruption anywhere in the
    // frame is a hard error.
    if (!decode_rows(reader_, out, frame.qp, frame.inter_frame, 0, mbs_y,
                     /*first_row=*/0) ||
        reader_.exhausted()) {
      fail(DecodeErrorClass::kFrame, "decoder: corrupt frame");
    }
  } else if (frame.fault == FrameLayout::Fault::kNone) {
    decode_slice_payloads(frame.slices, out, frame.qp, frame.inter_frame);
  } else if (!resync) {
    fail(DecodeErrorClass::kDirectory, frame.message);
  } else {
    // Rules 2-3: entry k failed. Entry k-1's extent ends where entry k
    // starts, which is exactly the byte that proved unreliable, so only
    // entries 0..k-2 decode; rows from entry k-1's first row down (all rows
    // when k == 0) conceal, counted as the slices they replace.
    int conceal_from = 0;
    if (!frame.slices.empty()) {
      conceal_from = frame.slices.back().first_row;
      frame.slices.pop_back();
      decode_slice_payloads(frame.slices, out, frame.qp, frame.inter_frame);
    }
    conceal_rows(out, conceal_from, mbs_y);
    report_.concealed_slices += static_cast<std::uint64_t>(
        slice_count - static_cast<int>(frame.slices.size()));
    ++report_.resync_skips;
    seek_next_frame(frame.fault_offset + 1);
  }
  last_frame_slices_ = slice_count;

  if (frame.deblock) {
    deblock_frame(out, frame.qp);
  }
  out.extend_borders();
  ref_ = out;  // the copy carries out's extended border
  account_frame(out, concealed_before);
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

Decoder::FrameLayout Decoder::parse_frame(util::BitReader& br) const {
  FrameLayout frame;
  frame.fault = FrameLayout::Fault::kHeader;
  frame.fault_offset = br.bit_position() / 8;
  const std::uint32_t sync = static_cast<std::uint32_t>(br.get_bits(16));
  frame.inter_frame = br.get_bit();
  frame.qp = static_cast<int>(br.get_bits(5));
  frame.deblock = br.get_bit();
  if (sync != kFrameSync) {
    frame.message = "decoder: lost frame sync";
    return frame;
  }
  if (frame.qp < kMinQp || frame.qp > kMaxQp) {
    frame.message = "decoder: qp out of range";
    return frame;
  }
  if (first_frame_ && frame.inter_frame) {
    frame.message = "decoder: first frame must be intra";
    return frame;
  }
  if (version_ == 1) {
    frame.fault = FrameLayout::Fault::kNone;
    return frame;  // macroblock rows follow the header unaligned
  }

  const int mbs_y = size_.height / kMb;
  br.align();
  frame.fault = FrameLayout::Fault::kSliceCount;
  frame.fault_offset = br.bit_position() / 8;
  frame.slice_count = static_cast<int>(br.get_bits(8));
  if (br.exhausted() || frame.slice_count < 1 || frame.slice_count > mbs_y) {
    frame.message = "decoder: invalid slice count";
    return frame;
  }

  // The directory walk: payload lengths locate every slice header without
  // decoding any macroblock, which is both the resynchronisation mechanism
  // and what makes the payloads independently decodable afterwards.
  frame.fault = FrameLayout::Fault::kEntry;
  frame.slices.reserve(static_cast<std::size_t>(frame.slice_count));
  for (int s = 0; s < frame.slice_count; ++s) {
    br.align();
    frame.fault_offset = br.bit_position() / 8;
    const std::uint32_t slice_sync =
        static_cast<std::uint32_t>(br.get_bits(16));
    const int index = static_cast<int>(br.get_bits(8));
    const int first_row = static_cast<int>(br.get_bits(16));
    const std::uint64_t payload_bytes = br.get_bits(32);
    if (br.exhausted() || slice_sync != kSliceSync || index != s) {
      frame.message = "decoder: lost slice sync";
      return frame;
    }
    if (first_row >= mbs_y || (s == 0 ? first_row != 0
                                      : first_row <= frame.slices.back()
                                                         .first_row)) {
      frame.message = "decoder: invalid slice row layout";
      return frame;
    }
    if (payload_bytes > br.bits_left() / 8) {
      frame.message = "decoder: truncated slice payload";
      return frame;
    }
    if (s > 0) {
      frame.slices.back().end_row = first_row;
    }
    SliceEntry& entry = frame.slices.emplace_back();
    entry.first_row = first_row;
    entry.end_row = mbs_y;
    entry.offset = br.bit_position() / 8;  // aligned above
    entry.bytes = static_cast<std::size_t>(payload_bytes);
    br.skip_bits(entry.bytes * 8);
  }
  frame.fault = FrameLayout::Fault::kNone;
  return frame;
}

void Decoder::decode_slice_payloads(std::vector<SliceEntry>& slices,
                                    video::Frame& out, int qp,
                                    bool inter_frame) {
  // Decode the payloads, each from its own BitReader. Slices write only
  // row-disjoint regions of `out` and the coded field and predict vectors
  // strictly within their own rows, so they are independent: the pool's
  // workers run them concurrently (a zero-worker pool runs them here, in
  // order, inside wait) and the output is identical either way.
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
  util::TaskGroup group;
  for (SliceEntry& entry : slices) {
    pool_.submit(queue_, [&decode_one, &entry] { decode_one(entry); },
                 &group);
  }
  pool_.wait(group);

  // Conceal whatever failed. The slice's region is rewritten wholesale (a
  // corrupt payload may have deposited partial macroblocks before the error
  // was detected), which keeps the output deterministic. Under
  // conceal=off the first failure is fatal instead.
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
  // Rule 5: a byte offset is a restart point iff parse_frame() reads a
  // complete frame there — header, slice count and the entire directory,
  // payload hops included — so a restart can never land on entropy data
  // that merely looks like a sync word without paying for it structurally.
  std::size_t restart = data_.size();
  for (std::size_t o = from_byte; o + 4 <= data_.size(); ++o) {
    if (((std::uint32_t{data_[o]} << 8) | data_[o + 1]) != kFrameSync) {
      continue;  // cheap prefilter; parse_frame checks the sync again
    }
    util::BitReader candidate(data_);
    candidate.skip_bits(o * 8);
    if (parse_frame(candidate).fault == FrameLayout::Fault::kNone) {
      restart = o;
      break;
    }
  }
  reader_ = util::BitReader(data_);
  reader_.skip_bits(restart * 8);
  return restart < data_.size();
}

bool Decoder::decode_rows(util::BitReader& br, video::Frame& out, int qp,
                          bool inter_frame, int row_begin, int row_end,
                          int first_row) noexcept {
  const int mbs_x = size_.width / kMb;
  MbLevels mb{};
  MbBuffer pred{};
  for (int by = row_begin; by < row_end; ++by) {
    for (int bx = 0; bx < mbs_x; ++bx) {
      const MbSamples dst(out, bx, by);
      me::Mv mv{0, 0};
      if (inter_frame && br.get_bit()) {  // COD = 1: SKIP
        copy_mb(ref_, bx, by, dst);
      } else if (!inter_frame || br.get_bit()) {  // intra
        if (!read_intra_payload(br, mb)) {
          return false;  // bad intra coefficients
        }
        reconstruct_intra_mb(mb, qp, dst);
      } else {
        mv = decode_mvd(br, coded_field_.median_predictor(bx, by, first_row));
        if (!mv_in_reference(mv, bx * kMb, by * kMb)) {
          return false;  // corrupt MVD pointing outside the padded reference
        }
        if (!read_inter_body(br, mb)) {
          return false;  // bad inter coefficients
        }
        predict_mb(ref_, bx, by, mv, pred);
        reconstruct_inter_mb(mb, pred, qp, dst);
      }
      coded_field_.set(bx, by, mv);
      if (br.exhausted()) {
        return false;  // truncated macroblock data
      }
    }
  }
  return true;
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
      copy_mb(ref_, bx, by, MbSamples(out, bx, by));
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

}  // namespace acbm::codec
