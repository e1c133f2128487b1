#pragma once
// Decoder for the ACV1/ACV2 bitstreams produced by codec::Encoder.
//
// The paper never decodes (PSNR is measured against the encoder's
// reconstruction loop); we ship a decoder anyway because round-trip parity
// — decoder output bit-exact against Encoder::last_recon() — is the
// strongest available correctness check on the whole codec substrate.
//
// Construction takes a DecoderConfig (built from the kv spec grammar via
// codec/config_map.hpp: "threads=4,conceal=resync,expect_frames=60"). The
// config selects the concealment policy for damaged ACV2 streams:
//
//   conceal=slice   (default) A slice whose *payload* is corrupt is
//                   concealed (its macroblocks copy the reference, its
//                   vectors read as zero) and decoding resynchronises at
//                   the next slice header; corruption of the slice
//                   directory itself — bad slice sync, out-of-order
//                   indices, payload lengths past the end of the buffer —
//                   throws DecodeError.
//   conceal=resync  Adds directory- and frame-header-level recovery: a
//                   damaged directory entry conceals the frame's remaining
//                   rows and decoding scans forward for the next
//                   validating frame header (the normative rules live in
//                   docs/RESILIENCE.md; codec::RefDecoder implements them
//                   independently so the pair stays a differential oracle
//                   under channel damage). V2 decoding never throws after
//                   construction in this mode.
//   conceal=off     Strict: even payload corruption throws.
//
// One engine serves every policy: a single frame driver and a single
// frame-header + slice-directory parser run for strict and resync decoding
// alike, and the policy decides only what happens on damage. Slices always
// decode as tasks on the decoder's own pool, which has zero workers at
// threads=1 (the tasks then run on the calling thread).
//
// Progress and damage accounting stream into a structured DecodeReport
// (frames, per-frame concealments, resync skips, error class, sample
// digest) instead of hidden counters; decode_stream() runs a whole stream
// to completion without throwing and returns the report.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "me/mv_field.hpp"
#include "util/bitstream.hpp"
#include "util/thread_pool.hpp"
#include "video/frame.hpp"
#include "video/y4m_io.hpp"

namespace acbm::codec {

/// Raised on malformed bitstreams.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Concealment policy for damaged ACV2 streams (see the header comment).
enum class Concealment { kSlice, kResync, kOff };

/// Which structural layer a DecodeError came from. kHeader errors are only
/// observable as exceptions (the constructor throws before a report
/// exists); the others are recorded in DecodeReport::error_class before the
/// throw.
enum class DecodeErrorClass {
  kNone,       ///< no error
  kHeader,     ///< sequence header (magic, dimensions)
  kFrame,      ///< frame sync / frame header fields / V1 body corruption
  kDirectory,  ///< ACV2 slice directory (sync, index, layout, lengths)
  kPayload,    ///< slice payload under conceal=off
};

/// Decoder configuration, buildable from the kv spec grammar through
/// decoder_config_from_spec() (codec/config_map.hpp). The expect_* fields
/// absorb acbm_dec's --expect assertions: -1 means unchecked, any other
/// value is compared against the stream and a mismatch is recorded in
/// DecodeReport::expectation_failures (never thrown).
struct DecoderConfig {
  /// Worker threads for slice-parallel decoding of ACV2 frames: 1 = no
  /// worker threads, slices run on the calling thread through a zero-worker
  /// pool (default), 0 = one worker per hardware thread, N = exactly N
  /// workers. Output is identical at every thread count.
  int threads = 1;
  Concealment conceal = Concealment::kSlice;
  std::int64_t expect_width = -1;
  std::int64_t expect_height = -1;
  std::int64_t expect_fps = -1;     ///< integer part of the header rate
  std::int64_t expect_frames = -1;  ///< checked by decode_stream() at EOS
  std::int64_t expect_slices = -1;  ///< checked against every frame
  std::int64_t expect_version = -1;
};

/// Structured decode outcome. Filled incrementally as frames decode; read
/// it via Decoder::report() at any point, or let decode_stream() run the
/// stream to the end (capturing any DecodeError) and return it.
struct DecodeReport {
  std::uint64_t frames = 0;            ///< frames emitted
  std::uint64_t concealed_slices = 0;  ///< total slices concealed
  std::uint64_t resync_skips = 0;      ///< conceal=resync recovery events
  std::vector<std::uint32_t> concealed_per_frame;  ///< one entry per frame
  DecodeErrorClass error_class = DecodeErrorClass::kNone;
  std::string error_message;  ///< the DecodeError text, when one was thrown
  std::string channel_spec;   ///< echo of the sim::Channel spec, when known
  std::vector<std::string> expectation_failures;  ///< expect_* mismatches
  /// FNV-1a over every emitted frame's Y, Cb, Cr samples in raster order —
  /// a cheap outcome fingerprint for differential tests and CI assertions.
  std::uint64_t sample_digest = 0xcbf29ce484222325ull;
};

class Decoder {
 public:
  /// Parses the sequence header; throws DecodeError when the data is not an
  /// ACV1/ACV2 stream. The buffer is copied so the decoder owns its input.
  Decoder(std::span<const std::uint8_t> data, const DecoderConfig& config);

  ~Decoder();

  Decoder(const Decoder&) = delete;
  Decoder& operator=(const Decoder&) = delete;

  [[nodiscard]] video::PictureSize size() const { return size_; }
  [[nodiscard]] video::FrameRate rate() const { return rate_; }

  /// Decodes the next frame; std::nullopt at clean end-of-stream. Throws
  /// DecodeError on unconcealable corruption for the configured policy
  /// (never, for V2 streams under conceal=resync); the error class and
  /// message are recorded in report() before the throw. A decoder that has
  /// thrown is finished: do not call decode_frame() on it again.
  std::optional<video::Frame> decode_frame();

  /// Decodes every remaining frame; rethrows like decode_frame().
  std::vector<video::Frame> decode_all();

  /// Runs the stream to the end without throwing: any DecodeError is
  /// captured into the report's error class/message, end-of-stream
  /// expectations (expect_frames, expect_slices on an empty stream) are
  /// evaluated, and the final report is returned. Frames are appended to
  /// `frames` when non-null.
  DecodeReport decode_stream(std::vector<video::Frame>* frames = nullptr);

  /// The accumulated report (see DecodeReport).
  [[nodiscard]] const DecodeReport& report() const { return report_; }

  /// Stamps the channel spec that damaged this stream into the report, so
  /// artifacts carry the full provenance (acbm_dec --channel does this).
  void note_channel_spec(std::string spec) {
    report_.channel_spec = std::move(spec);
  }

  /// Bitstream revision: 1 for ACV1, 2 for ACV2 (sliced frames).
  [[nodiscard]] int version() const { return version_; }

  /// Slice count of the most recently decoded frame (1 before any frame and
  /// for every ACV1 frame).
  [[nodiscard]] int last_frame_slices() const { return last_frame_slices_; }

 private:
  /// ACV2 slice-directory entry.
  struct SliceEntry {
    int first_row = 0;
    int end_row = 0;
    std::size_t offset = 0;  ///< payload start, bytes into data_
    std::size_t bytes = 0;
    bool ok = false;
  };

  /// One frame's header and, for ACV2, its slice directory as parse_frame()
  /// read them, up to the first check that failed.
  struct FrameLayout {
    enum class Fault { kNone, kHeader, kSliceCount, kEntry };
    bool inter_frame = false;
    int qp = 0;
    bool deblock = false;
    int slice_count = 1;
    /// The entries that validated, in order; under Fault::kEntry their
    /// count is the index of the bad entry, and the last one's end_row is
    /// not yet known.
    std::vector<SliceEntry> slices;
    Fault fault = Fault::kNone;
    const char* message = nullptr;  ///< the failed check's error text
    /// Byte offset of the failing header, slice count or entry.
    std::size_t fault_offset = 0;
  };

  /// Records the class/message in report_ and throws DecodeError.
  [[noreturn]] void fail(DecodeErrorClass error_class,
                         const std::string& message);

  /// Reads a frame header and (ACV2) the slice count and slice directory
  /// from `br`, hopping over the payloads, and checks them in wire order
  /// (docs/RESILIENCE.md rules 1-3 and 5). On success `br` stands after the
  /// frame's last payload. The frame driver and the resync scan both call
  /// it, so they agree on what a valid frame is.
  [[nodiscard]] FrameLayout parse_frame(util::BitReader& br) const;

  /// Decodes `slices`' payloads as tasks on the pool's lane, then conceals
  /// the failures — or, under conceal=off, throws on the first bad payload.
  void decode_slice_payloads(std::vector<SliceEntry>& slices,
                             video::Frame& out, int qp, bool inter_frame);

  /// conceal=resync: scans data_ from `from_byte` for the next byte offset
  /// where parse_frame() reads a complete frame (docs/RESILIENCE.md rule 5)
  /// and repositions the reader there. Returns false — reader at
  /// end-of-stream — when no candidate validates.
  bool seek_next_frame(std::size_t from_byte);

  /// Per-frame bookkeeping: frame count, per-frame concealment, sample
  /// digest, expect_slices.
  void account_frame(const video::Frame& frame,
                     std::uint64_t concealed_before);

  /// Decodes macroblock rows [row_begin, row_end) from `br`, predicting
  /// vectors against `first_row` as the slice boundary. Returns false on
  /// corrupt entropy data instead of throwing, so it can run on pool
  /// threads (tasks must not throw) and feed concealment.
  bool decode_rows(util::BitReader& br, video::Frame& out, int qp,
                   bool inter_frame, int row_begin, int row_end,
                   int first_row) noexcept;

  /// Error concealment for a corrupt slice: every macroblock of the range
  /// copies the reference frame and its coded vector reads as {0,0}.
  void conceal_rows(video::Frame& out, int row_begin, int row_end);

  /// True when a 16×16 motion-compensated read at (x, y) + mv stays inside
  /// the reference's padded bounds; false flags a corrupt vector.
  [[nodiscard]] bool mv_in_reference(me::Mv mv, int x, int y) const;

  std::vector<std::uint8_t> data_;
  util::BitReader reader_;
  DecoderConfig config_;
  DecodeReport report_;
  video::PictureSize size_{};
  video::FrameRate rate_{};
  video::Frame ref_;
  me::MvField coded_field_;
  int version_ = 1;
  bool first_frame_ = true;
  int last_frame_slices_ = 1;
  bool slices_mismatch_recorded_ = false;
  util::ThreadPool pool_;  ///< zero workers at threads=1
  /// This decoder's FIFO lane of pool_. Declared after pool_ so the lane
  /// unregisters before the pool tears down.
  util::ThreadPool::Queue queue_;
};

}  // namespace acbm::codec
