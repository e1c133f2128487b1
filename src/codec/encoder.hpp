#pragma once
// The H.263-style hybrid encoder substrate (paper §4: "an H.263 encoder with
// half pixel precision [12]").
//
// Structure per P-frame macroblock:
//   motion estimation (pluggable MotionEstimator) → INTRA/INTER decision
//   (TMN rule) → SKIP detection → DCT/quantize → entropy coding →
//   bit-exact reconstruction for the next frame's reference.
//
// The bitstream ("ACV1") is fully decodable by codec::Decoder; tests verify
// that decoder output is sample-identical to the encoder's reconstruction.
//
// Bitstream layout (all codes defined in this repository):
//   sequence header : 32-bit magic "ACV1", u16 width, u16 height,
//                     u16 fps_num, u16 fps_den                (byte aligned)
//   frame           : u16 sync 0x7E5A, 1-bit type (0=I,1=P), 5-bit qp,
//                     1-bit deblock flag, macroblocks raster order,
//                     byte-align at end
//   I macroblock    : 6× u8 intra DC, 6-bit CBP, AC run/level per set block
//   P macroblock    : COD bit (1 = skip);
//                     coded: 1-bit intra flag;
//                       intra: as I macroblock
//                       inter: MVD (se×2 vs median predictor), 6-bit CBP,
//                              run/level per set block
//   block order     : Y00 Y10 Y01 Y11 Cb Cr
//
// Slice revision ("ACV2", emitted only when EncoderConfig::slices > 1 so
// single-slice streams stay byte-identical to ACV1):
//   sequence header : as ACV1 but magic "ACV2"
//   frame           : u16 sync, type/qp/deblock bits as ACV1, byte-align,
//                     u8 slice_count, then slice_count slices
//   slice           : u16 slice sync 0x534C ("SL"), u8 slice index,
//                     u16 first MB row, u32 payload byte length, payload
//                     (byte aligned; macroblocks of the slice's rows in
//                     raster order, byte-align at end)
//   Differential MV prediction resets at every slice boundary (the slice's
//   first row predicts like a picture's first row), so each slice payload
//   decodes independently of its siblings — and in parallel.

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "codec/macroblock.hpp"
#include "codec/session_error.hpp"
#include "codec/wire_format.hpp"
#include "me/estimator.hpp"
#include "me/mv_field.hpp"
#include "util/bitstream.hpp"
#include "video/frame.hpp"
#include "video/interp.hpp"

namespace acbm::util {
class FaultInjector;
class ThreadPool;
}

namespace acbm::obs {
class Histogram;
class Registry;
}

namespace acbm::codec {

/// Threading knobs for the encoding pipeline. The motion-estimation stage
/// runs row-parallel in wavefront order (row N may lead row N+1 by at least
/// two macroblocks), which keeps every spatial predictor a block reads —
/// left, above, above-right — computed before the read. Every worker runs
/// the caller's estimator itself (MotionEstimator::estimate is const), so
/// its per-sequence statistics match a single-threaded run exactly. The
/// bytes are identical at every count.
struct ParallelConfig {
  /// Worker threads for the parallel stages: 1 = no worker threads, every
  /// stage runs on the calling thread (default), 0 = one per hardware
  /// thread, N = exactly N workers (which the calling thread joins while
  /// it waits for a frame).
  int threads = 1;
};

/// How the encoder chooses each P-frame macroblock's mode.
enum class ModeDecision {
  /// TMN5 heuristic: INTRA if Intra_SAD < SAD_inter − bias; SKIP if the
  /// zero-vector residual quantises away. What the paper's encoder [12] does.
  kHeuristic,
  /// Full Lagrangian decision: J = SSD + λ_mode·bits evaluated for SKIP,
  /// INTER and INTRA and the minimum transmitted — the cost function of the
  /// paper's §2.1 applied to mode selection (λ_mode = 0.85·Qp²).
  kRateDistortion,
};

struct EncoderConfig {
  int qp = 16;              ///< quantiser, 1..31
  int search_range = 15;    ///< ±p integer samples (paper: 15)
  bool half_pel = true;     ///< half-pel refinement + compensation
  int intra_period = 0;     ///< 0 = only frame 0 is intra; else every Nth
  double me_lambda = 0.0;   ///< λ for rate-aware ME (0 = pure SAD, paper)
  int intra_bias = 500;     ///< TMN INTRA decision: intra if A < SAD − bias
  bool allow_skip = true;   ///< emit COD=1 for zero-MV zero-CBP macroblocks
  bool deblock = false;     ///< in-loop Annex-J deblocking filter
  /// Independently-predicted entropy-coding slices per frame. 1 (default)
  /// emits the legacy ACV1 stream byte for byte; N > 1 emits ACV2 with N
  /// byte-aligned slice payloads per frame that the pipeline entropy-codes
  /// in parallel (and a decoder may parse in parallel). Clamped to the
  /// picture's macroblock rows and the wire limit of 255. Output is
  /// deterministic: a given slice count produces identical bytes at every
  /// thread count and kernel variant.
  int slices = 1;
  ModeDecision mode_decision = ModeDecision::kHeuristic;
  ParallelConfig parallel;  ///< pipeline threading (see ParallelConfig)
  int fps_num = 30;         ///< sequence header only
  int fps_den = 1;
};

/// Per-frame outcome: everything the paper's figures/tables are built from.
struct FrameReport {
  bool intra = false;
  std::uint64_t bits = 0;          ///< total bits for this frame
  double psnr_y = 0.0;             ///< reconstruction vs source, luma
  double psnr_yuv = 0.0;
  int intra_mbs = 0;
  int inter_mbs = 0;
  int skip_mbs = 0;
  /// Candidate positions decided this frame (Table 1's count).
  std::uint64_t me_positions = 0;
  /// SADs computed this frame: me_positions less the candidates full search
  /// pruned with the block-sum bound.
  std::uint64_t me_sad_evaluations = 0;
  std::uint64_t full_search_blocks = 0;  ///< blocks where FSBM ran
  std::uint64_t mv_bits = 0;
  std::uint64_t coeff_bits = 0;
  std::uint64_t header_bits = 0;   ///< sync + mode/COD/CBP bits
  double me_field_smoothness = 0.0;  ///< MvField::smoothness_l1 of ME field
  /// End-to-end wall clock for the frame, first stage entered to last stage
  /// left. Under frame-level pipelining this spans the overlap with the
  /// neighbouring frames' stages, so it is the per-frame latency a service
  /// caller observes — not the sum of the stage times. Per-stage times live
  /// only in the "enc.stage.*" histograms (Encoder::set_metrics).
  double frame_wall_seconds = 0.0;
};

/// One asynchronously encoded frame: the report plus this frame's slice of
/// the bitstream. The byte ranges of consecutive frames tile the stream
/// exactly (frame 0's range includes the sequence header), so concatenating
/// the packets of a session reproduces Encoder::finish() byte for byte.
struct EncodedFrame {
  std::uint64_t frame_index = 0;
  FrameReport report;
  std::vector<std::uint8_t> bytes;
};

class EncoderPipeline;
class ServiceStatsSink;

/// Streaming one-reference hybrid encoder. Feed frames in display order;
/// call finish() once to obtain the bitstream.
///
/// Frame encoding is delegated to an EncoderPipeline (codec/pipeline.hpp),
/// which splits the old monolithic macroblock loop into separable stages —
/// motion estimation, macroblock planning (mode decision, DCT/quant, RD
/// candidate costing), entropy coding + reconstruction — and runs them as
/// tasks on one lane of a util::ThreadPool, with frame-level pipelining
/// and admission control. Every constructor runs that same engine; the
/// output is bit-exact regardless of thread count or pool.
class Encoder {
 public:
  /// Standalone constructor: the encoder owns its pool —
  /// config.parallel.threads workers for threads > 1, and for threads == 1
  /// a zero-worker pool that runs every stage on the calling thread.
  /// `estimator` is borrowed and must outlive the encoder — callers keep it
  /// to read algorithm-specific statistics (e.g. core::Acbm::stats()).
  /// Every row task runs `estimator` itself, so a setting changed between
  /// frames (e.g. Acbm::set_record_log) applies from the next frame at
  /// every thread count.
  Encoder(video::PictureSize size, const EncoderConfig& config,
          me::MotionEstimator& estimator);

  /// Shared-pool constructor: the pipeline runs on one lane of
  /// `shared_pool` instead of an owned pool, next to other sessions'
  /// lanes. `config.parallel.threads` is ignored; the pool must outlive the
  /// encoder. Used by codec::EncoderService / EncodeSession.
  Encoder(video::PictureSize size, const EncoderConfig& config,
          me::MotionEstimator& estimator, util::ThreadPool& shared_pool);
  ~Encoder();

  // The pipeline keeps a back-reference to this encoder, so the object must
  // stay put once constructed.
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;
  Encoder(Encoder&&) = delete;
  Encoder& operator=(Encoder&&) = delete;

  /// Encodes one frame and returns its report: submit_frame(src).get(),
  /// with `src` borrowed for the call instead of copied. A frame whose
  /// stage throws latches the encoder failed (see failed()) and rethrows
  /// here as its SessionError; later calls then throw kSessionFailed.
  FrameReport encode_frame(const video::Frame& src);

  /// Enqueues `src` for asynchronous, frame-pipelined encoding and returns
  /// a future for its packet: frame t+1's motion estimation overlaps frame
  /// t's entropy coding, gated per reference row, so the bytes match
  /// encode_frame's. Frames complete in submission order. On a zero-worker
  /// pool (standalone, threads == 1) the frame is encoded before this
  /// returns. Thread-safe against the pool's workers but not against
  /// concurrent submitters — one thread drives an encoder.
  std::future<EncodedFrame> submit_frame(video::Frame src);

  /// submit_frame with admission controls (deadline / bounded queue /
  /// degradation — see SubmitOptions). Admission rejections resolve the
  /// returned future with a SessionError instead of throwing.
  std::future<EncodedFrame> submit_frame(video::Frame src,
                                         const SubmitOptions& options);

  /// Like submit_frame(src, options), but an overload rejection returns
  /// std::nullopt (poll-style backpressure) instead of an error future.
  std::optional<std::future<EncodedFrame>> try_submit_frame(
      video::Frame src, const SubmitOptions& options);

  /// Blocks until every submitted frame has resolved. Returns normally on
  /// a failed encoder (the error already surfaced through the per-frame
  /// futures).
  void drain();

  /// True once a frame's stage threw and latched this encoder failed —
  /// standalone or shared-pool alike: queued frames were resolved with
  /// kSessionFailed, and later submits (and encode_frame calls) fail fast.
  [[nodiscard]] bool failed() const;

  /// Installs the service's shared health counters; the pipeline bumps
  /// them at every admission/resolution point. May be null (standalone).
  void set_stats_sink(ServiceStatsSink* sink) { stats_sink_ = sink; }

  /// Arms deterministic fault injection for this encoder's frames: the
  /// injector is queried at front dispatch with (lane, submit_seq). The
  /// injector is borrowed and must outlive the encoder; null disarms.
  void set_fault_injector(const util::FaultInjector* injector,
                          std::uint64_t lane) {
    fault_ = injector;
    fault_lane_ = lane;
  }

  /// Installs the metrics registry the pipeline records stage latencies
  /// into, one sample per frame in nanoseconds: "enc.stage.front" (motion
  /// estimation and planning), "enc.stage.entropy" and "enc.frame.wall".
  /// These histograms are the encoder's only stage clock. Null disarms.
  /// The registry must outlive the encoder.
  void set_metrics(obs::Registry* registry);

  /// Session id stamped into this encoder's trace spans and async
  /// submit→resolve ids (obs::Span `session` arg). Defaults to 0.
  void set_trace_session(std::uint64_t id) { trace_session_ = id; }

  /// Installs the overload (degraded) estimator: frames admitted with
  /// SubmitOptions::degrade_on_overload past the queue limit run their
  /// motion stage on this estimator instead of being shed. Install it while
  /// no frame is in flight (before the first submission or after drain()):
  /// a running front reads it.
  void set_degraded_estimator(std::unique_ptr<me::MotionEstimator> estimator) {
    degraded_estimator_ = std::move(estimator);
  }

  /// Byte-aligns and returns the complete bitstream; the encoder must not
  /// be used afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Changes the quantiser (rate control). It applies from the next
  /// submitted frame: each frame snapshots Qp at admission, so frames
  /// already submitted keep theirs even when they are encoded later. The
  /// frame header carries Qp, so the stream stays decodable across changes.
  /// Throws std::invalid_argument outside [1, 31].
  void set_qp(int qp);

  /// Reconstruction of the most recently encoded frame (the decoder's
  /// reference) — what the paper's PSNR is measured on. Meaningful only
  /// between frames (after encode_frame returns / the packet's future
  /// resolves, before the next frame starts).
  [[nodiscard]] const video::Frame& last_recon() const { return *last_recon_; }

  /// Motion field found by the estimator for the last P-frame. Same
  /// between-frames caveat as last_recon().
  [[nodiscard]] const me::MvField& last_me_field() const {
    return *last_me_field_;
  }

  /// Motion field as actually coded (zeros for intra/skip macroblocks).
  [[nodiscard]] const me::MvField& last_coded_field() const {
    return coded_field_;
  }

  [[nodiscard]] std::uint64_t total_bits() const { return writer_.bit_count(); }
  [[nodiscard]] const EncoderConfig& config() const { return config_; }
  [[nodiscard]] video::PictureSize size() const { return size_; }

  /// Effective entropy-coding slices per frame: config().slices clamped to
  /// the picture's macroblock rows and the wire limit. 1 means the stream
  /// is legacy ACV1; anything larger means ACV2.
  [[nodiscard]] int slices() const { return slices_; }

 private:
  friend class EncoderPipeline;

  /// Delegation target of both public constructors; `shared_pool` null
  /// means standalone (the encoder builds its own pool per
  /// config.parallel).
  Encoder(video::PictureSize size, const EncoderConfig& config,
          me::MotionEstimator& estimator, util::ThreadPool* shared_pool);

  /// Everything one entropy-coding slice owns while its rows are coded: the
  /// destination writer, the prediction boundary, and its share of the
  /// frame tallies. Slices touch no shared mutable encoder state, which is
  /// what lets the pipeline run them concurrently; the pipeline folds the
  /// tallies back into the FrameReport in slice order afterwards.
  struct SliceState {
    util::BitWriter* writer = nullptr;
    int first_mb_row = 0;  ///< MV prediction resets here (slice boundary)
    /// Only the bit breakdown (mv/coeff/header_bits) and the macroblock
    /// counts are tallied.
    FrameReport tally;
    /// Time the slice sat parked on rows the front had not planned yet.
    double parked_seconds = 0.0;
  };

  /// A motion-compensated INTER candidate: vector, prediction and levels.
  struct InterPlan {
    me::Mv mv;
    MbBuffer pred;
    MbLevels levels;

    [[nodiscard]] bool skippable() const {
      return mv == me::Mv{0, 0} && levels.cbp == 0;
    }
  };

  enum class MbMode { kIntra, kInter, kSkip };

  /// Everything the front stage (EncoderPipeline) plans for one
  /// macroblock, leaving the entropy stage with only predictor-dependent
  /// MVD coding, bit writing and reconstruction. Heuristic and I-frame plans
  /// carry the decided mode and only its candidate. Rate–distortion plans
  /// carry all three candidates; the only cost term that cannot be
  /// precomputed is the MVD code length, which depends on the coded-field
  /// median predictor and therefore on every earlier decision in the slice
  /// — so the plan carries the predictor-independent pieces (candidate SSDs
  /// and non-MVD bit counts) and write_mb finishes the J comparison with one
  /// cheap mvd_bits() call per macroblock.
  struct MbPlan {
    MbLevels intra;   ///< valid when mode == kIntra (or rd)
    InterPlan inter;  ///< valid when mode != kIntra (or rd)
    MbMode mode = MbMode::kIntra;  ///< ignored when rd
    bool rd = false;  ///< write_mb must run the three-way J comparison
    /// RD precomputation: full J for the predictor-independent candidates…
    double j_intra = 0.0;
    double j_skip = 0.0;  ///< +inf when SKIP is disallowed
    /// …and the pieces of J_inter around the MVD term.
    std::uint64_t inter_ssd = 0;
    std::uint32_t inter_body_bits = 0;  ///< CBP + coefficient bits, no MVD
  };

  void write_sequence_header();

  /// Front-stage entry point: decides and plans macroblock (bx, by) at
  /// quantiser `qp` — the TMN INTRA/INTER test against the block's motion
  /// estimate `est` (unused in I-frames and RD mode), or all three RD
  /// candidates — without touching any mutable encoder state, so it is
  /// safe to call concurrently for distinct macroblocks.
  void plan_mb(const video::Frame& src, int bx, int by, bool intra_frame,
               int qp, const me::EstimateResult& est, MbPlan& out) const;

  /// Entropy-stage entry point: settles the RD choice, entropy-codes
  /// macroblock (bx, by) into `slice` from its plan and reconstructs it.
  /// Serial per slice (the MVD predictor chains through coded_field_).
  void write_mb(bool intra_frame, int qp, const MbPlan& plan, int bx, int by,
                SliceState& slice);

  [[nodiscard]] int mbs_x() const { return size_.width / me::kBlockSize; }
  [[nodiscard]] int mbs_y() const { return size_.height / me::kBlockSize; }

  video::PictureSize size_;
  EncoderConfig config_;
  me::MotionEstimator* estimator_;
  util::BitWriter writer_;

  /// Reconstruction double-buffer. Frame f reconstructs into
  /// recon_buf_[f & 1] and motion-compensates from recon_buf_[(f + 1) & 1]
  /// — the previous frame's reconstruction IS the reference, with no
  /// whole-frame ref_ = recon_ copy per frame, and under frame-level
  /// pipelining frame f+1's ME can read the buffer frame f's entropy stage
  /// is still filling (row-readiness gated by the pipeline). The pipeline
  /// retargets the role pointers below at each frame's stage boundaries.
  video::Frame recon_buf_[2];
  video::Frame* recon_;            ///< current frame's reconstruction target
  const video::Frame* front_ref_;  ///< reference read by the front (ME, plan)
  const video::Frame* back_ref_;   ///< reference read by SKIP recon (entropy)
  const video::Frame* last_recon_; ///< most recently completed frame
  video::HalfpelPlanes ref_half_;  ///< half-pel view bound onto *front_ref_
  /// ME-field double-buffer, same parity scheme: frame f's estimator output
  /// lands in me_fields_[f & 1] and reads me_fields_[(f + 1) & 1] as the
  /// previous frame's field (temporal predictors).
  me::MvField me_fields_[2];
  me::MvField* me_field_;          ///< estimator output, current frame
  const me::MvField* prev_me_field_;
  const me::MvField* last_me_field_;
  me::MvField coded_field_;        ///< transmitted vectors, current frame
  int slices_ = 1;  ///< config.slices clamped to [1, min(mb rows, 255)]
  bool finished_ = false;
  // Fault-tolerance wiring, read by the pipeline (friend): health counters,
  // injection point, and the overload estimator. All optional.
  ServiceStatsSink* stats_sink_ = nullptr;
  const util::FaultInjector* fault_ = nullptr;
  std::uint64_t fault_lane_ = 0;
  // Observability wiring (obs/): stage-latency histograms cached off the
  // registry at set_metrics time so the hot path never does a name lookup,
  // and the session id trace spans are tagged with. All optional.
  struct StageMetrics {
    obs::Histogram* front = nullptr;
    obs::Histogram* entropy = nullptr;
    obs::Histogram* frame_wall = nullptr;
  };
  obs::Registry* metrics_ = nullptr;
  StageMetrics stage_metrics_;
  std::uint64_t trace_session_ = 0;
  std::unique_ptr<me::MotionEstimator> degraded_estimator_;
  /// The standalone encoder's own pool; null on a shared pool. Declared
  /// before pipeline_ so the pipeline (and its lane) goes first.
  std::unique_ptr<util::ThreadPool> own_pool_;
  std::unique_ptr<EncoderPipeline> pipeline_;  ///< constructed with *this
};

}  // namespace acbm::codec
