#pragma once
// The staged per-frame encoding pipeline behind codec::Encoder.
//
// The encoder runs each frame as two explicit stages over the whole frame:
//
//   front stage   — one task per macroblock row, one barrier per frame.
//                   A P-frame row estimates each block's motion, publishes
//                   the row's progress, then plans the block: the TMN
//                   INTRA/INTER/SKIP decision against the estimate, then
//                   prediction, DCT and quantisation of the chosen
//                   candidate (Encoder::MbPlan, codec/macroblock.hpp). RD
//                   decisions compare exact bit counts against the
//                   coded-field predictor chain, so in kRateDistortion
//                   mode the plan carries all three candidates with their
//                   reconstruction SSDs and the choice waits for the
//                   entropy stage. An I-frame row only plans. A P-frame
//                   row whose estimator wants_block_sums() (plain FSBM)
//                   first sums every 8×8 reference block its window's
//                   candidates cover (me::BlockSumBand), once for all its
//                   blocks.
//                   When the estimator reads the current field
//                   (reads_current_field(): PBM, ACBM) or me_lambda > 0,
//                   P-frame rows run in WAVEFRONT order: block (bx, by)
//                   waits until row by−1 has estimated block bx+1, so the
//                   predictors PBM and the median predictor read (left,
//                   above, above-right in BlockContext::cur_field) are
//                   final. Otherwise rows run unstaggered, and blocks get
//                   no current field and a zero predictor. Every row task
//                   runs the session's one estimator: estimate() is
//                   const, and the only state it accumulates (ACBM's
//                   counters and decision log) is safe to share.
//   entropy stage — the RD choice, MVD coding, bit writing and
//                   reconstruction from the precomputed plans
//                   (Encoder::write_mb); the only work left here is what
//                   genuinely chains through the coded-field MV predictor.
//                   With EncoderConfig::slices == 1 this is the legacy
//                   serial raster scan straight into the stream writer;
//                   with slices == N the frame's macroblock rows split into
//                   N independently-predicted ACV2 slices coded in parallel
//                   (see entropy_stage). It CHASES its own front stage: a
//                   row is coded once its front task has published it
//                   planned (row_planned_), so the frame's serial tail is
//                   only the rows planned last.
//
// ONE ENGINE. Every encoder — a standalone Encoder at any thread count and
// every EncoderService session — runs the stages above as tasks on one FIFO
// lane (util::ThreadPool::Queue) of a pool, behind the admission engine
// described below. A standalone Encoder owns its pool: N workers for
// threads > 1, and for threads == 1 a ZERO-worker pool, whose tasks run
// inside the wait on the calling thread — the same task graph without any
// thread hand-off on the paper's serial operating point. A waiting caller
// always helps (util::ThreadPool::wait), as one extra worker:
// Encoder::encode_frame(f) is submit_frame(f).get() with a drain() in
// between, so the caller runs its own frame's stages, and on a zero-worker
// pool enqueue() itself runs the frame's front and back before returning,
// so the future is already resolved.
//
// PIPELINING, two ways. Within a frame, the back half (entropy +
// reconstruction) codes each macroblock row as soon as the front half has
// planned it. Across frames, the front stage reads only the *previous*
// frame's reconstruction and the entropy stage writes the *current* one —
// so with the reference double-buffered (Encoder::recon_buf_) and the plans
// kept in two parities (f & 1), frame t+1's front half (ME + plan) can run
// while frame t's back half is still coding:
//
//      frame t   : [front t ····]
//                     [entropy+recon t ···]      ▲ waits on planned rows
//      frame t+1 :                [front t+1 ····]
//                                   ▲ waits on reconstructed rows of t
//                                    [entropy+recon t+1 ···]
//
// The handoff is row-granular, not whole-frame: the entropy stage publishes
// each reconstructed macroblock row (border-extended) through a monotonic
// util::ReadyCounter, and frame t+1's front row `by` parks until the rows
// its clamped search window can touch — ±search_range plus the half-pel
// interpolation sample — are published (rows_needed()). The row's motion
// compensation reads inside that window too (asserted in Debug builds), so
// every front read is final before it happens, and pipelined streams are
// byte-identical to an unpipelined encode. In-loop deblocking is
// frame-global and rewrites rows after entropy, so with deblock enabled the
// pipeline degrades to whole-frame publication (still overlapped with the
// next frame's submission, just not row-granular).
//
// Admission rules (pump_locked) keep at most one front and one back in
// flight per session:
//   * front(f) needs front(f−1) retired (fronts serialise: the estimator
//     state, ME-field parity and ref binding are per-session singletons)
//     and back(f−2) retired (parity f&1 buffers free);
//   * back(f) needs front(f) to have ENQUEUED every row task
//     (front_rows_enqueued) and back(f−1) retired (the bitstream writer is
//     strictly ordered). It does not wait for front(f) to retire: its
//     entropy slices park per row on row_planned_ instead.
// Deadlock freedom rests on dispatch order. back(f) is enqueued on the lane
// after every row task it parks on, so those rows are dispatched first, and
// front(f)'s own barrier helps run them. On a zero-worker pool that barrier
// (wait(front_group_)) helps only row tasks, so the back runs in drain()
// after all of them and never parks. Backs are enqueued before fronts, so a
// front row that parks on a reference row is always dispatched after the
// back that publishes it — the same argument that keeps the intra-frame
// wavefront deadlock-free, one level up.
//
// Job lifetime: a frame resolves only once BOTH halves have retired
// (retire_locked), and a job leaves jobs_ only when neither half is
// running. Until then the front's serial ME reduction into the report races
// with nothing, and no task ever outlives the job it writes.
//
// FAULT TOLERANCE (docs/FAULT_TOLERANCE.md is the contract):
//   * Shedding. A frame whose SubmitOptions deadline expires before its
//     front is dispatched, or that arrives past the admission queue_limit,
//     is resolved with a kTimeout/kOverloaded SessionError and REMOVED —
//     crucially, encode indices are assigned at front DISPATCH, not at
//     submission, so a shed frame never consumes an index. (If it did, the
//     encoder would reference frame f−2 where a decoder of the emitted
//     stream references f−1 — silent drift.) The bitstream simply continues
//     without the shed frame.
//   * Failure latching. If a front or back stage throws, the session
//     latches failed: the throwing frame's future resolves with the
//     classified error (kResource for bad_alloc, else kEncodeFailed), every
//     frame with neither half running resolves with kSessionFailed, later
//     submits fail fast, and drain() returns instead of hanging. A frame
//     with a half still running stays until that half finishes, and
//     whichever half of a frame finishes last resolves it: a front that
//     throws beside its own back resolves with the front's error once the
//     back is done, and a back that throws beside its own front resolves
//     once the front is done. A back that was already running when a newer
//     frame's front failed completes and resolves with its packet (its
//     bytes precede the failure point). Other sessions on the shared pool
//     are untouched — all failure state is per-pipeline, and a standalone
//     encoder latches exactly the same way.
//   * Unwedging. A failed back poison-publishes its full row range
//     (release_back_waiters) so the next frame's front rows parked on the
//     reference gate wake up (they read stale-but-allocated samples; the
//     session is latched and their results are discarded), a throwing
//     wavefront row publishes its row complete before rethrowing so sibling
//     rows' dependency waits resolve, and every front row publishes itself
//     planned however it exits, so its own back never stays parked. All
//     three keep "a task that parks is always preceded by the task that
//     publishes" true even on error paths.
//
// Determinism: every stage consumes only inputs that are fixed before the
// stage starts or ordered by a wavefront/readiness dependency, so
// zero-worker, N-worker and frame-pipelined encodes of the same sequence
// produce byte-identical ACV1/ACV2 bitstreams. tests/codec_parallel_test.cpp
// and tests/codec_service_test.cpp hold that invariant.
//
// One deliberate semantic change from the pre-pipeline encoder: the
// rate-aware ME cost predictor (EncoderConfig::me_lambda > 0) is now the
// median of the ME field — computable inside the wavefront — instead of the
// coded field, which only exists after entropy coding. With the default
// me_lambda = 0 (the paper's pure-SAD search) the cost ignores the
// predictor entirely, so a frame whose estimator does not read the field
// skips both the stagger and the predictor (it would read neighbours other
// workers are still writing) and its bitstream is unchanged.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codec/encoder.hpp"
#include "codec/session_error.hpp"
#include "me/block_sums.hpp"
#include "me/types.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace acbm::codec {

/// @brief The staged per-frame encoder described above; owned by
/// codec::Encoder and driven once per encode_frame / submit_frame call.
///
/// The front stage's SAD arithmetic routes through the runtime-dispatched
/// kernel table (simd/dispatch.hpp); every worker reads the same table, so
/// the (kernel × thread-count × pipelining) grid is one bitstream
/// equivalence class.
class EncoderPipeline {
 public:
  /// @brief Binds the pipeline to its encoder and to one new FIFO lane of
  /// `pool` (which fair-schedules across the lanes of all sessions).
  /// @param encoder must outlive the pipeline (the Encoder owns it)
  /// @param pool must outlive the pipeline; a zero-worker pool runs every
  ///        frame inline on the submitting thread
  EncoderPipeline(Encoder& encoder, util::ThreadPool& pool);

  /// Drains every submitted frame, then releases the lane.
  ~EncoderPipeline();

  EncoderPipeline(const EncoderPipeline&) = delete;
  EncoderPipeline& operator=(const EncoderPipeline&) = delete;

  /// @brief Encodes one frame: submit_frame(src).get(), except that the
  /// frame is borrowed for the duration of the call instead of copied.
  /// Rethrows the frame's SessionError if it failed.
  FrameReport encode_frame(const video::Frame& src);

  /// @brief Enqueues a frame with admission controls: deadline, bounded
  /// queue (shed with kOverloaded beyond it) and opt-in degradation. Frames
  /// complete in submission order. Never throws for admission outcomes —
  /// rejections come back as already-resolved error futures.
  std::future<EncodedFrame> submit_frame(video::Frame src,
                                         const SubmitOptions& options);

  /// @brief Like submit_frame(src, options) but an overload rejection
  /// returns std::nullopt instead of an error future (the caller keeps the
  /// frame conceptually — poll-style backpressure). A failed session still
  /// returns an engaged error future: that is terminal, not backpressure.
  std::optional<std::future<EncodedFrame>> try_submit_frame(
      video::Frame src, const SubmitOptions& options);

  /// @brief Blocks until every submitted frame has resolved. Returns
  /// normally on a failed session — the failure already surfaced through
  /// the per-frame futures.
  void drain();

  /// @return true once a frame's stage has thrown and latched the session.
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

 private:
  /// One submitted frame: its source, its packet under construction, and
  /// the promise the caller holds. Lives in jobs_ from
  /// admission until resolution; the destructor is the broken-promise
  /// safety net (a job destroyed unresolved rejects with kClosed, so a
  /// consumer blocked on the future sees a SessionError, never
  /// std::future_error).
  struct FrameJob {
    video::Frame owned_src;  ///< the submitted copy (async submits)
    /// The frame to encode: owned_src, or the caller's frame for the
    /// blocking encode_frame, which outlives the job.
    const video::Frame* src = &owned_src;
    std::uint64_t submit_seq = 0;  ///< submission number (error identity)
    std::uint64_t index = 0;       ///< encode index, set at front dispatch
    /// Non-zero once admitted: the obs async-span id pairing this frame's
    /// submit (async_begin at admission) with its resolution (async_end in
    /// resolve()) — the submit→resolve latency band in a trace.
    std::uint64_t trace_id = 0;
    // The halves, guarded by admit_mutex_. The front is dispatched first
    // (the index is set then); the back once the front has enqueued every
    // row task. The job retires when neither half is running and either an
    // error is set or both halves ran.
    bool front_started = false;
    bool front_running = false;
    bool rows_enqueued = false;
    bool back_started = false;
    bool back_running = false;
    bool degraded = false;  ///< encode with the degraded estimator
    int qp = 0;  ///< Encoder's Qp when admitted (set_qp is per submission)
    std::optional<std::chrono::steady_clock::time_point> deadline;
    EncodedFrame out;
    std::exception_ptr error;  ///< set => resolve() rejects instead
    bool resolved = false;
    std::promise<EncodedFrame> promise;
    util::Timer wall;  ///< restarted when the front half starts

    [[nodiscard]] bool running() const {
      return front_running || back_running;
    }
    /// Resolves the promise exactly once: with `error` if set, with the
    /// packet otherwise. Call WITHOUT admit_mutex_ held — the waiter may
    /// destroy the session the moment it observes the result.
    void resolve();
    ~FrameJob();
  };
  /// Jobs extracted under admit_mutex_, resolved after it is released.
  using Reap = std::vector<std::unique_ptr<FrameJob>>;

  [[nodiscard]] bool is_intra(std::uint64_t frame) const;

  /// The front stage: motion and plan — everything that reads only the
  /// previous frame's reconstruction. Retargets the encoder's front role
  /// pointers for the job's frame first, at its admitted Qp; a degraded
  /// job runs the overload estimator.
  void run_front(FrameJob& job);
  /// The entropy stage + frame finalisation: header/entropy bits,
  /// reconstruction, row publication, PSNR. The job's packet receives the
  /// frame's byte range of the stream.
  void run_back(FrameJob& job);

  // --- admission engine ---
  /// Common body of encode_frame/submit_frame/try_submit_frame: admits
  /// `job` (its source already set); nullopt only on an overload rejection
  /// with `overload_as_error` false.
  std::optional<std::future<EncodedFrame>> enqueue(
      std::unique_ptr<FrameJob> job, const SubmitOptions& options,
      bool overload_as_error);
  /// Dispatches whatever the admission rules allow; sheds deadline-expired
  /// frames it meets into `reap`. Requires admit_mutex_ held.
  void pump_locked(Reap& reap);
  /// Called by the running front once all its row tasks are queued: marks
  /// the job so pump_locked may admit its back.
  void front_rows_enqueued();
  void finish_front(FrameJob* job, std::exception_ptr error);
  void finish_back(FrameJob* job, std::exception_ptr error);
  /// Moves `job` into `reap` once neither half runs and it is either failed
  /// or fully encoded (then timing and counting it completed). Requires
  /// admit_mutex_.
  void retire_locked(FrameJob* job, Reap& reap);
  /// Latches the session failed: classifies `cause` onto `job` (unless its
  /// other half failed first) and resolves every other job with neither
  /// half running with kSessionFailed. The caller retires `job`. Requires
  /// admit_mutex_.
  void fail_locked(FrameJob* job, std::exception_ptr cause, const char* site,
                   Reap& reap);
  /// Removes `job` from jobs_ and returns its owner. Requires admit_mutex_.
  std::unique_ptr<FrameJob> extract_locked(FrameJob* job);
  /// Poison-publishes the failed back's full row range so gated front rows
  /// of the next frame wake up (see the header comment).
  void release_back_waiters();

  // --- stages ---
  /// One task per macroblock row and one barrier. A P-frame row passes the
  /// reference gate, then per block: the wavefront wait (if needed), the
  /// estimate, the ME-field write, the progress publish, and the plan. An
  /// I-frame row only plans. Every row then publishes itself planned. Once
  /// all rows are queued the back may start (front_rows_enqueued).
  /// P-frames then sum their ME totals into `report`.
  void front_stage(const video::Frame& src, bool intra_frame,
                   FrameReport& report);
  /// One block's estimate. `wavefront` false means other rows of this frame
  /// may be writing the ME field concurrently: the block then gets no
  /// current field and a zero cost predictor. `sums` is the row's block-sum
  /// band, or null.
  [[nodiscard]] me::EstimateResult estimate_block(
      const me::MotionEstimator& estimator, const video::Frame& src, int bx,
      int by, bool wavefront, const me::BlockSumBand* sums) const;
  /// Reference rows (cumulative macroblock rows, frame-local) frame f's
  /// front row `by` may touch: the block rows themselves shifted by up to
  /// ±search_range, one extra sample row for half-pel interpolation, and
  /// one row of slack. Reads past the bottom edge resolve in the replicated
  /// border, which is only final once the whole reference is — hence the
  /// clamp to "all rows".
  [[nodiscard]] std::uint64_t rows_needed(int by) const;
  /// True when row `by`'s block-sum band (reference rows 16·by − p …
  /// 16·by + p + 15) reads only rows rows_needed(by) covers. Asserted per
  /// row.
  [[nodiscard]] bool band_gated(int by) const;
  /// True when motion compensation (luma and chroma) of a row-`by` block
  /// at `mv` reads only rows rows_needed(by) covers. Asserted per block.
  [[nodiscard]] bool mc_footprint_gated(int by, me::Mv mv) const;

  /// The entropy stage: codes every slice and folds its tallies into
  /// `report` (which already holds the frame header's bits). Returns the
  /// time it sat parked on unplanned rows: the longest any one slice
  /// parked, which the stage clock leaves out.
  double entropy_stage(bool intra_frame, FrameReport& report);
  /// Entropy-codes and reconstructs rows [row_begin, row_end) into `slice`
  /// from the precomputed plans (the stage no longer reads the source
  /// frame), each row once the front has planned it; adds the time parked
  /// on that to slice.parked_seconds. Slices touch only their own
  /// writer/tallies plus row-disjoint regions of the reconstruction and
  /// coded MV field, so distinct slices may run concurrently.
  void entropy_slice(bool intra_frame, Encoder::SliceState& slice,
                     int row_begin, int row_end);
  /// Row-granular reference publication: border-extends the reconstructed
  /// macroblock row `by` and advances this frame's contiguous ready prefix
  /// on the parity's ReadyCounter. Safe from concurrent slices.
  void publish_back_row(int by);
  /// Folds one finished slice's tallies into the frame totals (slice order
  /// keeps the report deterministic).
  static void fold_slice(const Encoder::SliceState& slice,
                         FrameReport& report);

  Encoder& enc_;
  util::ThreadPool& pool_;
  util::TaskGroup frames_group_;  ///< every front and back task
  util::TaskGroup front_group_;   ///< front row tasks, current front
  util::TaskGroup back_group_;    ///< entropy slice tasks, current back

  // Per-frame front outputs, indexed by by * mbs_x + bx, sized once and
  // reused across frames — geometry is fixed per encoder and every front
  // overwrites all of their entries. Only the front reads the estimates,
  // and fronts serialise, so one buffer serves every frame. The plans have
  // two parities so a back half can read frame f's while the next front
  // fills frame f+1's; each parity is sized at the submission before its
  // first use (see enqueue). A plan holds every candidate's levels and
  // prediction buffer inline, so re-allocating them per frame would be
  // megabytes of allocator traffic at HD.
  std::vector<me::EstimateResult> me_results_;
  /// One block-sum band per macroblock row, built by the row's front task
  /// when the frame's estimator wants_block_sums(). Fronts serialise, so
  /// one set serves every frame; a band allocates at its first build.
  std::vector<me::BlockSumBand> bands_;
  std::vector<Encoder::MbPlan> plans_[2];
  /// ACV2 per-slice payload writers, reset (capacity kept) every frame.
  std::vector<util::BitWriter> slice_writers_;

  /// Wavefront progress, one counter per macroblock row. Frame f's front
  /// row `by` publishes f·mbs_x + (blocks estimated) — cumulative over the
  /// stream, so the counters are sized once and never reset: a value left
  /// over from an earlier frame is at most f·mbs_x, which satisfies no wait
  /// of frame f (every wait needs at least one block of the row).
  std::vector<util::ReadyCounter> row_progress_;
  /// Plan readiness, one counter per macroblock row: frame f's front row
  /// `by` publishes f + 1 once its plans are written (or it threw), and
  /// frame f's entropy stage waits for it before coding the row.
  /// Cumulative and never reset, like row_progress_.
  std::vector<util::ReadyCounter> row_planned_;

  // --- front-half state, owned by the (single) in-flight front task ---
  FrameJob* front_job_ = nullptr;     ///< the job whose front is running
  int front_parity_ = 0;              ///< plan-buffer parity of this front
  std::uint64_t front_frame_ = 0;     ///< frame index (BlockContext::frame)
  int front_qp_ = 0;                  ///< this frame's admitted Qp
  bool front_degraded_ = false;       ///< run the degraded estimator
  util::ReadyCounter* front_gate_ = nullptr;  ///< reference's row counter
  std::uint64_t front_wait_base_ = 0; ///< gate value where this ref starts

  // --- back-half state, owned by the (single) in-flight back task ---
  int back_parity_ = 0;
  std::uint64_t back_frame_ = 0;  ///< frame index (trace span tagging)
  int back_qp_ = 0;              ///< this frame's admitted Qp
  std::uint64_t back_base_ = 0;  ///< counter value where this frame starts
  std::mutex publish_mutex_;     ///< guards row_done_/row_prefix_
  std::vector<std::uint8_t> row_done_;
  int row_prefix_ = 0;  ///< contiguous published rows of the current back

  /// Cumulative reconstructed-row counters, one per reconstruction parity.
  /// Frame f's back publishes rows of recon_buf_[f&1] as
  /// (f>>1)*mbs_y + row_prefix_; frame f+1's front waits on the same
  /// parity's counter. 64-bit and never reset, so a counter value uniquely
  /// identifies (frame, row) across the whole stream.
  util::ReadyCounter ref_ready_[2];

  // --- admission engine state (admit_mutex_) ---
  std::mutex admit_mutex_;
  /// Every unresolved job, submission order. Dispatched jobs
  /// (front_started) form a prefix of at most two; the lowest-index one is
  /// the next back to run (backs retire strictly in order).
  std::deque<std::unique_ptr<FrameJob>> jobs_;
  std::uint64_t next_seq_ = 0;    ///< submission numbers
  std::uint64_t next_index_ = 0;  ///< encode indices; assigned at dispatch
  bool front_running_ = false;
  bool back_running_ = false;
  /// Latched by fail_locked; read lock-free by failed() and the fast paths.
  std::atomic<bool> failed_{false};
  std::string failure_message_;  ///< what() of the latching error

  /// This pipeline's FIFO lane of pool_. Declared last so it is destroyed
  /// first: its destructor drains any task still referencing the members
  /// above.
  util::ThreadPool::Queue queue_;
};

}  // namespace acbm::codec
