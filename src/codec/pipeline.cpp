#include "codec/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <utility>
#include <vector>

#include "codec/deblock.hpp"
#include "codec/mc.hpp"
#include "codec/service_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault_injector.hpp"
#include "video/psnr.hpp"

namespace acbm::codec {

namespace {
constexpr int kMb = me::kBlockSize;  // 16

std::exception_ptr session_error(SessionErrorClass cls, std::uint64_t seq,
                                 const char* site, const std::string& detail) {
  return std::make_exception_ptr(SessionError(cls, seq, site, detail));
}

std::int32_t trace_arg(std::uint64_t v) { return static_cast<std::int32_t>(v); }

void record_latency(obs::Histogram* hist, double seconds) {
  if (hist != nullptr) {
    hist->record(static_cast<std::uint64_t>(seconds * 1e9));
  }
}

/// Publishes `value` on `counter` when it leaves scope, error paths
/// included.
class PublishOnExit {
 public:
  PublishOnExit(util::ReadyCounter& counter, std::uint64_t value)
      : counter_(counter), value_(value) {}
  ~PublishOnExit() { counter_.publish(value_); }
  PublishOnExit(const PublishOnExit&) = delete;
  PublishOnExit& operator=(const PublishOnExit&) = delete;

 private:
  util::ReadyCounter& counter_;
  std::uint64_t value_;
};
}  // namespace

void EncoderPipeline::FrameJob::resolve() {
  if (resolved) {
    return;
  }
  resolved = true;
  if (trace_id != 0) {
    obs::async_end("svc", "frame", trace_id);
  }
  if (error != nullptr) {
    // Move the job's reference into the shared state so the last release of
    // the exception object happens on the consumer side (future::get /
    // catch), not in ~FrameJob on a pool worker.
    promise.set_exception(std::exchange(error, nullptr));
  } else {
    promise.set_value(std::move(out));
  }
}

EncoderPipeline::FrameJob::~FrameJob() {
  // Broken-promise guard: a job destroyed unresolved (session torn down
  // around it) rejects with kClosed so the consumer never sees
  // std::future_error{broken_promise}.
  if (!resolved) {
    promise.set_exception(session_error(
        SessionErrorClass::kClosed, submit_seq, "close",
        "session destroyed with this frame unresolved"));
  }
}

EncoderPipeline::EncoderPipeline(Encoder& encoder, util::ThreadPool& pool)
    : enc_(encoder),
      pool_(pool),
      me_results_(static_cast<std::size_t>(encoder.mbs_x()) *
                  static_cast<std::size_t>(encoder.mbs_y())),
      bands_(static_cast<std::size_t>(encoder.mbs_y())),
      row_progress_(static_cast<std::size_t>(encoder.mbs_y())),
      row_planned_(static_cast<std::size_t>(encoder.mbs_y())),
      row_done_(static_cast<std::size_t>(encoder.mbs_y())),
      queue_(pool) {}

EncoderPipeline::~EncoderPipeline() {
  try {
    drain();
  } catch (...) {
    // Frame tasks catch their stages' errors into the frames' futures; an
    // error reaching the group can only come from a task's own bookkeeping
    // (an allocation failure). The session is going away with it, and a
    // destructor must not throw.
  }
}

bool EncoderPipeline::is_intra(std::uint64_t frame) const {
  return frame == 0 ||
         (enc_.config_.intra_period > 0 &&
          frame % static_cast<std::uint64_t>(enc_.config_.intra_period) == 0);
}

// ------------------------------------------------------------ frame driver

FrameReport EncoderPipeline::encode_frame(const video::Frame& src) {
  // submit_frame(src).get() without the copy: the caller's frame outlives
  // this blocking call, so the job borrows it. Draining first lets the
  // caller run the frame's front and back itself instead of handing them
  // to a worker and sleeping.
  auto job = std::make_unique<FrameJob>();
  job->src = &src;
  std::future<EncodedFrame> future =
      *enqueue(std::move(job), SubmitOptions{}, /*overload_as_error=*/true);
  drain();
  return future.get().report;
}

std::future<EncodedFrame> EncoderPipeline::submit_frame(
    video::Frame src, const SubmitOptions& options) {
  auto job = std::make_unique<FrameJob>();
  job->owned_src = std::move(src);
  return *enqueue(std::move(job), options, /*overload_as_error=*/true);
}

std::optional<std::future<EncodedFrame>> EncoderPipeline::try_submit_frame(
    video::Frame src, const SubmitOptions& options) {
  auto job = std::make_unique<FrameJob>();
  job->owned_src = std::move(src);
  return enqueue(std::move(job), options, /*overload_as_error=*/false);
}

std::optional<std::future<EncodedFrame>> EncoderPipeline::enqueue(
    std::unique_ptr<FrameJob> job, const SubmitOptions& options,
    bool overload_as_error) {
  ServiceStatsSink* stats = enc_.stats_sink_;
  job->deadline = options.deadline;
  std::future<EncodedFrame> future = job->promise.get_future();
  Reap reap;
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    const std::uint64_t seq = next_seq_++;
    job->submit_seq = seq;
    // Snapshot Qp here, on the submitting thread: set_qp applies from the
    // next submitted frame however late this one is encoded.
    job->qp = enc_.config_.qp;
    if (seq < 2) {
      // Size parity `seq`'s plan buffer once, here on the submitting
      // thread: sizing it inside a front task on a pool worker measurably
      // raised peak RSS (the memory lands in that thread's malloc arena).
      // Encode indices never exceed submission numbers, so both parities
      // exist before their first use.
      plans_[seq].resize(static_cast<std::size_t>(enc_.mbs_x()) *
                         static_cast<std::size_t>(enc_.mbs_y()));
    }
    if (failed_.load(std::memory_order_relaxed)) {
      // Fail fast: the session is latched; every further submit resolves
      // immediately so a driver loop notices without blocking on drain().
      job->error = session_error(SessionErrorClass::kSessionFailed, seq,
                                 "submit", failure_message_);
      if (stats != nullptr) {
        stats->add_failed();
      }
    } else {
      std::size_t pending = 0;
      for (const auto& j : jobs_) {
        if (!j->front_started) {
          ++pending;
        }
      }
      if (options.queue_limit > 0 &&
          pending >= static_cast<std::size_t>(options.queue_limit)) {
        if (options.degrade_on_overload &&
            enc_.degraded_estimator_ != nullptr) {
          // Degradation ladder: admit anyway, but flag the frame for the
          // cheaper estimator instead of shedding it.
          job->degraded = true;
          obs::instant("svc", "degrade", trace_arg(enc_.trace_session_),
                       trace_arg(seq));
          if (stats != nullptr) {
            stats->add_degraded();
          }
        } else {
          obs::instant("svc", "shed.overload", trace_arg(enc_.trace_session_),
                       trace_arg(seq));
          if (stats != nullptr) {
            stats->add_rejected();
          }
          if (!overload_as_error) {
            return std::nullopt;  // ~FrameJob abandons the untouched future
          }
          job->error = session_error(
              SessionErrorClass::kOverloaded, seq, "submit",
              "admission queue full (queue_limit=" +
                  std::to_string(options.queue_limit) + ")");
        }
      }
      if (job != nullptr && job->error == nullptr) {
        if (stats != nullptr) {
          stats->add_accepted();
          stats->note_queue_depth(pending + 1);
        }
        // Async submit→resolve span: id unique across sessions (the +1 on
        // the session keeps the id non-zero, resolve()'s disarmed marker).
        job->trace_id =
            ((enc_.trace_session_ + 1) << 32) | (seq & 0xffffffffu);
        obs::async_begin("svc", "frame", job->trace_id,
                         trace_arg(enc_.trace_session_), trace_arg(seq));
        jobs_.push_back(std::move(job));
        pump_locked(reap);
      }
    }
  }
  if (job != nullptr) {
    job->resolve();  // rejected at admission; nobody waits on it yet
  }
  for (auto& shed : reap) {
    shed->resolve();
  }
  if (pool_.size() == 0) {
    // Nobody else will run the frame: do it here (the wait helps), so the
    // returned future is already resolved.
    drain();
  }
  return future;
}

void EncoderPipeline::drain() {
  // Every front and back task is a frames_group_ task, and a finishing
  // task dispatches its successors before it retires, so the group only
  // empties once no admitted frame is left unresolved.
  pool_.wait(frames_group_);
}

void EncoderPipeline::pump_locked(Reap& reap) {
  if (failed_.load(std::memory_order_relaxed)) {
    return;  // nothing dispatches on a latched session
  }
  ServiceStatsSink* stats = enc_.stats_sink_;
  // Admit the back BEFORE the front: both land on the same FIFO lane, so
  // back(f−1) is always dispatched before front(f) — the task that parks on
  // a reference row can never be scheduled ahead of the task that publishes
  // it, even on a one-worker pool. In-flight jobs form the deque prefix in
  // index order, so jobs_.front() is the lowest-index frame — exactly the
  // next back (the bitstream writer is strictly ordered). Its front must
  // have enqueued every row task: the back is then queued behind each row
  // whose plans it parks on.
  if (!back_running_ && !jobs_.empty() && jobs_.front()->rows_enqueued &&
      !jobs_.front()->back_started) {
    FrameJob* job = jobs_.front().get();
    pool_.submit(queue_, [this, job] {
      std::exception_ptr error;
      try {
        run_back(*job);
      } catch (...) {
        error = std::current_exception();
        release_back_waiters();
      }
      finish_back(job, error);
    }, &frames_group_);
    // Marked after a successful submit; the task cannot finish before this
    // lock is released.
    job->back_started = true;
    job->back_running = true;
    back_running_ = true;
  }
  // front(f) needs front(f−1) retired (fronts serialise on the estimator,
  // the ME-field parity and the ref binding) and back(f−2) retired (frame
  // f's parity-(f&1) stage buffers and reconstruction target free): with
  // in-flight jobs forming the deque prefix, both hold exactly when the
  // first pending job sits at position <= 1. Deadline-expired frames met
  // here are shed (kTimeout) WITHOUT consuming an encode index — the next
  // pending frame takes their place.
  if (!front_running_) {
    for (;;) {
      std::size_t k = 0;
      while (k < jobs_.size() && jobs_[k]->front_started) {
        ++k;
      }
      if (k >= jobs_.size() || k > 1) {
        break;
      }
      FrameJob* job = jobs_[k].get();
      if (job->deadline &&
          std::chrono::steady_clock::now() > *job->deadline) {
        job->error =
            session_error(SessionErrorClass::kTimeout, job->submit_seq,
                          "dispatch", "deadline expired before dispatch");
        obs::instant("svc", "shed.timeout", trace_arg(enc_.trace_session_),
                     trace_arg(job->submit_seq));
        if (stats != nullptr) {
          stats->add_timed_out();
        }
        reap.push_back(extract_locked(job));
        continue;
      }
      job->index = next_index_++;
      job->out.frame_index = job->index;
      job->front_started = true;
      job->front_running = true;
      front_running_ = true;
      pool_.submit(queue_, [this, job] {
        std::exception_ptr error;
        try {
          job->wall.restart();
          if (enc_.fault_ != nullptr && enc_.fault_->armed()) {
            enc_.fault_->inject(enc_.fault_lane_, job->submit_seq);
          }
          run_front(*job);
        } catch (...) {
          error = std::current_exception();
        }
        finish_front(job, error);
      }, &frames_group_);
      break;
    }
  }
}

void EncoderPipeline::front_rows_enqueued() {
  Reap reap;
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    front_job_->rows_enqueued = true;
    pump_locked(reap);
  }
  for (auto& done : reap) {
    done->resolve();
  }
}

void EncoderPipeline::finish_front(FrameJob* job, std::exception_ptr error) {
  Reap reap;
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    front_running_ = false;
    job->front_running = false;
    if (error != nullptr) {
      fail_locked(job, std::move(error), "front", reap);
    } else if (failed_.load(std::memory_order_relaxed) &&
               job->error == nullptr) {
      // The session latched while this front ran (its reference frame's
      // back failed), so its own back was never admitted: the frame can
      // never be entropy-coded.
      job->error = session_error(SessionErrorClass::kSessionFailed,
                                 job->submit_seq, "front", failure_message_);
      if (enc_.stats_sink_ != nullptr) {
        enc_.stats_sink_->add_failed();
      }
    }
    retire_locked(job, reap);
    pump_locked(reap);
  }
  for (auto& done : reap) {
    done->resolve();
  }
}

void EncoderPipeline::finish_back(FrameJob* job, std::exception_ptr error) {
  Reap reap;
  {
    const std::lock_guard<std::mutex> lock(admit_mutex_);
    back_running_ = false;
    job->back_running = false;
    if (error != nullptr) {
      fail_locked(job, std::move(error), "back", reap);
    }
    // Even if the session latched while this back ran (a newer frame's
    // front failed), this frame's bytes precede the failure point — the
    // packet is valid and resolves with its value.
    retire_locked(job, reap);
    pump_locked(reap);
  }
  // Resolve outside the lock: the waiter may destroy the session (and try
  // to drain this pipeline) the moment it observes the result.
  for (auto& done : reap) {
    done->resolve();
  }
}

void EncoderPipeline::retire_locked(FrameJob* job, Reap& reap) {
  if (job->running()) {
    return;  // the half still running retires the job when it finishes
  }
  if (job->error == nullptr) {
    if (!job->back_started) {
      return;  // planned; its back waits for admission
    }
    job->out.report.frame_wall_seconds = job->wall.seconds();
    record_latency(enc_.stage_metrics_.frame_wall,
                   job->out.report.frame_wall_seconds);
    if (enc_.stats_sink_ != nullptr) {
      enc_.stats_sink_->add_completed();
    }
  }
  reap.push_back(extract_locked(job));
}

void EncoderPipeline::fail_locked(FrameJob* job, std::exception_ptr cause,
                                  const char* site, Reap& reap) {
  if (job->error != nullptr) {
    return;  // the frame's other half failed first and latched the session
  }
  SessionErrorClass cls = SessionErrorClass::kEncodeFailed;
  std::string detail = "unknown exception";
  try {
    std::rethrow_exception(cause);
  } catch (const std::bad_alloc&) {
    cls = SessionErrorClass::kResource;
    detail = "allocation failure";
  } catch (const std::exception& e) {
    detail = e.what();
  } catch (...) {
  }
  failure_message_ = detail;
  failed_.store(true, std::memory_order_release);

  ServiceStatsSink* stats = enc_.stats_sink_;
  job->error = session_error(cls, job->submit_seq, site, detail);
  if (stats != nullptr) {
    stats->add_failed();
  }
  // Collateral: every other job with neither half running resolves with
  // kSessionFailed. A job with a half still running stays in jobs_ — that
  // half's finish retires it — so a task never outlives its job.
  std::vector<FrameJob*> collateral;
  for (const auto& j : jobs_) {
    if (j.get() != job && !j->running()) {
      collateral.push_back(j.get());
    }
  }
  for (FrameJob* j : collateral) {
    j->error = session_error(SessionErrorClass::kSessionFailed, j->submit_seq,
                             "shed", detail);
    if (stats != nullptr) {
      stats->add_failed();
    }
    reap.push_back(extract_locked(j));
  }
}

std::unique_ptr<EncoderPipeline::FrameJob> EncoderPipeline::extract_locked(
    FrameJob* job) {
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (it->get() == job) {
      std::unique_ptr<FrameJob> owner = std::move(*it);
      jobs_.erase(it);
      return owner;
    }
  }
  assert(false && "extract_locked: job not in jobs_");
  return nullptr;
}

void EncoderPipeline::release_back_waiters() {
  // The failed back stopped writing before this publish (same-thread
  // ordering through the catch), so released readers race with nothing —
  // they read stale-but-allocated reference samples, and every result of
  // this latched session is discarded anyway.
  ref_ready_[back_parity_].publish(
      back_base_ + static_cast<std::uint64_t>(enc_.mbs_y()));
}

// -------------------------------------------------------------- front half

void EncoderPipeline::run_front(FrameJob& job) {
  Encoder& e = enc_;
  const std::uint64_t f = job.index;
  FrameReport& report = job.out.report;
  const std::int32_t tsess = trace_arg(e.trace_session_);
  const std::int32_t tframe = trace_arg(f);
  obs::Span frame_span("enc", "frame.front", tsess, tframe);
  const bool intra_frame = is_intra(f);
  report.intra = intra_frame;

  front_job_ = &job;
  front_parity_ = static_cast<int>(f & 1);
  front_frame_ = f;
  front_qp_ = job.qp;
  front_degraded_ = job.degraded && e.degraded_estimator_ != nullptr;
  e.front_ref_ = &e.recon_buf_[(f + 1) & 1];
  e.me_field_ = &e.me_fields_[f & 1];
  e.prev_me_field_ = &e.me_fields_[(f + 1) & 1];

  // Reset IN PLACE: the MV fields, plan buffers and slice writers all reuse
  // their previous allocations, so steady-state encoding does no per-frame
  // heap traffic for them — measurable at HD sizes, byte-exact always.
  e.me_field_->reset_for_picture(e.size_.width, e.size_.height);

  if (!intra_frame) {
    // Zero-copy reference: ME and motion compensation read the previous
    // frame's reconstruction buffer directly. Under pipelining its lower
    // rows may still be materialising — each row task's readiness gate
    // keeps every read behind the publication frontier.
    // (A P-frame always has a predecessor: frame 0 is intra.)
    e.ref_half_.bind(&e.front_ref_->y());
    front_gate_ = &ref_ready_[(f + 1) & 1];
    front_wait_base_ = ((f - 1) >> 1) * static_cast<std::uint64_t>(e.mbs_y());
  }

  util::Timer front_timer;
  {
    obs::Span front_span("enc", "stage.front", tsess, tframe);
    front_stage(*job.src, intra_frame, report);
  }
  record_latency(e.stage_metrics_.front, front_timer.seconds());
  report.me_field_smoothness = e.me_field_->smoothness_l1();
}

// --------------------------------------------------------------- back half

void EncoderPipeline::run_back(FrameJob& job) {
  Encoder& e = enc_;
  const std::uint64_t f = job.index;
  const int qp = job.qp;
  FrameReport& report = job.out.report;
  const std::int32_t tsess = trace_arg(e.trace_session_);
  const std::int32_t tframe = trace_arg(f);
  obs::Span frame_span("enc", "frame.back", tsess, tframe);
  const bool intra_frame = is_intra(f);
  // Parity and counter base first, before anything that can throw:
  // release_back_waiters reads them to unwedge the next frame's gated ME
  // rows if this back fails.
  back_parity_ = static_cast<int>(f & 1);
  back_frame_ = f;
  back_qp_ = qp;
  back_base_ = (f >> 1) * static_cast<std::uint64_t>(e.mbs_y());
  e.recon_ = &e.recon_buf_[f & 1];
  e.back_ref_ = &e.recon_buf_[(f + 1) & 1];
  e.coded_field_.reset_for_picture(e.size_.width, e.size_.height);

  std::fill(row_done_.begin(), row_done_.end(), 0);
  row_prefix_ = 0;

  const std::uint64_t frame_start_bits = e.writer_.bit_count();
  // Frame 0's packet absorbs the sequence header so that concatenating the
  // per-frame packets reproduces Encoder::finish() byte for byte.
  const std::size_t stream_begin = f == 0 ? 0 : e.writer_.bytes().size();

  e.writer_.align();
  e.writer_.put_bits(kFrameSync, 16);
  e.writer_.put_bits(intra_frame ? 0 : 1, 1);
  e.writer_.put_bits(static_cast<std::uint32_t>(qp), 5);
  e.writer_.put_bit(e.config_.deblock);
  report.header_bits = e.writer_.bit_count() - frame_start_bits;

  // The stage clock times coding, not the chase: the time the stage sat
  // parked on rows its front had not planned yet is taken out.
  util::Timer entropy_timer;
  double parked = 0.0;
  {
    obs::Span entropy_span("enc", "stage.entropy", tsess, tframe);
    parked = entropy_stage(intra_frame, report);
  }
  record_latency(e.stage_metrics_.entropy, entropy_timer.seconds() - parked);

  e.writer_.align();
  report.bits = e.writer_.bit_count() - frame_start_bits;

  if (e.config_.deblock) {
    // In-loop deblocking rewrites rows after entropy coding, so rows are
    // only final per frame. Without it every row was border-extended strip
    // by strip as it was published; re-extending here would rewrite
    // (identical) border bytes under the next frame's gated readers.
    deblock_frame(*e.recon_, qp);
    e.recon_->extend_borders();
  }
  // Whole frame final (covers the deblock path, and releases a waiter of
  // any row in the non-deblock path that raced the last strip).
  ref_ready_[back_parity_].publish(back_base_ +
                                   static_cast<std::uint64_t>(e.mbs_y()));
  const video::FramePsnr psnr = video::psnr_frame(*job.src, *e.recon_);
  report.psnr_y = psnr.y;
  report.psnr_yuv = psnr.yuv;

  e.last_recon_ = e.recon_;
  e.last_me_field_ = &e.me_fields_[f & 1];

  const std::span<const std::uint8_t> stream = e.writer_.bytes();
  job.out.bytes.assign(
      stream.begin() + static_cast<std::ptrdiff_t>(stream_begin),
      stream.end());
}

// ------------------------------------------------------------- front stage

me::EstimateResult EncoderPipeline::estimate_block(
    const me::MotionEstimator& estimator, const video::Frame& src, int bx,
    int by, bool wavefront, const me::BlockSumBand* sums) const {
  const Encoder& e = enc_;
  me::BlockContext ctx;
  ctx.cur = &src.y();
  ctx.ref = &e.ref_half_;
  ctx.x = bx * kMb;
  ctx.y = by * kMb;
  ctx.bx = bx;
  ctx.by = by;
  ctx.window = me::unrestricted_window(e.config_.search_range);
  // Rate-aware search (me_lambda > 0) prices MVD bits against the median of
  // the ME field: its inputs (left, above, above-right) are exactly the
  // wavefront-ordered entries, so the predictor is identical in serial and
  // parallel encodes. Without the wavefront those entries may be mid-write
  // on other workers, so the block sees neither them nor the field; λ = 0
  // then makes cost ≡ SAD whatever the predictor.
  ctx.cost = me::MotionCost(
      e.config_.me_lambda,
      wavefront ? e.me_field_->median_predictor(bx, by) : me::Mv{});
  ctx.half_pel = e.config_.half_pel;
  ctx.cur_field = wavefront ? e.me_field_ : nullptr;
  ctx.prev_field = e.prev_me_field_;
  ctx.sums = sums;
  ctx.qp = front_qp_;
  ctx.frame = static_cast<int>(front_frame_);
  return estimator.estimate(ctx);
}

std::uint64_t EncoderPipeline::rows_needed(int by) const {
  const Encoder& e = enc_;
  // Deepest reference row an ME read of block row `by` can touch: the block
  // itself, displaced by up to +search_range (candidates are clamped to the
  // search window), plus one sample row consumed by half-pel interpolation
  // and one row of slack. Reads past the picture bottom resolve in the
  // replicated border, which is only final once the last row's strip is —
  // hence the clamp to "all rows".
  const int bottom = by * kMb + (kMb - 1) + e.config_.search_range + 2;
  if (bottom >= e.size_.height) {
    return static_cast<std::uint64_t>(e.mbs_y());
  }
  return static_cast<std::uint64_t>(bottom / kMb + 1);
}

bool EncoderPipeline::band_gated(int by) const {
  const std::uint64_t rows = rows_needed(by);
  // The band's deepest row: the block row displaced by +search_range.
  return rows == static_cast<std::uint64_t>(enc_.mbs_y()) ||
         by * kMb + enc_.config_.search_range + kMb - 1 <
             static_cast<int>(rows) * kMb;
}

bool EncoderPipeline::mc_footprint_gated(int by, me::Mv mv) const {
  const std::uint64_t rows = rows_needed(by);
  if (rows == static_cast<std::uint64_t>(enc_.mbs_y())) {
    return true;  // the whole reference, bottom border included, is final
  }
  // Only the bottom edge can pass the gate: the gate is a prefix of rows,
  // and the top border is extended with row 0. Luma rows, then chroma rows
  // (4:2:0, half-height), each with the interpolation row of a half phase.
  const int gated = static_cast<int>(rows) * kMb;
  const video::HalfpelSplit luma = video::split_halfpel(mv.y);
  const video::HalfpelSplit chroma =
      video::split_halfpel(derive_chroma_mv(mv).y);
  return by * kMb + luma.integer + kMb - 1 + luma.phase < gated &&
         by * kMb / 2 + chroma.integer + kMb / 2 - 1 + chroma.phase <
             gated / 2;
}

void EncoderPipeline::front_stage(const video::Frame& src, bool intra_frame,
                                  FrameReport& report) {
  const Encoder& e = enc_;
  // One estimator serves every row task of the frame (estimate() is const).
  const me::MotionEstimator& estimator =
      front_degraded_ ? *e.degraded_estimator_ : *e.estimator_;
  // Block (bx, by) may start once row by−1 has estimated through column
  // bx+1 (its above-right predictor) — the classic two-block wavefront
  // stagger. Only an estimator that reads the current field, or a rate-aware
  // cost's median predictor, needs it; otherwise rows run independently.
  const bool wavefront =
      !intra_frame && (e.config_.me_lambda != 0.0 ||
                       estimator.reads_current_field());
  const bool block_sums = !intra_frame && estimator.wants_block_sums();
  const int mbs_x = e.mbs_x();
  // Progress is cumulative over the stream: this frame's row values start
  // at `base` (see row_progress_).
  const std::uint64_t base = front_frame_ * static_cast<std::uint64_t>(mbs_x);
  std::vector<Encoder::MbPlan>& plans = plans_[front_parity_];
  const std::uint64_t planned = front_frame_ + 1;  // see row_planned_
  const auto row_task = [&](int by) {
    // The back parks on this row's plans: publish them as planned on
    // every exit, so a row that throws still releases it.
    const PublishOnExit publish_planned(
        row_planned_[static_cast<std::size_t>(by)], planned);
    const std::int32_t tsess = trace_arg(e.trace_session_);
    const std::int32_t tframe = trace_arg(front_frame_);
    const std::size_t row_start =
        static_cast<std::size_t>(by) * static_cast<std::size_t>(mbs_x);
    if (intra_frame) {
      // Intra plans read neither the reference nor the (stale) estimate.
      obs::Span row_span("enc", "front.row", tsess, tframe, by);
      for (int bx = 0; bx < mbs_x; ++bx) {
        const std::size_t idx = row_start + static_cast<std::size_t>(bx);
        e.plan_mb(src, bx, by, true, front_qp_, me_results_[idx],
                  plans[idx]);
      }
      return;
    }
    // Cross-frame gate first: park until the previous frame's entropy
    // stage has published every reference row this row's search window —
    // and so its motion compensation — can touch. The publisher (the back
    // task, dispatched earlier on this lane) never parks on this frame, so
    // the wait always resolves.
    {
      obs::Span wait_span("enc", "wait.ref_rows", tsess, tframe, by);
      front_gate_->wait_for(front_wait_base_ + rows_needed(by));
    }
    obs::Span row_span("enc", "front.row", tsess, tframe, by);
    util::ReadyCounter& done = row_progress_[static_cast<std::size_t>(by)];
    try {
      // The row's block sums, built once and shared by its blocks. The
      // band reads inside the rows the gate above waited for.
      const me::BlockSumBand* sums = nullptr;
      if (block_sums) {
        assert(band_gated(by) && "block sums read past the gated rows");
        me::BlockSumBand& band = bands_[static_cast<std::size_t>(by)];
        band.build(e.ref_half_.integer_plane(), by * kMb,
                   e.config_.search_range);
        sums = &band;
      }
      for (int bx = 0; bx < mbs_x; ++bx) {
        if (wavefront && by > 0) {
          row_progress_[static_cast<std::size_t>(by) - 1].wait_for(
              base + static_cast<std::uint64_t>(std::min(bx + 2, mbs_x)));
        }
        const std::size_t idx = row_start + static_cast<std::size_t>(bx);
        me::EstimateResult& est = me_results_[idx];
        est = estimate_block(estimator, src, bx, by, wavefront, sums);
        e.me_field_->set(bx, by, est.mv);
        done.publish(base + static_cast<std::uint64_t>(bx) + 1);
        // Planning after the publish never delays the row below. Its
        // reference reads (MC at est.mv, the SKIP candidate's zero-vector
        // copy) lie inside the rows the gate above waited for.
        assert(mc_footprint_gated(by, est.mv) &&
               "motion compensation reads past the gated reference rows");
        e.plan_mb(src, bx, by, false, front_qp_, est, plans[idx]);
      }
    } catch (...) {
      // Mark the whole row complete before the pool captures the error:
      // dependent rows park on this row's progress, and the stage barrier
      // can only rethrow once every row task has finished.
      done.publish(base + static_cast<std::uint64_t>(mbs_x));
      throw;
    }
  };
  try {
    // One task per row. The lane dispatches FIFO, so a row's predecessor is
    // always running or finished before the row starts: the dependency
    // wait in the row cannot deadlock.
    for (int by = 0; by < e.mbs_y(); ++by) {
      pool_.submit(queue_, [&row_task, by] { row_task(by); }, &front_group_);
    }
    // Every row is queued, so the back may chase them (see pump_locked).
    front_rows_enqueued();
  } catch (...) {
    // A failed submission: the rows already queued read this frame's
    // locals, so they finish before the error leaves. Their own errors
    // are dropped behind this one, and the back was not admitted.
    try {
      pool_.wait(front_group_);
    } catch (...) {
    }
    throw;
  }
  pool_.wait(front_group_);
  if (intra_frame) {
    return;
  }

  // Serial reduction keeps the report totals independent of scheduling.
  for (const me::EstimateResult& er : me_results_) {
    report.me_positions += er.positions;
    report.me_sad_evaluations += er.sad_evaluations;
    if (er.used_full_search) {
      ++report.full_search_blocks;
    }
  }
}

// ----------------------------------------------------------- entropy stage

void EncoderPipeline::publish_back_row(int by) {
  Encoder& e = enc_;
  // Border-extend the strip first: a row is "published" only once every
  // sample a gated reader may touch — including the replicated side/top/
  // bottom bands — is final. Strips are row-disjoint, so concurrent slices
  // extend without overlap.
  e.recon_->extend_border_rows(by * kMb, (by + 1) * kMb);
  std::uint64_t ready = 0;
  {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    row_done_[static_cast<std::size_t>(by)] = 1;
    // The counter is cumulative, so only the contiguous prefix publishes;
    // out-of-order slice completions park here until the gap row lands.
    while (row_prefix_ < e.mbs_y() &&
           row_done_[static_cast<std::size_t>(row_prefix_)] != 0) {
      ++row_prefix_;
    }
    ready = back_base_ + static_cast<std::uint64_t>(row_prefix_);
  }
  // publish() takes a running max, so two slices racing here can never
  // regress the counter (the mutex orders the prefix computation; the
  // publication order outside it does not matter).
  ref_ready_[back_parity_].publish(ready);
}

void EncoderPipeline::entropy_slice(bool intra_frame,
                                    Encoder::SliceState& slice, int row_begin,
                                    int row_end) {
  Encoder& e = enc_;
  obs::Span span("enc", "entropy.slice", trace_arg(e.trace_session_),
                 trace_arg(back_frame_), row_begin);
  const std::vector<Encoder::MbPlan>& plans = plans_[back_parity_];
  // Same stride source as the front stage that filled plans_.
  const int mbs_x = e.mbs_x();
  const std::uint64_t planned = back_frame_ + 1;  // see row_planned_

  for (int by = row_begin; by < row_end; ++by) {
    // Chase the front: code a row once its front task has planned it.
    util::ReadyCounter& row = row_planned_[static_cast<std::size_t>(by)];
    if (row.value() < planned) {
      obs::Span wait_span("enc", "wait.plan_rows", trace_arg(e.trace_session_),
                          trace_arg(back_frame_), by);
      const util::Timer parked;
      row.wait_for(planned);
      slice.parked_seconds += parked.seconds();
    }
    for (int bx = 0; bx < mbs_x; ++bx) {
      const std::size_t idx =
          static_cast<std::size_t>(by) * static_cast<std::size_t>(mbs_x) + bx;
      e.write_mb(intra_frame, back_qp_, plans[idx], bx, by, slice);
    }
    if (!e.config_.deblock) {
      publish_back_row(by);
    }
  }
}

void EncoderPipeline::fold_slice(const Encoder::SliceState& slice,
                                 FrameReport& report) {
  report.mv_bits += slice.tally.mv_bits;
  report.coeff_bits += slice.tally.coeff_bits;
  report.header_bits += slice.tally.header_bits;
  report.intra_mbs += slice.tally.intra_mbs;
  report.inter_mbs += slice.tally.inter_mbs;
  report.skip_mbs += slice.tally.skip_mbs;
}

double EncoderPipeline::entropy_stage(bool intra_frame, FrameReport& report) {
  Encoder& e = enc_;
  const int mbs_y = e.mbs_y();
  const int slice_count = e.slices_;  // clamped to [1, mbs_y] at construction

  if (slice_count == 1) {
    // Legacy ACV1 framing: one implicit slice straight into the stream
    // writer, no slice directory — byte-identical to the pre-slice encoder.
    Encoder::SliceState slice;
    slice.writer = &e.writer_;
    slice.first_mb_row = 0;
    entropy_slice(intra_frame, slice, 0, mbs_y);
    fold_slice(slice, report);
    return slice.parked_seconds;
  }

  // ACV2: each slice entropy-codes its rows into a private writer. Slice s
  // owns rows [s·mbs_y/N, (s+1)·mbs_y/N) — the same deterministic split the
  // decoder reconstructs from the slice headers. All inputs (the plans, the
  // reference) are fixed before this stage, and slices
  // write only row-disjoint state, so the tasks are embarrassingly parallel
  // and the bytes are independent of scheduling. The writers are pipeline
  // members reset (not destroyed) per frame, so their payload buffers are
  // reused across frames.
  slice_writers_.resize(static_cast<std::size_t>(slice_count));
  std::vector<util::BitWriter>& writers = slice_writers_;
  std::vector<Encoder::SliceState> slices(
      static_cast<std::size_t>(slice_count));
  for (int s = 0; s < slice_count; ++s) {
    slices[static_cast<std::size_t>(s)].writer =
        &writers[static_cast<std::size_t>(s)];
    slices[static_cast<std::size_t>(s)].first_mb_row = s * mbs_y / slice_count;
  }
  const auto row_end = [&](int s) {
    return s + 1 < slice_count
               ? slices[static_cast<std::size_t>(s) + 1].first_mb_row
               : mbs_y;
  };

  for (int s = 0; s < slice_count; ++s) {
    Encoder::SliceState& slice = slices[static_cast<std::size_t>(s)];
    const int end = row_end(s);
    pool_.submit(queue_, [this, intra_frame, &slice, end] {
      entropy_slice(intra_frame, slice, slice.first_mb_row, end);
    }, &back_group_);
  }
  pool_.wait(back_group_);
  double parked = 0.0;
  for (const Encoder::SliceState& slice : slices) {
    parked = std::max(parked, slice.parked_seconds);
  }

  // Slice directory + byte-aligned payload concatenation, in slice order.
  const std::uint64_t dir_start = e.writer_.bit_count();
  e.writer_.align();
  e.writer_.put_bits(static_cast<std::uint32_t>(slice_count), 8);
  report.header_bits += e.writer_.bit_count() - dir_start;
  for (int s = 0; s < slice_count; ++s) {
    Encoder::SliceState& slice = slices[static_cast<std::size_t>(s)];
    util::BitWriter& writer = writers[static_cast<std::size_t>(s)];
    writer.align();  // zero-pad the tail exactly as take() did
    const std::span<const std::uint8_t> payload = writer.bytes();
    const std::uint64_t header_start = e.writer_.bit_count();
    e.writer_.put_bits(kSliceSync, 16);
    e.writer_.put_bits(static_cast<std::uint32_t>(s), 8);
    e.writer_.put_bits(static_cast<std::uint32_t>(slice.first_mb_row), 16);
    e.writer_.put_bits(static_cast<std::uint32_t>(payload.size()), 32);
    report.header_bits += e.writer_.bit_count() - header_start;
    e.writer_.put_bytes(payload);
    // Keep the byte buffer's capacity for the next frame's payload.
    writer.reset();
    fold_slice(slice, report);
  }
  return parked;
}

}  // namespace acbm::codec
