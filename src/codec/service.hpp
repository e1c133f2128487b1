#pragma once
// Multi-session encoding service: many independent encodes sharing one
// worker pool.
//
// The per-encoder pool model (one ThreadPool per codec::Encoder) breaks
// down the moment a process runs more than a handful of encodes at once —
// 64 sessions × 8 workers is 512 threads fighting over 8 cores, and each
// pool's stage barriers serialise against its own session only, so a burst
// on one session cannot soak up idle cycles another session leaves behind.
//
// EncoderService inverts the ownership: ONE pool, sized to the machine, and
// one EncodeSession per concurrent stream. Each session's pipeline runs on
// its own FIFO lane of the pool (util::ThreadPool::Queue); the dispatcher
// round-robins across lanes that hold work, so
//   * a saturating session cannot starve the others (fair scheduling),
//   * an idle session costs nothing (no parked per-session threads), and
//   * every session gets the frame-level pipelining of the shared-pool
//     Encoder constructor — frame t+1's motion estimation overlaps frame
//     t's entropy coding, row-readiness gated, bitstreams byte-identical
//     to a standalone encode of the same sequence.
//
// Threading contract: one thread drives a session (submit/finish are not
// self-synchronised), but different sessions may be driven from different
// threads concurrently — the shared pool and the per-session lanes carry
// all cross-session synchronisation. Packets resolve in submission order
// per session; concatenating one session's packet bytes reproduces
// Encoder::finish() for that stream byte for byte.
//
// bench/bench_service.cpp measures the aggregate-throughput and per-frame
// latency behaviour of this layer; tests/codec_service_test.cpp holds the
// byte-identity and TSan-cleanliness invariants.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codec/encoder.hpp"
#include "codec/service_stats.hpp"
#include "codec/session_error.hpp"
#include "me/estimator.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "video/frame.hpp"

namespace acbm::util {
class FaultInjector;
}

namespace acbm::codec {

/// The unit a service caller receives per frame. (Alias of EncodedFrame:
/// the async Encoder API and the service speak the same type.)
using Packet = EncodedFrame;

class EncoderService;

/// A session-wide overload posture, settable from the kv spec grammar
/// ("overload:queue=8,deadline_ms=40,degrade=ACBM:alpha=200"). submit()
/// folds it into every frame's SubmitOptions; see docs/FAULT_TOLERANCE.md
/// for the degradation-ladder semantics.
struct OverloadPolicy {
  int queue_limit = 0;  ///< frames awaiting dispatch; 0 = unbounded
  int deadline_ms = 0;  ///< per-frame deadline from submit time; 0 = none
  /// Estimator spec to swap to while overloaded instead of shedding
  /// (empty = shed with kOverloaded). The session does not build the
  /// estimator itself — pass one created from this spec to
  /// EncodeSession::configure_overload (keeps codec/ free of the estimator
  /// registry dependency).
  std::string degrade;
};

/// Human-readable grammar description, embedded in SpecError messages.
[[nodiscard]] std::string overload_spec_usage();

/// Parses "overload:key=val,...". The "overload" prefix is mandatory;
/// degrade=, when present, must be the LAST key — it consumes the rest of
/// the spec verbatim (estimator specs contain ':' and ','). Throws
/// util::SpecError on unknown keys or out-of-range values.
[[nodiscard]] OverloadPolicy overload_policy_from_spec(std::string_view spec);

/// Canonical round-trip render of `policy`.
[[nodiscard]] std::string to_spec(const OverloadPolicy& policy);

/// One independent encode in flight on a shared EncoderService. Owns its
/// estimator (sessions must not share one — estimators carry per-sequence
/// adaptive state) and its Encoder, which runs on one lane of the service's
/// pool with frame-level pipelining enabled.
class EncodeSession {
 public:
  /// @param service must outlive the session
  /// @param size picture dimensions (multiples of 16)
  /// @param config encoder settings; config.parallel.threads is ignored —
  ///        the service's pool size governs parallelism for every session
  /// @param estimator the session's own estimator instance, e.g. from
  ///        core::builtin_estimators().create(spec); must be non-null
  EncodeSession(EncoderService& service, video::PictureSize size,
                const EncoderConfig& config,
                std::unique_ptr<me::MotionEstimator> estimator);

  /// Drains any frames still in flight before tearing the encoder down.
  ~EncodeSession();

  EncodeSession(const EncodeSession&) = delete;
  EncodeSession& operator=(const EncodeSession&) = delete;

  /// Enqueues one frame; the future resolves when the frame's packet —
  /// report plus its byte range of the session's bitstream — is complete.
  /// Frames resolve in submission order. The session's OverloadPolicy (if
  /// configured) applies: the future may instead resolve with a
  /// SessionError (kTimeout/kOverloaded for shed frames, kEncodeFailed/
  /// kResource/kSessionFailed on a failed session).
  std::future<Packet> submit(video::Frame frame);

  /// submit() with explicit per-frame admission controls (overrides the
  /// session policy for this frame).
  std::future<Packet> submit(video::Frame frame, const SubmitOptions& options);

  /// Poll-style backpressure: like submit(), but returns std::nullopt when
  /// the frame would be shed as kOverloaded — the caller may retry later.
  /// A failed session still returns an engaged error future (terminal).
  std::optional<std::future<Packet>> try_submit(video::Frame frame);
  std::optional<std::future<Packet>> try_submit(video::Frame frame,
                                                const SubmitOptions& options);

  /// Installs the session's overload posture. `degraded_estimator`, when
  /// non-null, should be built from policy.degrade — frames past the queue
  /// limit then encode on it instead of being shed. Call while no frame is
  /// in flight (before the first submit or after drain()).
  void configure_overload(const OverloadPolicy& policy,
                          std::unique_ptr<me::MotionEstimator>
                              degraded_estimator = nullptr);

  /// Blocks until every submitted frame's packet has resolved. Returns
  /// normally on a failed session — the failure already surfaced through
  /// the per-frame futures.
  void drain();

  /// True once a frame's encode failed and latched this session; its
  /// subsequent submits fail fast. Other sessions are unaffected.
  [[nodiscard]] bool failed() const;

  /// This session's id: its creation rank on the service, and the fault
  /// injector lane its frames are keyed by.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Drains and returns the session's complete bitstream (identical to the
  /// concatenation of every packet's bytes). The session must not be used
  /// afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// The session's estimator — read statistics here after encoding.
  [[nodiscard]] me::MotionEstimator& estimator() { return *estimator_; }

  [[nodiscard]] const Encoder& encoder() const { return *encoder_; }
  [[nodiscard]] Encoder& encoder() { return *encoder_; }

 private:
  /// The session policy rendered as SubmitOptions (deadline stamped per
  /// frame at submit time).
  [[nodiscard]] SubmitOptions options_from_policy() const;

  std::unique_ptr<me::MotionEstimator> estimator_;
  std::unique_ptr<Encoder> encoder_;  ///< declared after the estimator it borrows
  OverloadPolicy policy_;             ///< default admission controls
  std::uint64_t id_ = 0;
};

/// The shared pool. Construct one per process (or per core-partition),
/// then as many EncodeSessions against it as there are concurrent streams.
class EncoderService {
 public:
  /// @param threads pool size: 0 = one per hardware thread, N = exactly N
  ///        (util::ThreadPool::resolve_thread_count semantics)
  explicit EncoderService(int threads = 0)
      : pool_(util::ThreadPool::resolve_thread_count(threads)) {}

  EncoderService(const EncoderService&) = delete;
  EncoderService& operator=(const EncoderService&) = delete;

  /// Worker threads shared by every session.
  [[nodiscard]] int threads() const { return pool_.size(); }

  /// Convenience spelling of session.submit(frame): submits `frame` to
  /// `session`, which must have been created against this service.
  std::future<Packet> submit(EncodeSession& session, video::Frame frame) {
    return session.submit(std::move(frame));
  }

  /// Arms deterministic fault injection for sessions created AFTER this
  /// call: each new session's frames are keyed by (session id, frame
  /// submission number) on `injector`. The injector is borrowed and must
  /// outlive the service; null disarms for subsequent sessions.
  void set_fault_injector(const util::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Aggregated health counters across every session of this service.
  [[nodiscard]] ServiceStats stats() const { return stats_sink_.snapshot(); }

  /// The shared mutable counter block (sessions bump it; benches snapshot).
  [[nodiscard]] ServiceStatsSink& stats_sink() { return stats_sink_; }

  /// The service-wide metrics registry: "svc.*" health counters (the
  /// ServiceStatsSink storage) plus the "enc.stage.*" / "enc.frame.*"
  /// latency histograms every session's pipeline records into. Snapshot
  /// with counter_rows()/histogram_rows() for reporting.
  [[nodiscard]] obs::Registry& metrics() { return registry_; }
  [[nodiscard]] const obs::Registry& metrics() const { return registry_; }

  /// The underlying pool (sessions bind their pipeline lane to it).
  [[nodiscard]] util::ThreadPool& pool() { return pool_; }

 private:
  friend class EncodeSession;
  [[nodiscard]] std::uint64_t allocate_session_id() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }

  util::ThreadPool pool_;
  obs::Registry registry_;  ///< declared before the sink that binds into it
  ServiceStatsSink stats_sink_{registry_};
  const util::FaultInjector* fault_ = nullptr;
  std::atomic<std::uint64_t> next_session_id_{0};
};

}  // namespace acbm::codec
