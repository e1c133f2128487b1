#pragma once
// Health accounting for the encoding service.
//
// ServiceStatsSink is the hot-path half: a handful of relaxed counters the
// pipeline bumps at admission/resolution points (no lock, no ordering
// requirements — the counters are monotone and only read as a snapshot).
// The storage lives in an obs::Registry under "svc.*" names, so the same
// numbers surface through the unified metrics layer (acbm_enc --metrics,
// bench_service counters) without a second accounting path. ServiceStats
// is the cold snapshot handed to callers: acbm_enc --summary prints it,
// bench_service emits it as deterministic gateable counters.
//
// The counters form a conservation law a healthy run must satisfy:
//   accepted == completed + timed_out + failed        (once drained)
// and rejected counts frames that were never accepted at all (shed at
// submit with kOverloaded). degraded counts frames that were accepted but
// encoded with the overload estimator, so degraded <= accepted.

#include <cstdint>

#include "obs/metrics.hpp"

namespace acbm::codec {

/// Point-in-time snapshot of a service/session's health counters.
struct ServiceStats {
  std::uint64_t accepted = 0;          ///< frames admitted to a pipeline
  std::uint64_t completed = 0;         ///< futures resolved with a Packet
  std::uint64_t rejected = 0;          ///< shed at submit (kOverloaded)
  std::uint64_t timed_out = 0;         ///< deadline expired before dispatch
  std::uint64_t failed = 0;            ///< resolved with a fatal error
  std::uint64_t degraded = 0;          ///< encoded with the degraded estimator
  std::uint64_t peak_queue_depth = 0;  ///< max frames awaiting dispatch
};

/// Shared mutable counter block. One sink per EncoderService; every session
/// pipeline on the service bumps the same sink, so the snapshot aggregates
/// across sessions.
class ServiceStatsSink {
 public:
  /// Sink whose counters live in (and are reported through) `registry`.
  /// The registry must outlive the sink.
  explicit ServiceStatsSink(obs::Registry& registry) { bind(registry); }

  ServiceStatsSink(const ServiceStatsSink&) = delete;
  ServiceStatsSink& operator=(const ServiceStatsSink&) = delete;

  void add_accepted() { accepted_->add(); }
  void add_completed() { completed_->add(); }
  void add_rejected() { rejected_->add(); }
  void add_timed_out() { timed_out_->add(); }
  void add_failed() { failed_->add(); }
  void add_degraded() { degraded_->add(); }

  /// Running max of the per-session admission queue depth.
  void note_queue_depth(std::uint64_t depth) {
    peak_queue_depth_->note_max(depth);
  }

  [[nodiscard]] ServiceStats snapshot() const {
    ServiceStats s;
    s.accepted = accepted_->value();
    s.completed = completed_->value();
    s.rejected = rejected_->value();
    s.timed_out = timed_out_->value();
    s.failed = failed_->value();
    s.degraded = degraded_->value();
    s.peak_queue_depth = peak_queue_depth_->value();
    return s;
  }

 private:
  void bind(obs::Registry& registry) {
    accepted_ = &registry.counter("svc.accepted");
    completed_ = &registry.counter("svc.completed");
    rejected_ = &registry.counter("svc.rejected");
    timed_out_ = &registry.counter("svc.timed_out");
    failed_ = &registry.counter("svc.failed");
    degraded_ = &registry.counter("svc.degraded");
    peak_queue_depth_ = &registry.gauge("svc.peak_queue_depth");
  }

  obs::Counter* accepted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* timed_out_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* degraded_ = nullptr;
  obs::Gauge* peak_queue_depth_ = nullptr;
};

}  // namespace acbm::codec
