// Fault-tolerance invariants of the encoding service.
//
// The contract under test (docs/FAULT_TOLERANCE.md): a fault inside one
// session's pipeline never crashes the process, never hangs a waiter, and
// never perturbs any other session's bytes — it surfaces as exactly one
// structured SessionError on the failed frame's future, latches that
// session, and resolves every other outstanding frame of that session with
// a kSessionFailed error. Because util::FaultInjector's firing decision is
// a pure hash of (seed, site, lane, event), the soak test can predict from
// the spec alone which frame of which session will fail, and assert the
// error's frame_index matches — across a sweep of 24 seeds.
//
// Also here: a frame whose front or back fails while its other half still
// runs (the entropy stage chases the front row by row), deadline shedding,
// queue-limit shedding, the degradation ladder, ServiceStats conservation,
// destruction with frames in flight, and the kv spec grammars for
// "fault:..." and "overload:...".

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/service.hpp"
#include "codec/session_error.hpp"
#include "core/builtin_estimators.hpp"
#include "me/full_search.hpp"
#include "obs/metrics.hpp"
#include "synth/sequences.hpp"
#include "util/fault_injector.hpp"
#include "util/kv.hpp"

// A failing allocation for the back-failure test: once armed, the next
// allocation of at least kFailAtLeast bytes on any thread throws
// std::bad_alloc, once. Every other allocation goes to malloc.
namespace {
constexpr std::size_t kFailAtLeast = 1024;
std::atomic<bool> g_fail_armed{false};
std::atomic<bool> g_fail_fired{false};
}  // namespace

void* operator new(std::size_t size) {
  if (size >= kFailAtLeast && g_fail_armed.load(std::memory_order_relaxed) &&
      g_fail_armed.exchange(false)) {
    g_fail_fired.store(true);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// The pairing is right (malloc above, free here); GCC cannot see that the
// replaced operator new returns malloc's memory.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace acbm::codec {
namespace {

std::vector<video::Frame> test_sequence(const std::string& name, int frames) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = frames;
  req.fps = 30;
  return synth::make_sequence(req);
}

std::vector<std::uint8_t> encode_standalone(
    const std::vector<video::Frame>& frames, const EncoderConfig& config) {
  const auto estimator = core::builtin_estimators().create("ACBM");
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  for (const video::Frame& frame : frames) {
    encoder.encode_frame(frame);
  }
  return encoder.finish();
}

std::unique_ptr<EncodeSession> make_session(
    EncoderService& service, const std::vector<video::Frame>& f,
    const EncoderConfig& config, const std::string& estimator = "ACBM") {
  return std::make_unique<EncodeSession>(
      service, video::PictureSize{f[0].width(), f[0].height()}, config,
      core::builtin_estimators().create(estimator));
}

/// One frame's outcome when driven through a possibly-faulty session.
struct FrameOutcome {
  bool ok = false;
  SessionErrorClass error_class = SessionErrorClass::kEncodeFailed;
  std::uint64_t error_frame = 0;
};

std::vector<FrameOutcome> drive_all(EncodeSession& session,
                                    const std::vector<video::Frame>& frames) {
  std::vector<std::future<Packet>> futures;
  futures.reserve(frames.size());
  for (const video::Frame& frame : frames) {
    futures.push_back(session.submit(frame));
  }
  std::vector<FrameOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (std::future<Packet>& f : futures) {
    FrameOutcome o;
    try {
      (void)f.get();
      o.ok = true;
    } catch (const SessionError& e) {
      o.error_class = e.error_class();
      o.error_frame = e.frame_index();
    }
    outcomes.push_back(o);
  }
  return outcomes;
}

// ---------------------------------------------------------------- specs ---

TEST(FaultSpec, ParsesAndRoundTrips) {
  const util::FaultConfig c =
      util::fault_config_from_spec("fault:site=alloc,p=0.25,seed=9");
  EXPECT_EQ(c.site, util::FaultSite::kAlloc);
  EXPECT_DOUBLE_EQ(c.p, 0.25);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(util::to_spec(c), "fault:site=alloc,p=0.25,seed=9");

  const util::FaultConfig d = util::fault_config_from_spec(
      "fault:site=task_delay_ms,p=1,seed=3,delay_ms=20");
  EXPECT_EQ(d.site, util::FaultSite::kTaskDelay);
  EXPECT_EQ(d.delay_ms, 20);
  EXPECT_EQ(util::fault_config_from_spec(util::to_spec(d)).delay_ms, 20);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)util::fault_config_from_spec("faults:p=0.1"),
               util::SpecError);
  EXPECT_THROW((void)util::fault_config_from_spec("fault:site=nope,p=0.1"),
               util::SpecError);
  EXPECT_THROW((void)util::fault_config_from_spec("fault:p=1.5"),
               util::SpecError);
  EXPECT_THROW((void)util::fault_config_from_spec("fault:frequency=1"),
               util::SpecError);
}

TEST(FaultSpec, SeedsRoundTripOverTheFullUint64Range) {
  for (const std::uint64_t seed :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    util::FaultConfig config;
    config.seed = seed;
    const std::string spec = util::to_spec(config);
    EXPECT_EQ(util::fault_config_from_spec(spec).seed, seed) << spec;
  }
  util::FaultConfig config;
  config.seed = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(util::to_spec(config),
            "fault:site=encode_throw,p=0,seed=18446744073709551615");
  EXPECT_THROW((void)util::fault_config_from_spec("fault:seed=-1"),
               util::SpecError);
  EXPECT_THROW(
      (void)util::fault_config_from_spec("fault:seed=18446744073709551616"),
      util::SpecError);
}

TEST(FaultSpec, FiringIsAPureHash) {
  const util::FaultInjector inj("fault:site=encode_throw,p=0.2,seed=11");
  for (std::uint64_t lane = 0; lane < 4; ++lane) {
    const std::int64_t first = inj.first_fire(lane, 0, 64);
    for (std::uint64_t event = 0; event < 64; ++event) {
      // Same (lane, event) must answer the same on every query, and agree
      // with first_fire's scan.
      EXPECT_EQ(inj.should_fire(lane, event), inj.should_fire(lane, event));
      if (first >= 0 && event < static_cast<std::uint64_t>(first)) {
        EXPECT_FALSE(inj.should_fire(lane, event));
      }
    }
    if (first >= 0) {
      EXPECT_TRUE(inj.should_fire(lane, static_cast<std::uint64_t>(first)));
    }
  }
  EXPECT_FALSE(util::FaultInjector().armed());
}

TEST(OverloadSpec, ParsesAndRoundTrips) {
  const OverloadPolicy p = overload_policy_from_spec(
      "overload:queue=8,deadline_ms=40,degrade=ACBM:alpha=200,beta=8");
  EXPECT_EQ(p.queue_limit, 8);
  EXPECT_EQ(p.deadline_ms, 40);
  // degrade= consumes the remainder verbatim — estimator specs embed ','.
  EXPECT_EQ(p.degrade, "ACBM:alpha=200,beta=8");
  const OverloadPolicy again = overload_policy_from_spec(to_spec(p));
  EXPECT_EQ(again.queue_limit, p.queue_limit);
  EXPECT_EQ(again.deadline_ms, p.deadline_ms);
  EXPECT_EQ(again.degrade, p.degrade);
}

TEST(OverloadSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)overload_policy_from_spec("overloaded:queue=1"),
               util::SpecError);
  EXPECT_THROW((void)overload_policy_from_spec("overload:queue=-1"),
               util::SpecError);
  EXPECT_THROW((void)overload_policy_from_spec("overload:window=4"),
               util::SpecError);
  EXPECT_THROW((void)overload_policy_from_spec("overload:degrade="),
               util::SpecError);
}

// ----------------------------------------------------------------- soak ---

// The tentpole soak: 24 seeds x 3 sessions x 12 frames with p=0.2
// encode_throw faults. For every session the injector's pure hash predicts
// the first firing frame; the session's outcomes must match it exactly —
// values before, a fatal kEncodeFailed carrying that frame index at it,
// only structured errors after — and sessions the hash spares must produce
// bytes identical to a fault-free standalone encode. Never a crash, never
// a hang, never an unstructured exception.
TEST(FaultSoak, SeedSweepIsPredictedAndContained) {
  constexpr int kSeeds = 24;
  constexpr int kSessions = 3;
  constexpr int kFrames = 12;
  const auto frames = test_sequence("foreman", kFrames);
  EncoderConfig config;
  config.qp = 16;
  const std::vector<std::uint8_t> reference =
      encode_standalone(frames, config);

  int fired_sessions = 0;
  int clean_sessions = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const util::FaultInjector injector(
        "fault:site=encode_throw,p=0.2,seed=" + std::to_string(seed));
    EncoderService service(4);
    service.set_fault_injector(&injector);
    std::vector<std::unique_ptr<EncodeSession>> sessions;
    for (int s = 0; s < kSessions; ++s) {
      sessions.push_back(make_session(service, frames, config));
    }
    std::vector<std::vector<FrameOutcome>> outcomes(kSessions);
    std::vector<std::thread> drivers;
    for (int s = 0; s < kSessions; ++s) {
      drivers.emplace_back([&, s] {
        outcomes[static_cast<std::size_t>(s)] =
            drive_all(*sessions[static_cast<std::size_t>(s)], frames);
      });
    }
    for (std::thread& t : drivers) {
      t.join();
    }
    for (int s = 0; s < kSessions; ++s) {
      const std::uint64_t lane = sessions[static_cast<std::size_t>(s)]->id();
      const std::int64_t fire = injector.first_fire(lane, 0, kFrames);
      const std::vector<FrameOutcome>& seen =
          outcomes[static_cast<std::size_t>(s)];
      ASSERT_EQ(seen.size(), static_cast<std::size_t>(kFrames));
      if (fire < 0) {
        ++clean_sessions;
        for (const FrameOutcome& o : seen) {
          EXPECT_TRUE(o.ok) << "seed " << seed << " lane " << lane;
        }
        EXPECT_FALSE(sessions[static_cast<std::size_t>(s)]->failed());
        EXPECT_EQ(sessions[static_cast<std::size_t>(s)]->finish(), reference)
            << "uninjected session drifted from the fault-free bytes (seed "
            << seed << ", lane " << lane << ")";
      } else {
        ++fired_sessions;
        EXPECT_TRUE(sessions[static_cast<std::size_t>(s)]->failed());
        for (int f = 0; f < kFrames; ++f) {
          const FrameOutcome& o = seen[static_cast<std::size_t>(f)];
          if (f < fire) {
            EXPECT_TRUE(o.ok) << "seed " << seed << " lane " << lane
                              << " frame " << f << " (fire at " << fire
                              << ")";
          } else if (f == fire) {
            ASSERT_FALSE(o.ok);
            EXPECT_EQ(o.error_class, SessionErrorClass::kEncodeFailed);
            EXPECT_EQ(o.error_frame, static_cast<std::uint64_t>(fire));
          } else {
            ASSERT_FALSE(o.ok) << "frame after the latch resolved with a "
                                  "value (seed " << seed << ")";
            EXPECT_EQ(o.error_class, SessionErrorClass::kSessionFailed);
          }
        }
      }
    }
  }
  // The sweep must actually exercise both arms, or it proves nothing.
  EXPECT_GT(fired_sessions, 0);
  EXPECT_GT(clean_sessions, 0);
}

// site=alloc faults are classified as resource exhaustion, not encode bugs.
TEST(FaultSoak, AllocFaultClassifiesAsResource) {
  const auto frames = test_sequence("foreman", 3);
  EncoderConfig config;
  config.qp = 16;
  const util::FaultInjector injector("fault:site=alloc,p=1,seed=1");
  EncoderService service(2);
  service.set_fault_injector(&injector);
  auto session = make_session(service, frames, config);
  const std::vector<FrameOutcome> seen = drive_all(*session, frames);
  ASSERT_FALSE(seen[0].ok);
  EXPECT_EQ(seen[0].error_class, SessionErrorClass::kResource);
}

// A poisoned session must not perturb a healthy one sharing the pool.
TEST(FaultSoak, HealthySessionSurvivesPoisonedNeighbour) {
  constexpr int kFrames = 6;
  const auto frames = test_sequence("carphone", kFrames);
  EncoderConfig config;
  config.qp = 16;
  const std::vector<std::uint8_t> reference =
      encode_standalone(frames, config);

  // Find a seed whose hash poisons lane 0 early but spares lane 1 entirely
  // (p=0.5 makes both outcomes common; the scan is deterministic).
  int seed = -1;
  for (int candidate = 0; candidate < 1000; ++candidate) {
    const util::FaultInjector probe(
        "fault:site=encode_throw,p=0.5,seed=" + std::to_string(candidate));
    if (probe.first_fire(0, 0, kFrames) == 0 &&
        probe.first_fire(1, 0, kFrames) < 0) {
      seed = candidate;
      break;
    }
  }
  ASSERT_GE(seed, 0);

  const util::FaultInjector injector(
      "fault:site=encode_throw,p=0.5,seed=" + std::to_string(seed));
  EncoderService service(4);
  service.set_fault_injector(&injector);
  auto poisoned = make_session(service, frames, config);
  auto healthy = make_session(service, frames, config);
  ASSERT_EQ(poisoned->id(), 0u);
  ASSERT_EQ(healthy->id(), 1u);

  std::vector<FrameOutcome> poisoned_seen;
  std::vector<FrameOutcome> healthy_seen;
  std::thread a([&] { poisoned_seen = drive_all(*poisoned, frames); });
  std::thread b([&] { healthy_seen = drive_all(*healthy, frames); });
  a.join();
  b.join();

  EXPECT_TRUE(poisoned->failed());
  ASSERT_FALSE(poisoned_seen[0].ok);
  EXPECT_EQ(poisoned_seen[0].error_class, SessionErrorClass::kEncodeFailed);
  EXPECT_FALSE(healthy->failed());
  for (const FrameOutcome& o : healthy_seen) {
    EXPECT_TRUE(o.ok);
  }
  EXPECT_EQ(healthy->finish(), reference);
}

// After the latch, new submits fail fast with kSessionFailed.
TEST(FaultSoak, LatchedSessionFailsFastOnSubmit) {
  const auto frames = test_sequence("foreman", 2);
  EncoderConfig config;
  config.qp = 16;
  const util::FaultInjector injector("fault:site=encode_throw,p=1,seed=1");
  EncoderService service(2);
  service.set_fault_injector(&injector);
  auto session = make_session(service, frames, config);
  (void)drive_all(*session, frames);
  ASSERT_TRUE(session->failed());
  std::future<Packet> late = session->submit(frames[0]);
  try {
    (void)late.get();
    FAIL() << "submit on a latched session resolved with a value";
  } catch (const SessionError& e) {
    EXPECT_EQ(e.error_class(), SessionErrorClass::kSessionFailed);
  }
}

TEST(FaultSoak, StandaloneEncoderLatchesLikeASession) {
  // A standalone Encoder runs the same pipeline as a session: at one thread
  // (zero-worker pool) and at four, the failing frame's encode_frame
  // rethrows its SessionError, failed() latches, and later frames fail
  // fast with kSessionFailed.
  const auto frames = test_sequence("foreman", 2);
  const util::FaultInjector injector("fault:site=encode_throw,p=1,seed=1");
  for (const int threads : {1, 4}) {
    EncoderConfig config;
    config.qp = 16;
    config.parallel.threads = threads;
    const auto estimator = core::builtin_estimators().create("ACBM");
    Encoder encoder({frames[0].width(), frames[0].height()}, config,
                    *estimator);
    encoder.set_fault_injector(&injector, 0);
    EXPECT_FALSE(encoder.failed());
    const SessionErrorClass expected_classes[] = {
        SessionErrorClass::kEncodeFailed, SessionErrorClass::kSessionFailed};
    for (const SessionErrorClass expected : expected_classes) {
      try {
        (void)encoder.encode_frame(frames[0]);
        FAIL() << "threads=" << threads << ": encode_frame returned";
      } catch (const SessionError& e) {
        EXPECT_EQ(e.error_class(), expected) << "threads=" << threads;
      }
      EXPECT_TRUE(encoder.failed()) << "threads=" << threads;
    }
  }
}

// ------------------------------------------- a half fails beside the other ---

/// Full search, except at block (0, `row`) of encode index `frame`: there it
/// either sleeps, then throws (kThrow), or arms the failing allocation and
/// holds the row until it has fired (kHoldUntilAllocFails).
class ScriptedEstimator final : public me::MotionEstimator {
 public:
  enum class Script { kThrow, kHoldUntilAllocFails };
  ScriptedEstimator(Script script, int frame, int row)
      : script_(script), frame_(frame), row_(row) {}

  me::EstimateResult estimate(const me::BlockContext& ctx) const override {
    if (ctx.frame == frame_ && ctx.by == row_ && ctx.bx == 0) {
      if (script_ == Script::kThrow) {
        // Long enough for the back to code every row above and park here.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("scripted front failure");
      }
      g_fail_fired.store(false);
      g_fail_armed.store(true);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!g_fail_fired.load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      g_fail_armed.store(false);
    }
    return full_.estimate(ctx);
  }
  [[nodiscard]] std::string_view name() const override { return "scripted"; }

 private:
  Script script_;
  int frame_;
  int row_;
  me::FullSearch full_;
};

/// Encodes frames 0 and 1 of a 64×128 clip (eight macroblock rows) on a
/// three-worker service with `estimator`, frame 0 to completion first.
/// Returns frame 1's error; checks that both futures resolve in time and
/// that ServiceStats conservation holds.
SessionError encode_until_frame1_fails(
    std::unique_ptr<me::MotionEstimator> estimator, int slices,
    obs::Registry& registry) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = {64, 128};
  req.frame_count = 2;
  const std::vector<video::Frame> frames = synth::make_sequence(req);
  EncoderConfig config;
  config.qp = 16;
  config.search_range = 7;
  config.slices = slices;
  EncoderService service(3);
  EncodeSession session(service, {64, 128}, config, std::move(estimator));
  session.encoder().set_metrics(&registry);
  (void)session.submit(frames[0]).get();
  std::future<Packet> frame1 = session.submit(frames[1]);
  if (frame1.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    // A wedged pipeline would also hang the session's destructor.
    std::fprintf(stderr, "frame 1 did not resolve within 60 s\n");
    std::abort();
  }
  std::optional<SessionError> error;
  try {
    (void)frame1.get();
    ADD_FAILURE() << "frame 1 resolved with a packet";
  } catch (const SessionError& e) {
    error = e;
  }
  session.drain();
  EXPECT_TRUE(session.failed());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.timed_out + stats.failed);
  return error.value_or(SessionError(SessionErrorClass::kClosed, 0, "none",
                                     "frame 1 did not fail"));
}

std::uint64_t histogram_count(const obs::Registry& registry,
                              const std::string& name) {
  for (const obs::Registry::HistogramRow& row : registry.histogram_rows()) {
    if (row.name == name) {
      return row.count;
    }
  }
  return 0;
}

// The last row's estimate throws while the frame's back, admitted as soon
// as the rows were queued, is parked on that row. The throwing row still
// publishes itself planned, so the back finishes; only then does the frame
// resolve, with the front's error.
TEST(HalfFailure, FrontThrowsWhileItsBackIsParked) {
  for (const int slices : {1, 4}) {
    obs::Registry registry;
    const SessionError error = encode_until_frame1_fails(
        std::make_unique<ScriptedEstimator>(
            ScriptedEstimator::Script::kThrow, /*frame=*/1, /*row=*/7),
        slices, registry);
    EXPECT_EQ(error.error_class(), SessionErrorClass::kEncodeFailed)
        << "slices " << slices;
    EXPECT_EQ(error.site(), "front") << "slices " << slices;
    EXPECT_EQ(error.frame_index(), 1u) << "slices " << slices;
    // Both frames' backs ran their entropy stage to the end.
    EXPECT_EQ(histogram_count(registry, "enc.stage.entropy"), 2u)
        << "slices " << slices;
  }
}

// Row 0's estimate holds its row while the back starts beside it: with
// eight slices, the back's first allocation is at least kFailAtLeast bytes
// and fails. The back fails while its own front still runs; the frame
// resolves, with the back's error, only once the front is done.
TEST(HalfFailure, BackFailsWhileItsFrontRuns) {
  obs::Registry registry;
  const SessionError error = encode_until_frame1_fails(
      std::make_unique<ScriptedEstimator>(
          ScriptedEstimator::Script::kHoldUntilAllocFails, /*frame=*/1,
          /*row=*/0),
      /*slices=*/8, registry);
  EXPECT_TRUE(g_fail_fired.load()) << "the armed allocation never failed";
  EXPECT_EQ(error.error_class(), SessionErrorClass::kResource);
  EXPECT_EQ(error.site(), "back");
  EXPECT_EQ(error.frame_index(), 1u);
  // Both frames' fronts ran to the end.
  EXPECT_EQ(histogram_count(registry, "enc.stage.front"), 2u);
}

// ------------------------------------------------- deadlines & shedding ---

// A frame whose deadline has already passed is shed with kTimeout at
// dispatch — and, critically, does NOT consume an encode index: the
// surviving frames' bytes equal a standalone encode of just those frames
// (shedding stays invisible to a decoder of the emitted stream).
TEST(Deadlines, ExpiredFrameIsShedWithoutConsumingAnIndex) {
  const auto frames = test_sequence("foreman", 4);
  EncoderConfig config;
  config.qp = 16;
  const std::vector<video::Frame> kept = {frames[0], frames[1], frames[3]};
  const std::vector<std::uint8_t> reference = encode_standalone(kept, config);

  EncoderService service(2);
  auto session = make_session(service, frames, config);
  std::vector<std::future<Packet>> futures;
  for (int f = 0; f < 4; ++f) {
    SubmitOptions options;
    if (f == 2) {
      options.deadline =
          std::chrono::steady_clock::now() - std::chrono::seconds(1);
    }
    futures.push_back(session->submit(frames[static_cast<std::size_t>(f)],
                                      options));
  }
  for (int f = 0; f < 4; ++f) {
    if (f == 2) {
      try {
        (void)futures[2].get();
        FAIL() << "expired frame resolved with a value";
      } catch (const SessionError& e) {
        EXPECT_EQ(e.error_class(), SessionErrorClass::kTimeout);
        EXPECT_EQ(e.frame_index(), 2u);
        EXPECT_FALSE(e.fatal());
      }
    } else {
      EXPECT_NO_THROW((void)futures[static_cast<std::size_t>(f)].get());
    }
  }
  EXPECT_FALSE(session->failed());
  EXPECT_EQ(session->finish(), reference);
}

// With a queue limit and a slow pipeline, excess submits shed kOverloaded
// (submit) or return nullopt (try_submit) — and the session survives.
TEST(Overload, QueueLimitShedsBeyondCapacity) {
  const auto frames = test_sequence("foreman", 1);
  EncoderConfig config;
  config.qp = 16;
  // Every frame sleeps 100 ms at the front, so the admission queue is
  // guaranteed to still hold the pending frame when the excess arrives.
  const util::FaultInjector injector(
      "fault:site=task_delay_ms,p=1,seed=1,delay_ms=100");
  EncoderService service(2);
  service.set_fault_injector(&injector);
  auto session = make_session(service, frames, config);
  OverloadPolicy policy;
  policy.queue_limit = 1;
  session->configure_overload(policy);

  std::vector<std::future<Packet>> futures;
  futures.push_back(session->submit(frames[0]));  // -> front (in flight)
  futures.push_back(session->submit(frames[0]));  // -> pending (queue of 1)
  // Queue full: the polling API declines...
  EXPECT_FALSE(session->try_submit(frames[0]).has_value());
  // ...and the throwing API sheds with a structured error.
  std::future<Packet> shed = session->submit(frames[0]);
  try {
    (void)shed.get();
    FAIL() << "over-limit frame resolved with a value";
  } catch (const SessionError& e) {
    EXPECT_EQ(e.error_class(), SessionErrorClass::kOverloaded);
    EXPECT_FALSE(e.fatal());
  }
  for (std::future<Packet>& f : futures) {
    EXPECT_NO_THROW((void)f.get());
  }
  EXPECT_FALSE(session->failed());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 2u);  // try_submit + submit
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

// The degradation ladder: with degrade configured, over-limit frames are
// encoded on the cheaper estimator instead of being shed.
TEST(Overload, DegradeEncodesInsteadOfShedding) {
  constexpr int kFrames = 8;
  const auto frames = test_sequence("foreman", kFrames);
  EncoderConfig config;
  config.qp = 16;
  const util::FaultInjector injector(
      "fault:site=task_delay_ms,p=1,seed=1,delay_ms=20");
  EncoderService service(2);
  service.set_fault_injector(&injector);
  auto session = make_session(service, frames, config);
  OverloadPolicy policy = overload_policy_from_spec(
      "overload:queue=1,degrade=ACBM:alpha=200");
  session->configure_overload(
      policy, core::builtin_estimators().create(policy.degrade));

  std::vector<std::future<Packet>> futures;
  for (const video::Frame& frame : frames) {
    futures.push_back(session->submit(frame));
  }
  for (std::future<Packet>& f : futures) {
    EXPECT_NO_THROW((void)f.get());  // nothing shed, nothing failed
  }
  EXPECT_FALSE(session->failed());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(stats.degraded, 0u);
}

// The motion stage picks its row shape per frame from the estimator that
// runs it: ACBM and PBM read the current field and keep the wavefront
// stagger, DS and FSBM run their rows without it. A degraded session mixes
// both shapes in consecutive frames; the stream must still decode whole.
void expect_mixed_degrade_decodes(const std::string& primary,
                                  const std::string& degrade) {
  constexpr int kFrames = 8;
  const auto frames = test_sequence("foreman", kFrames);
  EncoderConfig config;
  config.qp = 16;
  config.search_range = 7;  // keep full search affordable in the suite
  const util::FaultInjector injector(
      "fault:site=task_delay_ms,p=1,seed=1,delay_ms=20");
  EncoderService service(2);
  service.set_fault_injector(&injector);
  auto session = make_session(service, frames, config, primary);
  const OverloadPolicy policy =
      overload_policy_from_spec("overload:queue=1,degrade=" + degrade);
  session->configure_overload(
      policy, core::builtin_estimators().create(policy.degrade));

  std::vector<std::future<Packet>> futures;
  for (const video::Frame& frame : frames) {
    futures.push_back(session->submit(frame));
  }
  std::vector<std::uint8_t> stream;
  for (std::future<Packet>& f : futures) {
    Packet packet;
    ASSERT_NO_THROW(packet = f.get()) << primary << " / " << degrade;
    stream.insert(stream.end(), packet.bytes.begin(), packet.bytes.end());
  }
  EXPECT_FALSE(session->failed());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(stats.degraded, 0u) << primary << " / " << degrade;

  Decoder decoder(stream, DecoderConfig{});
  EXPECT_EQ(decoder.decode_all().size(), static_cast<std::size_t>(kFrames));
}

TEST(Overload, DegradeFromStaggeredToUnstaggeredRows) {
  expect_mixed_degrade_decodes("ACBM", "DS");
}

TEST(Overload, DegradeFromUnstaggeredToStaggeredRows) {
  expect_mixed_degrade_decodes("FSBM", "PBM");
}

// --------------------------------------------------------------- stats ----

// Conservation law: once drained, accepted == completed + timed_out +
// failed; rejected counts the never-admitted separately.
TEST(ServiceStatsTest, CountersObeyConservation) {
  const auto frames = test_sequence("foreman", 5);
  EncoderConfig config;
  config.qp = 16;
  EncoderService service(2);
  auto session = make_session(service, frames, config);
  std::vector<std::future<Packet>> futures;
  for (int f = 0; f < 5; ++f) {
    SubmitOptions options;
    if (f == 3) {
      options.deadline =
          std::chrono::steady_clock::now() - std::chrono::seconds(1);
    }
    futures.push_back(session->submit(frames[static_cast<std::size_t>(f)],
                                      options));
  }
  for (std::future<Packet>& f : futures) {
    try {
      (void)f.get();
    } catch (const SessionError&) {
    }
  }
  session->drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.timed_out + stats.failed);
  EXPECT_GE(stats.peak_queue_depth, 1u);
}

// ---------------------------------------------------------- destruction ---

// Destroying a session with frames in flight must leave every outstanding
// future resolvable — a value or a SessionError, never std::future_error
// (the latent broken-promise path this PR closes).
TEST(Destruction, InflightFuturesNeverBreakThePromise) {
  const auto frames = test_sequence("foreman", 4);
  EncoderConfig config;
  config.qp = 16;
  const util::FaultInjector injector(
      "fault:site=task_delay_ms,p=1,seed=1,delay_ms=20");
  EncoderService service(2);
  service.set_fault_injector(&injector);
  auto session = make_session(service, frames, config);
  std::vector<std::future<Packet>> futures;
  for (const video::Frame& frame : frames) {
    futures.push_back(session->submit(frame));
  }
  session.reset();  // frames still in flight
  for (std::future<Packet>& f : futures) {
    try {
      (void)f.get();
    } catch (const SessionError&) {
      // acceptable: structured error
    } catch (const std::future_error&) {
      FAIL() << "destruction broke a pending frame's promise";
    }
  }
}

}  // namespace
}  // namespace acbm::codec
