// Multi-session encoding service: aggregate throughput and per-frame
// latency versus concurrent session count on one shared worker pool.
//
// The scaling question the service layer exists to answer: given a machine
// with T workers, how does total encoded frames/second grow as independent
// sessions are added — and what does each session's per-frame latency pay
// for the sharing? One session cannot use more than a few workers (the
// wavefront plus the front/back frame overlap bound its parallelism);
// additional sessions soak up the idle workers, so aggregate fps should
// scale until the pool saturates, while the round-robin lane dispatcher
// keeps latency degradation even-handed across sessions rather than
// starving the latecomers.
//
// Latency here is what a service caller observes: submit() to packet
// resolution, including queueing. p99 is the nearest-rank percentile over
// every frame of every session (see docs/BENCHMARKING.md).
//
// JSON rows (BM_ServiceThroughput/sessions:N/threads:T) carry
// aggregate_fps / per_session_fps / mean_ms / p99_ms counters for the CI
// perf trajectory; wall time is the row's real_time. The service health
// counters ride along as accepted_frames / completed_frames / shed_frames —
// deterministic (sessions x frames, same, 0: no overload policy, no fault
// injection), so scripts/bench_gate.py pins them exactly and any run where
// the service dropped or failed a frame fails the gate as a correctness
// regression rather than slipping through as a perf blip.

#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <optional>
#include <thread>

#include "bench_support.hpp"
#include "codec/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace acbm;
using Clock = std::chrono::steady_clock;

struct ServicePoint {
  double wall_seconds = 0.0;
  std::vector<double> latencies_ms;  // every frame of every session
  codec::ServiceStats stats;         // health counters, drained state
  /// Stage-latency histograms from the service's metrics registry
  /// (enc.stage.* / enc.frame.wall), snapshotted after the drain.
  std::vector<obs::Registry::HistogramRow> stage_rows;
};

/// Maps the registry's stage histograms onto JSON counter names the CI gate
/// understands: <stage>_p50_us / <stage>_p99_us (bench_gate.py treats the
/// _p50_us/_p99_us suffixes as loosely-gated latency counters).
void add_latency_counters(
    std::vector<std::pair<std::string, double>>& counters,
    const std::vector<obs::Registry::HistogramRow>& rows) {
  constexpr std::pair<const char*, const char*> kStages[] = {
      {"enc.stage.front", "front"},
      {"enc.stage.entropy", "entropy"},
      {"enc.frame.wall", "frame_wall"},
  };
  for (const auto& [hist_name, prefix] : kStages) {
    for (const obs::Registry::HistogramRow& row : rows) {
      if (row.name == hist_name && row.count > 0) {
        counters.emplace_back(std::string(prefix) + "_p50_us",
                              static_cast<double>(row.p50_ns) / 1000.0);
        counters.emplace_back(std::string(prefix) + "_p99_us",
                              static_cast<double>(row.p99_ns) / 1000.0);
      }
    }
  }
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample set.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

ServicePoint run_point(const std::vector<video::Frame>& frames, int sessions,
                       int threads, const codec::EncoderConfig& config) {
  codec::EncoderService service(threads);
  std::vector<std::unique_ptr<codec::EncodeSession>> sess;
  sess.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    sess.push_back(std::make_unique<codec::EncodeSession>(
        service, video::PictureSize{frames[0].width(), frames[0].height()},
        config, core::builtin_estimators().create("ACBM")));
  }

  ServicePoint point;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(sessions));
  util::Timer wall;
  std::vector<std::thread> drivers;
  drivers.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    drivers.emplace_back([&, s] {
      codec::EncodeSession& session = *sess[static_cast<std::size_t>(s)];
      std::vector<double>& out = latencies[static_cast<std::size_t>(s)];
      std::deque<std::pair<Clock::time_point, std::future<codec::Packet>>>
          inflight;
      const auto harvest = [&out, &inflight] {
        inflight.front().second.get();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      inflight.front().first)
                .count();
        out.push_back(ms);
        inflight.pop_front();
      };
      for (const video::Frame& frame : frames) {
        inflight.emplace_back(Clock::now(), session.submit(frame));
        // Depth 2 matches the pipeline's one-front-plus-one-back admission;
        // deeper queues would only inflate the measured queueing latency.
        while (inflight.size() > 2) {
          harvest();
        }
      }
      while (!inflight.empty()) {
        harvest();
      }
      session.drain();
    });
  }
  for (std::thread& t : drivers) {
    t.join();
  }
  point.wall_seconds = wall.seconds();
  point.stats = service.stats();
  point.stage_rows = service.metrics().histogram_rows();
  for (const std::vector<double>& per_session : latencies) {
    point.latencies_ms.insert(point.latencies_ms.end(), per_session.begin(),
                              per_session.end());
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_bench_options(
      argc, argv, "bench_service", /*supports_json=*/true,
      /*supports_trace=*/true);
  util::Timer timer;

  std::optional<obs::Tracer> tracer;
  if (!options.trace_out.empty()) {
    tracer.emplace();
    tracer->install();
  }

  // Pool size: --threads (0 = all cores). The paper's encoder is the
  // workload; the service layer under test is what shares it.
  const int threads = util::ThreadPool::resolve_thread_count(options.threads);
  const std::vector<int> session_counts =
      options.quick ? std::vector<int>{1, 4, 16}
                    : std::vector<int>{1, 4, 16, 64};

  const auto frames = bench::qcif_sequence("foreman", options.frames, 30);
  codec::EncoderConfig config;
  config.qp = 16;
  config.search_range = options.search_range;
  config.slices = options.slices;

  std::cout << "bench_service: " << options.frames
            << " foreman QCIF frames per session, " << threads
            << " pool threads, "
            << core::builtin_estimators().canonical_spec("ACBM")
            << ", SAD kernel " << simd::active_kernel_name() << "\n\n";

  bench::JsonBenchReport json(options.benchmark_out);
  json.set_context("estimator_spec",
                   core::builtin_estimators().canonical_spec("ACBM"));
  json.set_context("service_threads", std::to_string(threads));

  util::TablePrinter table({"sessions", "aggregate fps", "per-session fps",
                            "mean ms", "p99 ms"});
  double single_session_fps = 0.0;
  for (int sessions : session_counts) {
    const ServicePoint point = run_point(frames, sessions, threads, config);
    const double total_frames =
        static_cast<double>(sessions) * static_cast<double>(frames.size());
    const double aggregate_fps = total_frames / point.wall_seconds;
    double mean_ms = 0.0;
    for (double ms : point.latencies_ms) {
      mean_ms += ms;
    }
    mean_ms /= static_cast<double>(point.latencies_ms.size());
    const double p99_ms = percentile(point.latencies_ms, 0.99);
    if (sessions == 1) {
      single_session_fps = aggregate_fps;
    }
    table.add_row({std::to_string(sessions),
                   util::CsvWriter::num(aggregate_fps, 1),
                   util::CsvWriter::num(
                       aggregate_fps / static_cast<double>(sessions), 1),
                   util::CsvWriter::num(mean_ms, 2),
                   util::CsvWriter::num(p99_ms, 2)});
    std::vector<std::pair<std::string, double>> counters = {
        {"aggregate_fps", aggregate_fps},
        {"per_session_fps", aggregate_fps / static_cast<double>(sessions)},
        {"mean_ms", mean_ms},
        {"p99_ms", p99_ms},
        {"accepted_frames", static_cast<double>(point.stats.accepted)},
        {"completed_frames", static_cast<double>(point.stats.completed)},
        {"shed_frames", static_cast<double>(point.stats.rejected +
                                            point.stats.timed_out +
                                            point.stats.failed)}};
    add_latency_counters(counters, point.stage_rows);
    json.add_row("BM_ServiceThroughput/sessions:" + std::to_string(sessions) +
                     "/threads:" + std::to_string(threads),
                 point.wall_seconds * 1e9, std::move(counters));
  }
  table.print(std::cout);
  if (single_session_fps > 0.0) {
    std::cout << "\n   scaling: 16-session aggregate should clear 2x the "
                 "1-session rate on pools of 4+ threads; per-session fps "
                 "decays as the pool saturates while p99 tracks the "
                 "round-robin fairness of the lane dispatcher\n";
  }

  if (tracer) {
    // Every run_point's service (and pool) is destroyed on return, so the
    // rings are quiescent here.
    obs::Tracer::uninstall();
    tracer->write_chrome_json_file(options.trace_out);
    std::cout << "[trace] " << options.trace_out << '\n';
  }

  json.write("bench_service");
  std::cout << "\n[done] in " << util::CsvWriter::num(timer.seconds(), 1)
            << " s\n";
  return 0;
}
