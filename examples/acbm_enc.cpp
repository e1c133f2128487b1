// acbm_enc — command-line encoder.
//
// Reads YUV4MPEG2 (.y4m) or headerless I420 (.yuv, with --width/--height/
// --fps) video — or generates a synthetic clip — and encodes it to an
// ACV1/ACV2 bitstream with the selected motion-estimation spec, either at a
// fixed quantiser or rate-controlled to a target bitrate.
//
// Examples (a further-indented line continues the command above it):
//   ./acbm_enc --synthetic foreman --frames 60 --qp 14 --out foreman.acv
//   ./acbm_enc --input clip.y4m --estimator FSBM --kbps 64 --out clip.acv
//   ./acbm_enc --synthetic foreman --estimator "ACBM:alpha=500,beta=8"
//              --config "slices=4,threads=0" --out clip.acv
//   ./acbm_enc --input clip.yuv --width 176 --height 144 --fps 30
//              --out clip.acv
//
// Estimator specs ("NAME:key=val,...") and --config key=value maps are
// validated up front; any unknown name or key exits 2 with the full
// grammar and per-estimator key tables — never a silent fallback.
//
// Exit codes: 0 success; 1 internal/environment error; 2 usage error or
// malformed input (bad spec, bad .y4m/.yuv); 3 session failure — a frame's
// encode failed (e.g. under --fault) and the structured error
// ("session error: class=... frame=... site=...") was printed to stderr.

#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "codec/config_map.hpp"
#include "codec/encoder.hpp"
#include "codec/rate_control.hpp"
#include "codec/service.hpp"
#include "core/builtin_estimators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/fault_injector.hpp"
#include "util/kv.hpp"
#include "util/timer.hpp"
#include "video/io_error.hpp"
#include "video/y4m_io.hpp"
#include "video/yuv_io.hpp"

namespace {

using namespace acbm;

/// Per-stage wall-clock totals over a sequence (--summary).
struct StageTotals {
  double me = 0.0;
  double plan = 0.0;
  double entropy = 0.0;
  double frame_wall = 0.0;

  void add(const codec::FrameReport& r) {
    me += r.me_stage_seconds;
    plan += r.plan_stage_seconds;
    entropy += r.entropy_stage_seconds;
    frame_wall += r.frame_wall_seconds;
  }

  void print(std::size_t frames) const {
    const double n = static_cast<double>(frames);
    std::cout << "  stage seconds (sum): ME "
              << util::CsvWriter::num(me, 3) << ", plan "
              << util::CsvWriter::num(plan, 3) << ", entropy "
              << util::CsvWriter::num(entropy, 3) << "; mean frame wall "
              << util::CsvWriter::num(frame_wall / n * 1000.0, 2) << " ms\n";
  }
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Registry-backed per-stage latency table (--summary): the same
/// measurements FrameReport's stage timers sum, but as percentiles over the
/// sequence — one p50/p95/p99 row per stage histogram.
void print_stage_table(
    const std::vector<obs::Registry::HistogramRow>& rows) {
  bool header = false;
  for (const obs::Registry::HistogramRow& row : rows) {
    if (row.count == 0) {
      continue;
    }
    if (!header) {
      header = true;
      std::cout << "  stage latency ms (p50 / p95 / p99 / max) [frames]:\n";
    }
    std::cout << "    " << row.name << ": "
              << util::CsvWriter::num(ms(row.p50_ns), 3) << " / "
              << util::CsvWriter::num(ms(row.p95_ns), 3) << " / "
              << util::CsvWriter::num(ms(row.p99_ns), 3) << " / "
              << util::CsvWriter::num(ms(row.max_ns), 3) << " ["
              << row.count << "]\n";
  }
}

/// Full registry dump (--metrics): every counter, gauge, and histogram.
void print_metrics(const std::vector<obs::Registry::CounterRow>& counters,
                   const std::vector<obs::Registry::GaugeRow>& gauges,
                   const std::vector<obs::Registry::HistogramRow>& hists) {
  std::cout << "metrics:\n";
  for (const obs::Registry::CounterRow& c : counters) {
    std::cout << "  counter " << c.name << " = " << c.value << '\n';
  }
  for (const obs::Registry::GaugeRow& g : gauges) {
    std::cout << "  gauge " << g.name << " = " << g.value << '\n';
  }
  for (const obs::Registry::HistogramRow& h : hists) {
    std::cout << "  histogram " << h.name << ": count " << h.count << ", p50 "
              << h.p50_ns << " ns, p95 " << h.p95_ns << " ns, p99 "
              << h.p99_ns << " ns, max " << h.max_ns << " ns, mean "
              << util::CsvWriter::num(h.mean_ns, 1) << " ns\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser;
  parser.add_option("input", ".y4m or .yuv input file", "");
  parser.add_option("width", "width for raw .yuv input", "176");
  parser.add_option("height", "height for raw .yuv input", "144");
  parser.add_option("fps", "frame rate for raw/synthetic input", "30");
  parser.add_option("synthetic",
                    "generate carphone|foreman|miss_america|table instead of "
                    "reading a file",
                    "");
  parser.add_option("frames", "frame limit (0 = all)", "60");
  parser.add_option("estimator",
                    "motion-estimator spec: NAME or NAME:key=val,... "
                    "(e.g. ACBM, \"ACBM:alpha=500,beta=8,gamma=0.25\"); "
                    "pass an unknown name to see every spec",
                    "");
  parser.add_option("config",
                    "encoder config spec key=val,... applied after the "
                    "individual flags (e.g. \"mode=rd,deblock=1\"); pass an "
                    "unknown key to see the key table",
                    "");
  parser.add_option("qp", "fixed quantiser 1..31 (ignored when --kbps set)",
                    "16");
  parser.add_option("kbps", "target bitrate; enables rate control", "0");
  parser.add_option("search-range", "search range p", "15");
  parser.add_option("intra-period", "intra refresh period (0 = first only)",
                    "0");
  parser.add_option("threads",
                    "worker threads for the parallel pipeline stages "
                    "(0 = all cores)",
                    "1");
  parser.add_option("slices",
                    "entropy-coding slices per frame (1 = legacy ACV1 "
                    "stream; >1 emits ACV2 and parallelises entropy coding)",
                    "1");
  parser.add_option("kernel",
                    "SAD kernel variant: scalar|sse2|avx2|auto (bit-exact; "
                    "only throughput changes)",
                    "auto");
  parser.add_option("sessions",
                    "encode the input as N concurrent sessions sharing one "
                    "worker pool (EncoderService; frame-level pipelining). "
                    "Session 0's bitstream is written; every session's "
                    "bytes are identical. --kbps requires sessions=1",
                    "1");
  parser.add_option("fault",
                    "deterministic fault-injection spec, e.g. "
                    "\"fault:site=encode_throw,p=0.01,seed=7\"; forces "
                    "service mode; an injected fault surfaces as a "
                    "structured session error (exit 3)",
                    "");
  parser.add_option("overload",
                    "session overload policy, e.g. \"overload:queue=8,"
                    "deadline_ms=40,degrade=ACBM:alpha=200\"; forces service "
                    "mode; shed frames are dropped from the stream",
                    "");
  parser.add_flag("summary",
                  "print per-stage wall-clock totals (ME/plan/entropy), a "
                  "p50/p95/p99 per-stage latency table, mean per-frame "
                  "latency, and (in service mode) the service health "
                  "counters after encoding");
  parser.add_option("trace",
                    "write a Chrome trace-event JSON file of the encode "
                    "(loads in Perfetto / chrome://tracing); tracing never "
                    "changes the encoded bytes",
                    "");
  parser.add_flag("metrics",
                  "dump every metrics-registry counter, gauge, and "
                  "histogram after encoding");
  parser.add_option("out", "output bitstream path", "out.acv");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage("acbm_enc");
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage("acbm_enc") << '\n'
              << core::builtin_estimators().spec_usage() << '\n'
              << codec::config_spec_usage();
    return 0;
  }

  // Spec validation happens before any input is read: a typo in an
  // estimator name/key or a config key is a usage error (exit 2) carrying
  // the full grammar, mirroring simd::parse_kernel_name's contract that no
  // misspelling ever degrades into a silent default.
  std::unique_ptr<me::MotionEstimator> estimator;
  std::string estimator_spec = parser.get("estimator");
  if (estimator_spec.empty()) {
    estimator_spec = "ACBM";
  }
  try {
    estimator = core::builtin_estimators().create(estimator_spec);
    estimator_spec =
        core::builtin_estimators().canonical_spec(estimator_spec);
  } catch (const util::SpecError& e) {
    std::cerr << "acbm_enc: bad --estimator spec: " << e.what() << "\n\n"
              << core::builtin_estimators().spec_usage();
    return 2;
  }

  try {
    // Reject bad --kernel requests loudly rather than falling back to
    // scalar: a silent fallback would invalidate any A/B timing the caller
    // believes they are running.
    const std::string kernel = parser.get("kernel");
    simd::KernelIsa kernel_isa;
    if (!simd::parse_kernel_name(kernel, kernel_isa)) {
      std::cerr << "acbm_enc: unknown --kernel '" << kernel
                << "' (valid spellings: scalar, sse2, avx2, auto)\n";
      return 2;
    }
    if (!simd::select_kernels(kernel_isa)) {
      std::cerr << "acbm_enc: --kernel '" << kernel
                << "' is not available on this build/CPU; available:";
      for (const std::string& name : simd::available_kernel_names()) {
        std::cerr << ' ' << name;
      }
      std::cerr << '\n';
      return 2;
    }
    const int fps = static_cast<int>(parser.get_int("fps"));
    const auto max_frames =
        static_cast<std::size_t>(parser.get_int("frames"));

    // --- Input.
    std::vector<video::Frame> frames;
    if (!parser.get("synthetic").empty()) {
      synth::SequenceRequest req;
      req.name = parser.get("synthetic");
      req.frame_count = static_cast<int>(max_frames ? max_frames : 60);
      req.fps = fps;
      frames = synth::make_sequence(req);
    } else if (!parser.get("input").empty()) {
      const std::string path = parser.get("input");
      if (path.size() >= 4 && path.substr(path.size() - 4) == ".y4m") {
        const video::Y4mVideo video = video::read_y4m(path, max_frames);
        frames = video.frames;
      } else {
        frames = video::read_yuv420(
            path,
            {static_cast<int>(parser.get_int("width")),
             static_cast<int>(parser.get_int("height"))},
            max_frames);
      }
    } else {
      std::cerr << "need --input or --synthetic\n" << parser.usage("acbm_enc");
      return 2;
    }
    if (frames.empty()) {
      std::cerr << "no frames to encode\n";
      return 1;
    }

    // --- Encoder setup: individual flags first, then the --config spec on
    // top (so a sweep driver can override any flag from one string).
    codec::EncoderConfig cfg;
    cfg.qp = static_cast<int>(parser.get_int("qp"));
    cfg.search_range = static_cast<int>(parser.get_int("search-range"));
    cfg.intra_period = static_cast<int>(parser.get_int("intra-period"));
    cfg.parallel.threads = static_cast<int>(parser.get_int("threads"));
    cfg.slices = static_cast<int>(parser.get_int("slices"));
    cfg.fps_num = fps;
    try {
      cfg = codec::encoder_config_from_spec(parser.get("config"), cfg);
    } catch (const util::SpecError& e) {
      std::cerr << "acbm_enc: bad --config spec: " << e.what() << '\n';
      return 2;
    }
    const int sessions = static_cast<int>(parser.get_int("sessions"));
    if (sessions < 1) {
      std::cerr << "acbm_enc: --sessions must be >= 1\n";
      return 2;
    }

    // --fault and --overload live in the service layer, so either flag
    // routes even a single session through EncoderService.
    util::FaultInjector fault;
    if (!parser.get("fault").empty()) {
      try {
        fault = util::FaultInjector(parser.get("fault"));
      } catch (const util::SpecError& e) {
        std::cerr << "acbm_enc: bad --fault spec: " << e.what() << '\n';
        return 2;
      }
    }
    codec::OverloadPolicy overload;
    if (!parser.get("overload").empty()) {
      try {
        overload = codec::overload_policy_from_spec(parser.get("overload"));
        if (!overload.degrade.empty()) {
          // Validate the degrade estimator spec before reading any input.
          (void)core::builtin_estimators().create(overload.degrade);
        }
      } catch (const util::SpecError& e) {
        std::cerr << "acbm_enc: bad --overload spec: " << e.what() << '\n';
        return 2;
      }
    }
    const bool use_service = sessions > 1 || fault.armed() ||
                             !parser.get("overload").empty();

    const double kbps = parser.get_double("kbps");
    if (kbps > 0.0 && use_service) {
      // Rate control feeds each frame's bits back into the next frame's
      // quantiser — incompatible with frames in flight ahead of that
      // feedback, and with frames being shed or failed under it.
      std::cerr << "acbm_enc: --kbps requires --sessions 1 without "
                   "--fault/--overload\n";
      return 2;
    }

    // --- Encode.
    std::uint64_t bits = 0;
    std::uint64_t positions = 0;
    double psnr = 0.0;
    StageTotals totals;
    std::vector<std::uint8_t> stream;
    int effective_slices = 1;
    double wall_seconds = 0.0;
    std::size_t encoded = frames.size();
    std::optional<codec::ServiceStats> service_stats;

    // Registry snapshots survive the encode scopes below (the encoder /
    // service — and with them the worker pools — are destroyed at scope
    // exit, which is also what makes the trace export quiescent).
    std::vector<obs::Registry::CounterRow> counter_rows;
    std::vector<obs::Registry::GaugeRow> gauge_rows;
    std::vector<obs::Registry::HistogramRow> hist_rows;
    std::optional<obs::Tracer> tracer;
    if (!parser.get("trace").empty()) {
      tracer.emplace();
      tracer->install();
    }

    if (!use_service) {
      obs::Registry registry;
      codec::Encoder encoder({frames[0].width(), frames[0].height()}, cfg,
                             *estimator);
      encoder.set_metrics(&registry);
      std::unique_ptr<codec::RateController> rate;
      if (kbps > 0.0) {
        codec::RateController::Config rc;
        rc.target_kbps = kbps;
        rc.fps = fps;
        rc.initial_qp = cfg.qp;
        rate = std::make_unique<codec::RateController>(rc);
      }
      util::Timer wall;
      for (const auto& frame : frames) {
        if (rate) {
          encoder.set_qp(rate->next_qp());
        }
        const codec::FrameReport r = encoder.encode_frame(frame);
        if (rate) {
          rate->frame_encoded(r.bits);
        }
        bits += r.bits;
        positions += r.me_positions;
        psnr += r.psnr_y;
        totals.add(r);
      }
      wall_seconds = wall.seconds();
      stream = encoder.finish();
      effective_slices = encoder.slices();
      counter_rows = registry.counter_rows();
      gauge_rows = registry.gauge_rows();
      hist_rows = registry.histogram_rows();
    } else {
      // Service mode: N sessions of the same input on one shared pool, one
      // driver thread per session keeping a couple of frames in flight so
      // each session's front/back halves overlap. Without --fault/--overload
      // every session produces the same bytes; session 0's are written.
      codec::EncoderService service(
          static_cast<int>(parser.get_int("threads")));
      if (fault.armed()) {
        service.set_fault_injector(&fault);
      }
      std::vector<std::unique_ptr<codec::EncodeSession>> sess;
      sess.reserve(static_cast<std::size_t>(sessions));
      for (int s = 0; s < sessions; ++s) {
        sess.push_back(std::make_unique<codec::EncodeSession>(
            service,
            video::PictureSize{frames[0].width(), frames[0].height()}, cfg,
            core::builtin_estimators().create(estimator_spec)));
        if (!parser.get("overload").empty()) {
          sess.back()->configure_overload(
              overload, overload.degrade.empty()
                            ? nullptr
                            : core::builtin_estimators().create(
                                  overload.degrade));
        }
      }
      std::vector<std::vector<codec::FrameReport>> reports(
          static_cast<std::size_t>(sessions));
      std::vector<std::optional<codec::SessionError>> failures(
          static_cast<std::size_t>(sessions));
      util::Timer wall;
      std::vector<std::thread> drivers;
      drivers.reserve(static_cast<std::size_t>(sessions));
      for (int s = 0; s < sessions; ++s) {
        drivers.emplace_back([&, s] {
          codec::EncodeSession& session = *sess[static_cast<std::size_t>(s)];
          std::vector<codec::FrameReport>& out =
              reports[static_cast<std::size_t>(s)];
          std::optional<codec::SessionError>& failure =
              failures[static_cast<std::size_t>(s)];
          std::deque<std::future<codec::Packet>> inflight;
          auto reap = [&](std::future<codec::Packet>& f) {
            try {
              out.push_back(f.get().report);
            } catch (const codec::SessionError& e) {
              // Shed frames (deadline/queue) are the overload policy doing
              // its job — count on the service stats and keep going. Any
              // other class means the session is lost.
              const bool shed =
                  e.error_class() == codec::SessionErrorClass::kTimeout ||
                  e.error_class() == codec::SessionErrorClass::kOverloaded;
              if (!shed && !failure) {
                failure = e;
              }
            }
          };
          for (const auto& frame : frames) {
            if (session.failed()) {
              break;  // latched: further submits would only fail fast
            }
            inflight.push_back(session.submit(frame));
            // Depth 2 covers the front/back overlap; deeper queues only add
            // latency (admission allows one front + one back in flight).
            while (inflight.size() > 2) {
              reap(inflight.front());
              inflight.pop_front();
            }
          }
          while (!inflight.empty()) {
            reap(inflight.front());
            inflight.pop_front();
          }
        });
      }
      for (std::thread& t : drivers) {
        t.join();
      }
      wall_seconds = wall.seconds();
      service_stats = service.stats();
      for (const std::optional<codec::SessionError>& failure : failures) {
        if (failure) {
          std::cerr << "acbm_enc: " << failure->what() << '\n';
          return 3;
        }
      }
      encoded = reports[0].size();
      for (const codec::FrameReport& r : reports[0]) {
        bits += r.bits;
        positions += r.me_positions;
        psnr += r.psnr_y;
        totals.add(r);
      }
      stream = sess[0]->finish();
      effective_slices = sess[0]->encoder().slices();
      counter_rows = service.metrics().counter_rows();
      gauge_rows = service.metrics().gauge_rows();
      hist_rows = service.metrics().histogram_rows();
      sess.clear();  // sessions drain their pool lanes before the export
    }

    if (tracer) {
      // Both encode scopes have closed: every pool is joined, so the rings
      // are quiescent and the export sees complete spans.
      obs::Tracer::uninstall();
      tracer->write_chrome_json_file(parser.get("trace"));
    }

    std::ofstream out(parser.get("out"), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
    if (!out) {
      std::cerr << "write failure on " << parser.get("out") << '\n';
      return 1;
    }

    if (encoded == 0) {
      std::cout << "encoded 0 frames (every frame was shed by the overload "
                   "policy) -> " << parser.get("out") << '\n';
      if (parser.get_flag("summary") && service_stats) {
        const codec::ServiceStats& st = *service_stats;
        std::cout << "  service stats: accepted " << st.accepted
                  << ", completed " << st.completed << ", rejected "
                  << st.rejected << ", timed out " << st.timed_out
                  << ", failed " << st.failed << ", degraded " << st.degraded
                  << ", peak queue " << st.peak_queue_depth << '\n';
      }
      if (parser.get_flag("metrics")) {
        print_metrics(counter_rows, gauge_rows, hist_rows);
      }
      return 0;
    }
    const double n = static_cast<double>(encoded);
    std::cout << "encoded " << encoded << " frames ("
              << frames[0].width() << "x" << frames[0].height() << ") with "
              << estimator_spec << " (SAD kernel "
              << simd::active_kernel_name() << ")\n  config "
              << codec::to_spec(cfg) << "\n  "
              << util::CsvWriter::num(static_cast<double>(bits) * fps / n /
                                          1000.0, 1)
              << " kbit/s, PSNR-Y " << util::CsvWriter::num(psnr / n, 2)
              << " dB, "
              << util::CsvWriter::num(
                     static_cast<double>(positions) /
                         (n * (frames[0].width() / 16.0) *
                          (frames[0].height() / 16.0)), 1)
              << " positions/MB\n  " << stream.size() << " bytes ("
              << (effective_slices > 1
                      ? "ACV2, " + std::to_string(effective_slices) +
                            " slices/frame"
                      : std::string("ACV1"))
              << ") -> " << parser.get("out") << '\n';
    if (sessions > 1 && wall_seconds > 0.0) {
      std::cout << "  " << sessions << " sessions: "
                << util::CsvWriter::num(
                       static_cast<double>(sessions) * n / wall_seconds, 1)
                << " frames/s aggregate ("
                << util::CsvWriter::num(n / wall_seconds, 1)
                << " frames/s per session)\n";
    }
    if (parser.get_flag("summary")) {
      totals.print(encoded);
      print_stage_table(hist_rows);
      if (service_stats) {
        const codec::ServiceStats& st = *service_stats;
        std::cout << "  service stats: accepted " << st.accepted
                  << ", completed " << st.completed << ", rejected "
                  << st.rejected << ", timed out " << st.timed_out
                  << ", failed " << st.failed << ", degraded " << st.degraded
                  << ", peak queue " << st.peak_queue_depth << '\n';
      }
    }
    if (parser.get_flag("metrics")) {
      print_metrics(counter_rows, gauge_rows, hist_rows);
    }
    return 0;
  } catch (const video::IoError& e) {
    // Malformed input is a caller problem, same exit class as a bad spec.
    std::cerr << "acbm_enc: " << e.what() << '\n';
    return 2;
  } catch (const util::SpecError& e) {
    std::cerr << "acbm_enc: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "acbm_enc: " << e.what() << '\n';
    return 1;
  }
}
