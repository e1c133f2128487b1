// End-to-end benchmark binary: runs ONE workload per process and writes its
// raw measurements as JSON.
//
//   bench_e2e --workload NAME --seed S --seconds T --json PATH
//             [--trace --trace-out PATH] [--smoke]
//
// A run has three parts:
//   1. input generation (untimed, reported as gen_s): synth::make_sequence
//      with --seed as the sensor-noise seed, plus the reference encodes;
//   2. one warm-up pass, whose outputs are the reference every later pass is
//      compared against, then timed passes over identical inputs until
//      --seconds elapse. Every pass builds fresh program objects, so every
//      pass does identical work;
//   3. with --trace only: the timed passes alternate untraced/traced (the
//      tracing overhead), then layer-replay passes time the bench's own calls
//      into each layer on the workload's real data, and threaded passes give
//      the pool efficiency.
//
// The JSON holds per-pass, per-item times ("series"), scalars ("values") and
// the correctness tally; bench/e2e/run.py reduces them (best-of-K per item,
// nearest-rank percentiles) into the metrics BENCHMARK.json lists. Why the
// workloads and the best-of-K rule are what they are: bench/e2e/README.md.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codec/coeff_coding.hpp"
#include "codec/dct.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/mc.hpp"
#include "codec/quant.hpp"
#include "codec/service.hpp"
#include "core/builtin_estimators.hpp"
#include "me/sad.hpp"
#include "me/window.hpp"
#include "obs/trace.hpp"
#include "sim/channel.hpp"
#include "synth/sequences.hpp"
#include "util/args.hpp"
#include "util/bitstream.hpp"
#include "video/psnr.hpp"

namespace {

using namespace acbm;
using Clock = std::chrono::steady_clock;

constexpr int kMb = me::kBlockSize;
constexpr int kBlocksPerMb = 6;  // Y00 Y10 Y01 Y11 Cb Cr
constexpr int kPredBytesPerMb = kMb * kMb + 2 * 8 * 8;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPUs this process may run on; their count is the thread budget (nproc).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// previous mask. Pools must be created outside a pin: threads inherit
/// their creator's mask.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) {
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~ScopedPin() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Arms `tracer` (when non-null) for the scope.
class TraceScope {
 public:
  explicit TraceScope(obs::Tracer* tracer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->install();
    }
  }
  ~TraceScope() {
    if (tracer_ != nullptr) {
      obs::Tracer::uninstall();
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  obs::Tracer* tracer_;
};

/// FNV-1a over the visible Y, Cb, Cr samples — the per-frame form of
/// DecodeReport::sample_digest.
std::uint64_t frame_digest(const video::Frame& frame) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const video::Plane* plane : {&frame.y(), &frame.cb(), &frame.cr()}) {
    for (int y = 0; y < plane->height(); ++y) {
      const std::uint8_t* row = plane->row(y);
      for (int x = 0; x < plane->width(); ++x) {
        digest = (digest ^ row[x]) * 0x100000001b3ull;
      }
    }
  }
  return digest;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Raw measurements of one run plus its correctness tally.
class Report {
 public:
  /// Appends one pass's per-item samples (seconds) to series `name`.
  void add_pass(const std::string& name, std::vector<double> samples) {
    series_[name].push_back(std::move(samples));
  }
  [[nodiscard]] const std::vector<std::vector<double>>& passes(
      const std::string& name) {
    return series_[name];
  }
  void set(const std::string& name, double value) { values_[name] = value; }

  void attempt(std::uint64_t frames) { attempted_ += frames; }
  /// Marks `frames` of the attempted frames failed, with the reason.
  void fail(std::uint64_t frames, const std::string& why) {
    failed_ += frames;
    if (failures_.size() < 20) {
      failures_.push_back(why);
    }
  }

  void write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    out << "{" << header << ",\n\"attempted\": " << attempted_
        << ",\n\"failed\": " << failed_ << ",\n\"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out << (i ? ", " : "") << json_string(failures_[i]);
    }
    out << "],\n\"values\": {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      out << (first ? "\n" : ",\n") << json_string(name) << ": "
          << json_number(value);
      first = false;
    }
    out << "},\n\"series\": {";
    first = true;
    for (const auto& [name, passes] : series_) {
      out << (first ? "\n" : ",\n") << json_string(name) << ": [";
      for (std::size_t k = 0; k < passes.size(); ++k) {
        out << (k ? ",\n  [" : "\n  [");
        for (std::size_t i = 0; i < passes[k].size(); ++i) {
          out << (i ? "," : "") << json_number(passes[k][i]);
        }
        out << "]";
      }
      out << "]";
      first = false;
    }
    out << "}}\n";
    if (!out) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  std::map<std::string, std::vector<std::vector<double>>> series_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// How many passes one phase of a run may take.
struct Budget {
  double seconds = 0.0;
  int min_passes = 1;
  int max_passes = INT_MAX;
};

/// Runs pass(k) for k = 0, 1, ...: at least min_passes, then while one more
/// pass of the mean length so far still ends within the budget.
void run_passes(const Budget& budget, const std::function<void(int)>& pass) {
  const auto start = Clock::now();
  for (int k = 0; k < budget.max_passes; ++k) {
    const double elapsed = since(start);
    if (k >= budget.min_passes && elapsed + elapsed / k > budget.seconds) {
      return;
    }
    pass(k);
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2005;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string json;
  std::string trace_out;
};

/// Which kind of pass a timed-pass routine runs: the warm-up is checked like
/// the others but its times are not recorded.
enum class Pass { kWarmup, kTimed, kTraced };

/// Shared state of one run.
struct Run {
  Options opt;
  std::vector<int> cpus = allowed_cpus();
  Report report;
  std::unique_ptr<obs::Tracer> tracer;  // --trace only
  Clock::time_point start = Clock::now();

  [[nodiscard]] int nproc() const { return static_cast<int>(cpus.size()); }
  /// Ends input generation: everything since the run started is gen_s.
  void generated() { report.set("gen_s", since(start)); }
  /// vCPU rotation: serial pass k runs on CPU k mod nproc.
  [[nodiscard]] int cpu_for_pass(int k) const {
    return cpus[static_cast<std::size_t>(k) % cpus.size()];
  }
  /// The phases of a run: untraced timing gets the whole --seconds; a
  /// traced run splits it between the untraced/traced pairs, the layer
  /// replay and the threaded passes. --smoke runs `smoke_passes` instead.
  [[nodiscard]] Budget budget(double share, int min_passes,
                              int smoke_passes = 1) const {
    if (opt.smoke) {
      return {0.0, smoke_passes, smoke_passes};
    }
    return {share * opt.seconds, min_passes, INT_MAX};
  }
};

// ----------------------------------------------------------------- inputs

/// job(i) for every i < count, on at most `threads` threads at a time (input
/// generation only; the thread budget holds there too).
template <class T>
std::vector<T> parallel_map(std::size_t count, int threads,
                            const std::function<T(std::size_t)>& job) {
  std::vector<T> out(count);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  const std::size_t n = std::min<std::size_t>(count, static_cast<std::size_t>(threads));
  for (std::size_t t = 0; t < n; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) {
        try {
          out[i] = job(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return out;
}

std::vector<std::vector<video::Frame>> make_sequences(
    const std::vector<std::string>& names, video::PictureSize size,
    int frames, std::uint64_t seed, int threads) {
  return parallel_map<std::vector<video::Frame>>(
      names.size(), threads, [&](std::size_t i) {
        synth::SequenceRequest request;
        request.name = names[i];
        request.size = size;
        request.frame_count = frames;
        request.fps = 30;
        request.seed = seed;
        return synth::make_sequence(request);
      });
}

/// One encoded stream of a workload.
struct Clip {
  std::string label;
  const std::vector<video::Frame>* frames = nullptr;
  codec::EncoderConfig config;
  std::string estimator;

  [[nodiscard]] video::PictureSize size() const {
    return {frames->front().width(), frames->front().height()};
  }
  [[nodiscard]] bool intra(std::size_t frame) const {
    return frame == 0 ||
           (config.intra_period > 0 &&
            frame % static_cast<std::size_t>(config.intra_period) == 0);
  }
  [[nodiscard]] int mbs() const {
    return (size().width / kMb) * (size().height / kMb);
  }
};

/// One clip encoded once: stream, per-frame reports and timings.
struct ClipRun {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> frame_end;  // stream byte offset after each frame
  std::vector<codec::FrameReport> reports;
  std::vector<std::uint64_t> recon_digest;  // when requested
  double setup_s = 0.0;        // objects constructed → first frame encoded
  std::vector<double> item_s;  // frames 1..n-1
};

ClipRun encode_clip(const Clip& clip, int threads, int clip_index,
                    bool digests) {
  const std::vector<video::Frame>& frames = *clip.frames;
  codec::EncoderConfig config = clip.config;
  config.parallel.threads = threads;
  ClipRun run;
  run.frame_end.reserve(frames.size());
  run.reports.reserve(frames.size());
  run.item_s.reserve(frames.size());
  const auto start = Clock::now();
  const auto estimator = core::builtin_estimators().create(clip.estimator);
  codec::Encoder encoder(clip.size(), config, *estimator);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto t = Clock::now();
    {
      obs::Span span("e2e", "frame", clip_index, static_cast<int>(i));
      run.reports.push_back(encoder.encode_frame(frames[i]));
    }
    if (i == 0) {
      run.setup_s = since(start);
    } else {
      run.item_s.push_back(since(t));
    }
    run.frame_end.push_back(encoder.total_bits() / 8);
    if (digests) {
      run.recon_digest.push_back(frame_digest(encoder.last_recon()));
    }
  }
  run.bytes = encoder.finish();
  return run;
}

/// Frames whose bytes differ between two encodes of one clip.
std::uint64_t frames_differing(const ClipRun& ref, const ClipRun& run) {
  if (ref.bytes == run.bytes) {
    return 0;
  }
  std::uint64_t bad = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < ref.frame_end.size(); ++i) {
    const std::size_t end = ref.frame_end[i];
    const bool same =
        i < run.frame_end.size() && run.frame_end[i] == end &&
        end <= run.bytes.size() && end <= ref.bytes.size() &&
        std::equal(ref.bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                   ref.bytes.begin() + static_cast<std::ptrdiff_t>(end),
                   run.bytes.begin() + static_cast<std::ptrdiff_t>(begin));
    bad += same ? 0 : 1;
    begin = end;
  }
  return std::max<std::uint64_t>(bad, 1);
}

/// Frames for which codec::Decoder does not reproduce the encoder's
/// reconstruction sample for sample.
std::uint64_t decode_mismatches(const ClipRun& ref) {
  const std::size_t n = ref.recon_digest.size();
  std::size_t i = 0;
  std::uint64_t bad = 0;
  try {
    codec::Decoder decoder(ref.bytes, codec::DecoderConfig{});
    while (const std::optional<video::Frame> frame = decoder.decode_frame()) {
      if (i >= n || frame_digest(*frame) != ref.recon_digest[i]) {
        ++bad;
      }
      ++i;
    }
  } catch (const std::exception&) {
    // Frames never decoded count below.
  }
  return bad + (i < n ? n - i : 0);
}

// ------------------------------------------------------------ layer replay

/// Per-frame layer timings (seconds) and counts of one replayed P-frame.
struct FrameLayers {
  double me = 0, sad = 0, mc = 0, fwd = 0, inv = 0, entropy = 0;
  std::uint64_t positions = 0;
  std::uint64_t critical = 0;
  std::uint64_t bits = 0;
};

/// Replays one clip's P-frames through each layer's public functions: the
/// bench's own calls, on the frame the encoder is about to code, its
/// previous reconstruction and the previous ME field. Built fresh per clip
/// so its estimator sees the frames in encode order, like the encoder's.
class LayerReplay {
 public:
  explicit LayerReplay(const Clip& clip)
      : config_(clip.config),
        estimator_(core::builtin_estimators().create(clip.estimator)),
        mbs_(static_cast<std::size_t>(clip.mbs())),
        mvs_(mbs_),
        pred_(mbs_ * kPredBytesPerMb),
        residual_(mbs_ * kBlocksPerMb),
        levels_(mbs_ * kBlocksPerMb),
        recon_(mbs_ * kBlocksPerMb) {}

  FrameLayers run(const video::Frame& src, const video::Frame& ref,
                  const me::MvField& prev_field, int clip, int frame) {
    FrameLayers out;
    const int mbs_x = src.width() / kMb;
    const int mbs_y = src.height() / kMb;
    video::HalfpelPlanes ref_half;
    ref_half.bind(&ref.y());
    field_.reset_for_picture(src.width(), src.height());

    auto t = Clock::now();
    {
      obs::Span span("me", "estimate", clip, frame);
      for (int by = 0; by < mbs_y; ++by) {
        for (int bx = 0; bx < mbs_x; ++bx) {
          me::BlockContext ctx;
          ctx.cur = &src.y();
          ctx.ref = &ref_half;
          ctx.x = bx * kMb;
          ctx.y = by * kMb;
          ctx.bx = bx;
          ctx.by = by;
          ctx.window = me::unrestricted_window(config_.search_range);
          ctx.cost = me::MotionCost(config_.me_lambda,
                                    field_.median_predictor(bx, by));
          ctx.half_pel = config_.half_pel;
          ctx.cur_field = &field_;
          ctx.prev_field = &prev_field;
          ctx.qp = config_.qp;
          ctx.frame = frame;
          const me::EstimateResult r = estimator_->estimate(ctx);
          field_.set(bx, by, r.mv);
          mvs_[static_cast<std::size_t>(by * mbs_x + bx)] = r.mv;
          out.positions += r.positions;
          out.critical += r.used_full_search ? 1 : 0;
        }
      }
    }
    out.me = since(t);

    // One SAD per macroblock against its chosen vector's integer position.
    std::uint64_t sad_sum = 0;
    t = Clock::now();
    {
      obs::Span span("sad", "sad_block", clip, frame);
      for (std::size_t i = 0; i < mbs_; ++i) {
        const int x = static_cast<int>(i) % mbs_x * kMb;
        const int y = static_cast<int>(i) / mbs_x * kMb;
        sad_sum += me::sad_block(src.y(), x, y, ref.y(), x + (mvs_[i].x >> 1),
                                 y + (mvs_[i].y >> 1), kMb, kMb);
      }
    }
    out.sad = since(t);
    sad_sink_ += sad_sum;

    t = Clock::now();
    {
      obs::Span span("mc", "predict", clip, frame);
      for (std::size_t i = 0; i < mbs_; ++i) {
        const int x = static_cast<int>(i) % mbs_x * kMb;
        const int y = static_cast<int>(i) / mbs_x * kMb;
        std::uint8_t* pred = &pred_[i * kPredBytesPerMb];
        codec::predict_luma(ref_half, x, y, mvs_[i], kMb, kMb, pred, kMb);
        const me::Mv cmv = codec::derive_chroma_mv(mvs_[i]);
        codec::predict_chroma(ref.cb(), x / 2, y / 2, cmv, 8, 8,
                              pred + kMb * kMb, 8);
        codec::predict_chroma(ref.cr(), x / 2, y / 2, cmv, 8, 8,
                              pred + kMb * kMb + 64, 8);
      }
    }
    out.mc = since(t);

    make_residuals(src, mbs_x);

    t = Clock::now();
    {
      obs::Span span("transform", "forward", clip, frame);
      double coeffs[codec::kDctSamples];
      for (std::size_t b = 0; b < residual_.size(); ++b) {
        codec::forward_dct8x8(residual_[b].data(), coeffs);
        codec::quantize_block(coeffs, levels_[b].data(), config_.qp, false);
      }
    }
    out.fwd = since(t);

    t = Clock::now();
    {
      obs::Span span("transform", "inverse", clip, frame);
      std::int16_t coeffs[codec::kDctSamples];
      for (std::size_t b = 0; b < levels_.size(); ++b) {
        codec::dequantize_block(levels_[b].data(), coeffs, config_.qp, false);
        codec::inverse_dct8x8_to_int(coeffs, recon_[b].data(), 512);
      }
    }
    out.inv = since(t);

    writer_.reset();
    t = Clock::now();
    {
      obs::Span span("entropy", "block_coeffs", clip, frame);
      for (const Block& levels : levels_) {
        codec::encode_block_coeffs(writer_, levels.data());
      }
    }
    out.entropy = since(t);
    out.bits = writer_.bit_count();
    return out;
  }

  /// Keeps the SAD results observable.
  [[nodiscard]] std::uint64_t sad_sink() const { return sad_sink_; }

 private:
  using Block = std::array<std::int16_t, codec::kDctSamples>;

  /// Source minus prediction for every 8×8 block (untimed: the layers under
  /// test start at the transform).
  void make_residuals(const video::Frame& src, int mbs_x) {
    for (std::size_t i = 0; i < mbs_; ++i) {
      const int x = static_cast<int>(i) % mbs_x * kMb;
      const int y = static_cast<int>(i) / mbs_x * kMb;
      const std::uint8_t* pred = &pred_[i * kPredBytesPerMb];
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const video::Plane& plane =
            b < 4 ? src.y() : (b == 4 ? src.cb() : src.cr());
        const int px = b < 4 ? x + 8 * (b & 1) : x / 2;
        const int py = b < 4 ? y + 8 * (b >> 1) : y / 2;
        const std::uint8_t* p =
            b < 4 ? pred + 8 * (b >> 1) * kMb + 8 * (b & 1)
                  : pred + kMb * kMb + 64 * (b - 4);
        const int stride = b < 4 ? kMb : 8;
        Block& r = residual_[i * kBlocksPerMb + static_cast<std::size_t>(b)];
        for (int row = 0; row < 8; ++row) {
          const std::uint8_t* s = plane.row(py + row) + px;
          for (int col = 0; col < 8; ++col) {
            r[static_cast<std::size_t>(row * 8 + col)] =
                static_cast<std::int16_t>(s[col] - p[row * stride + col]);
          }
        }
      }
    }
  }

  codec::EncoderConfig config_;
  std::unique_ptr<me::MotionEstimator> estimator_;
  std::size_t mbs_;
  me::MvField field_;
  std::vector<me::Mv> mvs_;
  std::vector<std::uint8_t> pred_;
  std::vector<Block> residual_;
  std::vector<Block> levels_;
  std::vector<Block> recon_;
  util::BitWriter writer_;
  std::uint64_t sad_sink_ = 0;
};

/// One replay pass over `clips`: a serial, pinned encode of every clip with
/// each P-frame's layers replayed just before the encoder codes it. Adds the
/// per-P-frame series "serial" (encode time) and one per layer, and checks
/// the replayed ME charged the same positions as the encoder did.
void replay_pass(Run& run, const std::vector<Clip>& clips, int k) {
  std::map<std::string, std::vector<double>> times;
  std::uint64_t frames = 0, mbs = 0, positions = 0, critical = 0, bits = 0;
  std::uint64_t sad_sink = 0;
  {
    ScopedPin pin(run.cpu_for_pass(k));
    TraceScope trace(run.tracer.get());
    for (std::size_t c = 0; c < clips.size(); ++c) {
      const Clip& clip = clips[c];
      const std::vector<video::Frame>& src = *clip.frames;
      codec::EncoderConfig config = clip.config;
      config.parallel.threads = 1;
      const auto estimator = core::builtin_estimators().create(clip.estimator);
      codec::Encoder encoder(clip.size(), config, *estimator);
      LayerReplay replay(clip);
      encoder.encode_frame(src[0]);
      for (std::size_t i = 1; i < src.size(); ++i) {
        const bool p_frame = !clip.intra(i);
        const int ci = static_cast<int>(c);
        const int fi = static_cast<int>(i);
        FrameLayers layers;
        if (p_frame) {
          layers = replay.run(src[i], encoder.last_recon(),
                              encoder.last_me_field(), ci, fi);
        }
        const auto t = Clock::now();
        codec::FrameReport report;
        {
          obs::Span span("encode", "frame", ci, fi);
          report = encoder.encode_frame(src[i]);
        }
        const double encode_s = since(t);
        if (!p_frame) {
          continue;
        }
        run.report.attempt(1);
        if (report.me_positions != layers.positions) {
          run.report.fail(1, clip.label + " frame " + std::to_string(i) +
                                 ": replayed ME charged " +
                                 std::to_string(layers.positions) +
                                 " positions, the encoder " +
                                 std::to_string(report.me_positions));
        }
        times["serial"].push_back(encode_s);
        times["me"].push_back(layers.me);
        times["sad"].push_back(layers.sad);
        times["mc"].push_back(layers.mc);
        times["fwd"].push_back(layers.fwd);
        times["inv"].push_back(layers.inv);
        times["entropy"].push_back(layers.entropy);
        ++frames;
        mbs += static_cast<std::uint64_t>(clip.mbs());
        positions += layers.positions;
        critical += layers.critical;
        bits += layers.bits;
      }
      sad_sink += replay.sad_sink();
    }
  }
  for (auto& [name, samples] : times) {
    run.report.add_pass(name, std::move(samples));
  }
  run.report.set("replay_frames", static_cast<double>(frames));
  run.report.set("replay_mbs", static_cast<double>(mbs));
  run.report.set("replay_positions", static_cast<double>(positions));
  run.report.set("replay_critical", static_cast<double>(critical));
  run.report.set("replay_entropy_bits", static_cast<double>(bits));
  run.report.set("replay_sad_sum", static_cast<double>(sad_sink));
}

void run_replay(Run& run, const std::vector<Clip>& clips) {
  run_passes(run.budget(0.4, 2), [&](int k) { replay_pass(run, clips, k); });
}

/// The end-to-end timing phase. An untraced run spends the whole budget on
/// untraced passes; a traced run alternates untraced and traced passes, so
/// both see the same host conditions.
void run_timed(Run& run, const std::function<void(int, Pass)>& pass) {
  if (!run.opt.trace) {
    run_passes(run.budget(1.0, 3, 2),
               [&](int k) { pass(k, Pass::kTimed); });
    return;
  }
  run_passes(run.budget(0.45, 2), [&](int k) {
    pass(2 * k, Pass::kTimed);
    pass(2 * k + 1, Pass::kTraced);
  });
}

/// The workload's stream statistics from a set of reference encodes.
void set_stream_values(Run& run, const std::vector<Clip>& clips,
                       const std::vector<ClipRun>& refs) {
  double psnr_sum = 0.0, bits = 0.0, seconds = 0.0, positions = 0.0;
  double p_mbs = 0.0, frames = 0.0;
  for (std::size_t c = 0; c < clips.size(); ++c) {
    for (std::size_t i = 0; i < refs[c].reports.size(); ++i) {
      const codec::FrameReport& r = refs[c].reports[i];
      psnr_sum += r.psnr_y;
      positions += static_cast<double>(r.me_positions);
      p_mbs += r.intra ? 0.0 : clips[c].mbs();
      frames += 1.0;
    }
    bits += 8.0 * static_cast<double>(refs[c].bytes.size());
    seconds += static_cast<double>(clips[c].frames->size()) /
               clips[c].config.fps_num * clips[c].config.fps_den;
  }
  run.report.set("psnr_y_db", psnr_sum / frames);
  run.report.set("kbps", bits / seconds / 1000.0);
  run.report.set("positions_per_mb", positions / p_mbs);
}

/// Reference encodes (the warm-up pass) of every clip with `threads`
/// encoder threads, `concurrency` clips at a time, plus the decoder
/// round-trip check.
std::vector<ClipRun> reference_encodes(Run& run,
                                       const std::vector<Clip>& clips,
                                       int threads, int concurrency) {
  const std::vector<ClipRun> refs = parallel_map<ClipRun>(
      clips.size(), concurrency, [&](std::size_t c) {
        return encode_clip(clips[c], threads, static_cast<int>(c), true);
      });
  for (std::size_t c = 0; c < clips.size(); ++c) {
    run.report.attempt(clips[c].frames->size());
    if (const std::uint64_t bad = decode_mismatches(refs[c])) {
      run.report.fail(bad, clips[c].label +
                               ": decoder output is not sample-exact against "
                               "the encoder reconstruction");
    }
  }
  set_stream_values(run, clips, refs);
  return refs;
}

/// Per-P-frame times of threaded (threads = nproc) encodes of `clips`,
/// checked against the reference bytes.
void threaded_encode_pass(Run& run, const std::vector<Clip>& clips,
                          const std::vector<ClipRun>& refs) {
  std::vector<double> items;
  TraceScope trace(run.tracer.get());
  for (std::size_t c = 0; c < clips.size(); ++c) {
    ClipRun r = encode_clip(clips[c], run.nproc(), static_cast<int>(c), false);
    for (std::size_t i = 1; i < clips[c].frames->size(); ++i) {
      if (!clips[c].intra(i)) {
        items.push_back(r.item_s[i - 1]);
      }
    }
    run.report.attempt(clips[c].frames->size());
    if (const std::uint64_t bad = frames_differing(refs[c], r)) {
      run.report.fail(bad, clips[c].label +
                               ": threaded encode differs from the serial one");
    }
  }
  run.report.add_pass("pool_threaded", std::move(items));
}

// -------------------------------------------------- closed-loop encoding

/// qcif_paper_serial and cif_fullsearch_mt: standalone Encoders, one clip
/// after another, each frame an item.
void run_encode_workload(Run& run, const std::vector<Clip>& clips,
                         int threads) {
  const bool serial = threads == 1;
  run.report.set("workers", threads);
  const std::vector<ClipRun> refs = reference_encodes(run, clips, threads, 1);

  run_timed(run, [&](int k, Pass mode) {
    std::optional<ScopedPin> pin;
    if (serial) {
      pin.emplace(run.cpu_for_pass(k));
    }
    TraceScope trace(mode == Pass::kTraced ? run.tracer.get() : nullptr);
    std::vector<ClipRun> runs;
    std::vector<double> setups, items;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t c = 0; c < clips.size(); ++c) {
      runs.push_back(encode_clip(clips[c], threads, static_cast<int>(c), false));
      setups.push_back(runs.back().setup_s);
      items.insert(items.end(), runs.back().item_s.begin(),
                   runs.back().item_s.end());
    }
    const double wall = since(start);
    const double cpu = process_cpu_seconds() - cpu0;
    for (std::size_t c = 0; c < clips.size(); ++c) {
      run.report.attempt(clips[c].frames->size());
      if (const std::uint64_t bad = frames_differing(refs[c], runs[c])) {
        run.report.fail(bad, clips[c].label + " pass " + std::to_string(k) +
                                 ": bytes differ from the warm-up pass");
      }
    }
    if (mode == Pass::kTraced) {
      run.report.add_pass("item_traced", std::move(items));
      return;
    }
    run.report.add_pass("setup", std::move(setups));
    run.report.add_pass("item", std::move(items));
    run.report.add_pass("wall", {wall});
    run.report.add_pass("cpu", {cpu});
  });
  if (!run.opt.trace) {
    return;
  }
  run_replay(run, clips);
  for (const auto& pass : run.report.passes("serial")) {
    run.report.add_pass("pool_serial", pass);
  }
  if (serial) {
    run_passes(run.budget(0.15, 2),
               [&](int) { threaded_encode_pass(run, clips, refs); });
  } else {
    // The e2e items already are the threaded encode of the same P-frames.
    for (const auto& pass : run.report.passes("item")) {
      run.report.add_pass("pool_threaded", pass);
    }
  }
}

// ------------------------------------------------------ live service

constexpr int kLiveSessions = 8;
constexpr int kLiveFrames = 300;
// 120 frames/s per session put the service at 66-71% busy on a 4-vCPU host;
// 90 measured a median of 59% (58-61%): the multiple of 30 that lands in the
// 40-60% band, where queueing shows without saturating.
constexpr double kLiveRate = 90.0;  // frames/s per session
constexpr double kLiveLateLimit = 0.033;  // s after due: a late frame

/// live_qcif_service: one generator thread submits to kLiveSessions
/// sessions on an EncoderService with nproc - 1 workers, on a fixed
/// schedule (open loop); one blocked waiter per session stamps when each
/// packet resolves. Session s encodes sequence s mod 4.
void run_live(Run& run, const std::vector<Clip>& clips) {
  const int workers = std::max(1, run.nproc() - 1);
  run.report.set("workers", workers);
  run.report.set("rate_per_session", kLiveRate);
  // Reference: a standalone serial encode of each clip (untimed).
  const std::vector<ClipRun> refs =
      reference_encodes(run, clips, 1, run.nproc());
  run.generated();
  const std::size_t n = static_cast<std::size_t>(kLiveFrames);
  const std::size_t items = kLiveSessions * (n - 1);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kLiveRate));
  std::uint64_t backlog_max = 0;

  const auto same_bytes = [&](std::size_t session, std::size_t frame,
                              const std::vector<std::uint8_t>& bytes) {
    const ClipRun& ref = refs[session % clips.size()];
    const std::size_t begin = frame == 0 ? 0 : ref.frame_end[frame - 1];
    return bytes.size() == ref.frame_end[frame] - begin &&
           std::equal(bytes.begin(), bytes.end(),
                      ref.bytes.begin() + static_cast<std::ptrdiff_t>(begin));
  };

  const auto live_pass = [&](int k, Pass mode) {
    TraceScope trace(mode == Pass::kTraced ? run.tracer.get() : nullptr);
    std::vector<double> latency(items, 0.0), late(items, 0.0);
    std::mutex fail_mutex;
    std::vector<std::string> failures;
    const auto fail = [&](const std::string& why) {
      std::lock_guard<std::mutex> lock(fail_mutex);
      failures.push_back(why);
    };

    const auto setup_start = Clock::now();
    codec::EncoderService service(workers);
    std::vector<std::unique_ptr<codec::EncodeSession>> sessions;
    for (int s = 0; s < kLiveSessions; ++s) {
      sessions.push_back(std::make_unique<codec::EncodeSession>(
          service, video::kQcif, clips[0].config,
          core::builtin_estimators().create(clips[0].estimator)));
    }
    std::vector<std::future<codec::Packet>> first;
    for (int s = 0; s < kLiveSessions; ++s) {
      first.push_back(sessions[s]->submit((*clips[s % clips.size()].frames)[0]));
    }
    for (int s = 0; s < kLiveSessions; ++s) {
      try {
        if (!same_bytes(s, 0, first[s].get().bytes)) {
          fail("session " + std::to_string(s) + " frame 0: bytes differ");
        }
      } catch (const std::exception& e) {
        fail(e.what());
      }
    }
    const double setup = since(setup_start);

    struct Lane {
      std::mutex mutex;
      std::condition_variable ready;
      std::deque<std::future<codec::Packet>> futures;
      std::atomic<std::uint64_t> outstanding{0};
    };
    std::vector<Lane> lanes(kLiveSessions);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto due = [&](std::size_t s, std::size_t i) {
      return start + static_cast<Clock::rep>(i - 1) * interval +
             static_cast<Clock::rep>(s) * interval / kLiveSessions;
    };
    const auto pair_id = [&](std::size_t s, std::size_t i) {
      return (static_cast<std::uint64_t>(k) * kLiveSessions + s) * n + i;
    };
    std::vector<Clock::time_point> resolved(kLiveSessions, start);

    std::vector<std::thread> waiters;
    for (std::size_t s = 0; s < kLiveSessions; ++s) {
      waiters.emplace_back([&, s] {
        Lane& lane = lanes[s];
        for (std::size_t i = 1; i < n; ++i) {
          std::future<codec::Packet> future;
          {
            std::unique_lock<std::mutex> lock(lane.mutex);
            lane.ready.wait(lock, [&] { return !lane.futures.empty(); });
            future = std::move(lane.futures.front());
            lane.futures.pop_front();
          }
          const std::size_t item = s * (n - 1) + (i - 1);
          try {
            const codec::Packet packet = future.get();
            const auto now = Clock::now();
            obs::async_end("e2e", "frame", pair_id(s, i), static_cast<int>(s),
                           static_cast<int>(i));
            resolved[s] = now;
            latency[item] =
                std::chrono::duration<double>(now - due(s, i)).count();
            if (!same_bytes(s, i, packet.bytes)) {
              fail("session " + std::to_string(s) + " frame " +
                   std::to_string(i) + ": bytes differ from standalone");
            }
          } catch (const std::exception& e) {
            latency[item] = std::chrono::duration<double>(Clock::now() -
                                                          due(s, i))
                                .count();
            fail(e.what());
          }
          lane.outstanding.fetch_sub(1);
        }
      });
    }

    const double cpu0 = process_cpu_seconds();
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t s = 0; s < kLiveSessions; ++s) {
        video::Frame frame = (*clips[s % clips.size()].frames)[i];
        std::this_thread::sleep_until(due(s, i));
        obs::async_begin("e2e", "frame", pair_id(s, i), static_cast<int>(s),
                         static_cast<int>(i));
        std::future<codec::Packet> future = sessions[s]->submit(std::move(frame));
        late[s * (n - 1) + (i - 1)] =
            std::chrono::duration<double>(Clock::now() - due(s, i)).count();
        Lane& lane = lanes[s];
        backlog_max = std::max(backlog_max, lane.outstanding.fetch_add(1) + 1);
        {
          std::lock_guard<std::mutex> lock(lane.mutex);
          lane.futures.push_back(std::move(future));
        }
        lane.ready.notify_one();
      }
    }
    for (std::thread& waiter : waiters) {
      waiter.join();
    }
    const double wall = std::chrono::duration<double>(
                            *std::max_element(resolved.begin(), resolved.end()) -
                            start)
                            .count();
    const double cpu = process_cpu_seconds() - cpu0;

    run.report.attempt(kLiveSessions * n);
    for (const std::string& why : failures) {
      run.report.fail(1, "pass " + std::to_string(k) + ": " + why);
    }
    if (mode == Pass::kWarmup) {
      return;
    }
    if (mode == Pass::kTraced) {
      run.report.add_pass("item_traced", std::move(latency));
      return;
    }
    run.report.add_pass("setup", {setup});
    run.report.add_pass("item", std::move(latency));
    run.report.add_pass("late", std::move(late));
    run.report.add_pass("wall", {wall});
    run.report.add_pass("cpu", {cpu});
  };

  live_pass(0, Pass::kWarmup);
  run_timed(run, live_pass);
  if (run.opt.trace) {
    run_replay(run, clips);
    for (const auto& pass : run.report.passes("serial")) {
      run.report.add_pass("pool_serial", pass);
    }
    run_passes(run.budget(0.15, 2),
               [&](int) { threaded_encode_pass(run, clips, refs); });
  }
  run.report.set("backlog_max", static_cast<double>(backlog_max));

  // A frame is late when it misses the limit in every timed pass, traced or
  // not: a neighbour stalling the host delays single passes, a service
  // regression delays them all.
  std::vector<double> best(items, std::numeric_limits<double>::infinity());
  for (const char* series : {"item", "item_traced"}) {
    for (const auto& pass : run.report.passes(series)) {
      for (std::size_t j = 0; j < items; ++j) {
        best[j] = std::min(best[j], pass[j]);
      }
    }
  }
  const auto late_frames = static_cast<std::uint64_t>(std::count_if(
      best.begin(), best.end(), [](double s) { return s > kLiveLateLimit; }));
  if (late_frames > 0) {
    run.report.fail(late_frames, std::to_string(late_frames) +
                                     " frames resolved more than 33 ms after "
                                     "their due time in every pass");
  }
}

// ------------------------------------------------------ lossy decode

/// decode_cif_lossy: a serial Decoder with conceal=resync over a sliced
/// foreman CIF stream damaged by a bursty channel. Encoding and the channel
/// are input generation.
void run_decode(Run& run, const Clip& clip) {
  run.report.set("workers", 1);
  const std::vector<Clip> clips = {clip};
  // The clean stream: a threaded encode is byte-identical to a serial one
  // and shortens generation.
  const std::vector<ClipRun> refs =
      reference_encodes(run, clips, run.nproc(), 1);
  const std::vector<std::uint8_t>& clean = refs[0].bytes;
  // The channel seed is fixed rather than --seed: the stream has only ~1,200
  // slice units, so which bursts a seed draws moved the concealed PSNR
  // between 39 and 45 dB over ten seeds, swamping any codec change.
  const std::vector<std::uint8_t> damaged =
      sim::Channel("gilbert:loss=0.05,burst=8,seed=2005").apply(clean);
  run.generated();
  const std::size_t n = clip.frames->size();
  codec::DecoderConfig config;
  config.conceal = codec::Concealment::kResync;

  // Warm-up pass, in lockstep with a clean decode: quality of concealment
  // and the reference digest every later pass must reproduce.
  codec::DecodeReport ref;
  {
    codec::Decoder damaged_decoder(damaged, config);
    codec::Decoder clean_decoder(clean, config);
    double mse_sum = 0.0;
    std::size_t frames = 0;
    while (const std::optional<video::Frame> frame =
               damaged_decoder.decode_frame()) {
      const std::optional<video::Frame> good = clean_decoder.decode_frame();
      if (!good) {
        break;
      }
      mse_sum += video::mse(good->y(), frame->y());
      ++frames;
    }
    ref = damaged_decoder.report();
    run.report.attempt(n);
    if (frames != n || ref.frames != n) {
      run.report.fail(n, "damaged decode emitted " +
                             std::to_string(ref.frames) + " of " +
                             std::to_string(n) + " frames");
    }
    // Sequence PSNR (total MSE): per-frame PSNR is infinite on frames the
    // channel left intact.
    run.report.set("psnr_y_db",
                   10.0 * std::log10(255.0 * 255.0 /
                                     std::max(mse_sum / std::max<std::size_t>(frames, 1), 1e-12)));
    const double slice_units = static_cast<double>(n) * clip.config.slices;
    run.report.set("concealed_slice_pct",
                   100.0 * static_cast<double>(ref.concealed_slices) / slice_units);
    run.report.set("resync_skips", static_cast<double>(ref.resync_skips));
  }

  const auto decode_pass = [&](int k, int threads, bool traced,
                               std::vector<double>& items, double& setup,
                               double& cpu, double& wall) {
    std::optional<ScopedPin> pin;
    if (threads == 1) {
      pin.emplace(run.cpu_for_pass(k));
    }
    TraceScope trace(traced ? run.tracer.get() : nullptr);
    codec::DecoderConfig pass_config = config;
    pass_config.threads = threads;
    items.reserve(n);
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    codec::Decoder decoder(damaged, pass_config);
    std::optional<video::Frame> frame;
    {
      obs::Span span("e2e", "frame", 0, 0);
      frame = decoder.decode_frame();
    }
    setup = since(start);
    for (int i = 1; frame; ++i) {
      const auto t = Clock::now();
      {
        obs::Span span("e2e", "frame", 0, i);
        frame = decoder.decode_frame();
      }
      if (frame) {
        items.push_back(since(t));
      }
    }
    wall = since(start);
    cpu = process_cpu_seconds() - cpu0;
    run.report.attempt(n);
    if (decoder.report().sample_digest != ref.sample_digest ||
        decoder.report().frames != ref.frames) {
      run.report.fail(n, "decode pass " + std::to_string(k) +
                             ": sample digest differs from the warm-up pass");
    }
  };

  run_timed(run, [&](int k, Pass mode) {
    std::vector<double> items;
    double setup = 0.0, cpu = 0.0, wall = 0.0;
    decode_pass(k, 1, mode == Pass::kTraced, items, setup, cpu, wall);
    if (mode == Pass::kTraced) {
      run.report.add_pass("item_traced", std::move(items));
      return;
    }
    run.report.add_pass("setup", {setup});
    run.report.add_pass("item", std::move(items));
    run.report.add_pass("wall", {wall});
    run.report.add_pass("cpu", {cpu});
  });
  if (!run.opt.trace) {
    return;
  }
  // The layer model replays the encode that produced the stream.
  run_replay(run, clips);
  for (const auto& pass : run.report.passes("item")) {
    run.report.add_pass("pool_serial", pass);
  }
  run_passes(run.budget(0.15, 2), [&](int k) {
    std::vector<double> items;
    double setup = 0.0, cpu = 0.0, wall = 0.0;
    decode_pass(k, run.nproc(), true, items, setup, cpu, wall);
    run.report.add_pass("pool_threaded", std::move(items));
  });
}

// ------------------------------------------------------------- workloads

codec::EncoderConfig paper_config(int qp) {
  codec::EncoderConfig config;
  config.qp = qp;
  config.search_range = 15;
  config.half_pel = true;
  return config;
}

const char* const kWorkloads[] = {"qcif_paper_serial", "cif_fullsearch_mt",
                                  "live_qcif_service", "decode_cif_lossy"};

void run_workload(Run& run) {
  const std::string& w = run.opt.workload;
  std::vector<std::vector<video::Frame>> sequences;
  std::vector<Clip> clips;
  const auto& names = synth::standard_sequence_names();
  if (w == "qcif_paper_serial") {
    sequences = make_sequences(names, video::kQcif, 150, run.opt.seed, run.nproc());
    for (const int qp : {16, 30}) {
      for (std::size_t s = 0; s < names.size(); ++s) {
        clips.push_back({names[s] + "@qp" + std::to_string(qp), &sequences[s],
                         paper_config(qp), "ACBM"});
      }
    }
  } else if (w == "cif_fullsearch_mt") {
    sequences =
        make_sequences({"foreman", "table"}, video::kCif, 60, run.opt.seed,
                       run.nproc());
    clips.push_back({"foreman_cif", &sequences[0], paper_config(16), "FSBM"});
    clips.push_back({"table_cif", &sequences[1], paper_config(16), "FSBM"});
  } else if (w == "live_qcif_service") {
    sequences = make_sequences(names, video::kQcif, kLiveFrames, run.opt.seed,
                               run.nproc());
    for (std::size_t s = 0; s < names.size(); ++s) {
      clips.push_back({names[s], &sequences[s], paper_config(16), "ACBM"});
    }
  } else {
    sequences = make_sequences({"foreman"}, video::kCif, 300, run.opt.seed, 1);
    codec::EncoderConfig config = paper_config(16);
    config.slices = 4;
    config.intra_period = 15;
    clips.push_back({"foreman_cif_sliced", &sequences[0], config, "ACBM"});
  }

  if (w == "qcif_paper_serial") {
    run.generated();
    run_encode_workload(run, clips, 1);
  } else if (w == "cif_fullsearch_mt") {
    run.generated();
    run_encode_workload(run, clips, run.nproc());
  } else if (w == "live_qcif_service") {
    run_live(run, clips);
  } else {
    run_decode(run, clips[0]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser;
  parser.add_option("workload",
                    "qcif_paper_serial | cif_fullsearch_mt | "
                    "live_qcif_service | decode_cif_lossy",
                    "");
  parser.add_option("seed", "input seed (sensor noise and channel)", "2005");
  parser.add_option("seconds", "timed seconds per run", "10");
  parser.add_option("json", "where to write the raw measurements", "");
  parser.add_option("trace-out", "Chrome trace JSON path (with --trace)", "");
  parser.add_flag("trace", "traced run: per-layer replay and tracing overhead");
  parser.add_flag("smoke", "warm-up plus two passes per phase");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage("bench_e2e");
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage("bench_e2e");
    return 0;
  }
  Run run;
  run.opt.workload = parser.get("workload");
  run.opt.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  run.opt.seconds = parser.get_double("seconds");
  run.opt.json = parser.get("json");
  run.opt.trace = parser.get_flag("trace");
  run.opt.trace_out = parser.get("trace-out");
  run.opt.smoke = parser.get_flag("smoke");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                run.opt.workload) == std::end(kWorkloads) ||
      run.opt.json.empty() || run.opt.seconds <= 0) {
    std::cerr << "need --workload (one of qcif_paper_serial, "
                 "cif_fullsearch_mt, live_qcif_service, decode_cif_lossy), "
                 "--json PATH and --seconds > 0\n";
    return 2;
  }
  if (run.opt.trace) {
    run.tracer = std::make_unique<obs::Tracer>(std::size_t{1} << 13);
  }

  run_workload(run);
  run.report.set("nproc", run.nproc());
  run.report.set("peak_rss_mb", peak_rss_mb());
  run.report.set("run_s", since(run.start));
  if (run.tracer && !run.opt.trace_out.empty()) {
    run.tracer->write_chrome_json_file(run.opt.trace_out);
    run.report.set("trace_dropped", static_cast<double>(run.tracer->dropped()));
  }
  run.report.write(run.opt.json,
                   "\"workload\": " + json_string(run.opt.workload) +
                       ",\n\"seed\": " + std::to_string(run.opt.seed) +
                       ",\n\"trace\": " + (run.opt.trace ? "true" : "false"));
  return 0;
}
