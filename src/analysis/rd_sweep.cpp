#include "analysis/rd_sweep.hpp"

#include <algorithm>
#include <stdexcept>

#include "codec/config_map.hpp"
#include "core/builtin_estimators.hpp"
#include "util/kv.hpp"

namespace acbm::analysis {

namespace {

/// The encoder configuration a sweep runs at, except its per-point qp and
/// frame rate.
codec::EncoderConfig encoder_config(const SweepConfig& config) {
  codec::EncoderConfig ec;
  ec.search_range = config.search_range;
  ec.half_pel = config.half_pel;
  ec.me_lambda = config.me_lambda;
  ec.mode_decision = config.mode_decision;
  ec.deblock = config.deblock;
  ec.parallel = config.parallel;
  ec.slices = config.slices;
  return ec;
}

}  // namespace

RdPoint run_rd_point(const std::vector<video::Frame>& frames, int fps,
                     me::MotionEstimator& estimator, int qp,
                     const SweepConfig& config) {
  if (frames.empty()) {
    throw std::invalid_argument("rd sweep: no frames");
  }
  estimator.reset();

  codec::EncoderConfig ec = encoder_config(config);
  ec.qp = qp;
  ec.fps_num = fps;
  ec.fps_den = 1;

  const video::PictureSize size{frames[0].width(), frames[0].height()};
  codec::Encoder encoder(size, ec, estimator);

  double psnr_y_sum = 0.0;
  double psnr_yuv_sum = 0.0;
  std::uint64_t total_bits = 0;
  std::uint64_t mv_bits = 0;
  std::uint64_t me_positions = 0;
  std::uint64_t fs_blocks = 0;
  std::uint64_t p_mbs = 0;
  std::uint64_t skip_mbs = 0;
  double smoothness_sum = 0.0;
  int p_frames = 0;

  const int mbs_per_frame =
      (size.width / me::kBlockSize) * (size.height / me::kBlockSize);

  for (const video::Frame& frame : frames) {
    const codec::FrameReport r = encoder.encode_frame(frame);
    psnr_y_sum += r.psnr_y;
    psnr_yuv_sum += r.psnr_yuv;
    total_bits += r.bits;
    mv_bits += r.mv_bits;
    if (!r.intra) {
      me_positions += r.me_positions;
      fs_blocks += r.full_search_blocks;
      p_mbs += static_cast<std::uint64_t>(mbs_per_frame);
      skip_mbs += static_cast<std::uint64_t>(r.skip_mbs);
      smoothness_sum += r.me_field_smoothness;
      ++p_frames;
    }
  }

  const double n = static_cast<double>(frames.size());
  RdPoint point;
  point.qp = qp;
  point.psnr_y = psnr_y_sum / n;
  point.psnr_yuv = psnr_yuv_sum / n;
  point.kbps = static_cast<double>(total_bits) * fps / n / 1000.0;
  if (p_mbs > 0) {
    point.avg_positions =
        static_cast<double>(me_positions) / static_cast<double>(p_mbs);
    point.full_search_fraction =
        static_cast<double>(fs_blocks) / static_cast<double>(p_mbs);
    point.skip_fraction =
        static_cast<double>(skip_mbs) / static_cast<double>(p_mbs);
  }
  point.mv_bits_share =
      total_bits > 0
          ? static_cast<double>(mv_bits) / static_cast<double>(total_bits)
          : 0.0;
  point.field_smoothness = p_frames > 0 ? smoothness_sum / p_frames : 0.0;
  return point;
}

RdCurve run_rd_sweep(const std::vector<video::Frame>& frames, int fps,
                     std::string_view estimator_spec,
                     const SweepConfig& config,
                     const std::string& sequence_name) {
  RdCurve curve;
  curve.sequence = sequence_name;
  curve.algorithm = std::string(estimator_spec);
  curve.fps = fps;
  const auto estimator = core::builtin_estimators().create(estimator_spec);
  for (int qp : config.qps) {
    curve.points.push_back(
        run_rd_point(frames, fps, *estimator, qp, config));
  }
  return curve;
}

// ------------------------------------------------------- SweepConfig specs

namespace {

constexpr const char* kSweepOwner = "sweep config";

/// The sweep keys: the qps list, then the encoder keys a sweep shares with
/// EncoderConfig, taken from the encoder's own list by name (so types,
/// ranges and help cannot drift) in the sweep's canonical order. Estimator
/// parameters like alpha/beta/gamma are not sweep keys; they travel in the
/// estimator spec ("ACBM:alpha=500").
std::vector<util::ParamDesc> sweep_keys(const SweepConfig& config) {
  std::string qps;
  for (std::size_t i = 0; i < config.qps.size(); ++i) {
    if (i > 0) {
      qps += ':';
    }
    qps += std::to_string(config.qps[i]);
  }
  std::vector<util::ParamDesc> keys = {util::ParamDesc::text(
      "qps", qps,
      "colon-separated quantisers, each 1..31 (empty list allowed)")};
  const std::vector<util::ParamDesc> encoder_keys =
      codec::encoder_config_keys(encoder_config(config));
  for (const char* shared : {"range", "halfpel", "me_lambda", "mode",
                             "deblock", "slices", "threads"}) {
    keys.push_back(*std::find_if(
        encoder_keys.begin(), encoder_keys.end(),
        [shared](const util::ParamDesc& key) { return key.key == shared; }));
  }
  return keys;
}

/// Colon-separated so the list nests inside the comma-separated pair
/// grammar; an empty value is the empty list (to_spec round-trip).
std::vector<int> parse_qps(const std::string& list) {
  std::vector<int> qps;
  std::size_t begin = 0;
  while (!list.empty()) {
    std::size_t end = list.find(':', begin);
    if (end == std::string::npos) {
      end = list.size();
    }
    // An empty entry (leading/trailing/double colon) throws here.
    const std::int64_t qp = util::parse_int_strict(
        list.substr(begin, end - begin), "qps entry");
    if (qp < 1 || qp > 31) {
      throw util::SpecError(std::string(kSweepOwner) + ": qp " +
                            std::to_string(qp) + " out of range [1, 31]");
    }
    qps.push_back(static_cast<int>(qp));
    if (end == list.size()) {
      break;
    }
    begin = end + 1;
  }
  return qps;
}

}  // namespace

SweepConfig SweepConfig::from_spec(std::string_view spec) {
  return from_spec(spec, SweepConfig{});
}

SweepConfig SweepConfig::from_spec(std::string_view spec,
                                   const SweepConfig& base) {
  const util::ParamSet params =
      util::ParamSet::bind("", spec, sweep_keys(base), kSweepOwner);
  SweepConfig config = base;
  config.qps = parse_qps(params.get_text("qps"));
  config.search_range = static_cast<int>(params.get_int("range"));
  config.half_pel = params.get_bool("halfpel");
  config.me_lambda = params.get_double("me_lambda");
  config.mode_decision =
      static_cast<codec::ModeDecision>(params.get_choice("mode"));
  config.deblock = params.get_bool("deblock");
  config.slices = static_cast<int>(params.get_int("slices"));
  config.parallel.threads = static_cast<int>(params.get_int("threads"));
  return config;
}

std::string SweepConfig::to_spec() const {
  return util::ParamSet::bind("", "", sweep_keys(*this), kSweepOwner)
      .to_spec();
}

}  // namespace acbm::analysis
