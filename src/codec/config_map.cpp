#include "codec/config_map.hpp"

namespace acbm::codec {

namespace {

constexpr const char* kEncoderOwner = "encoder config";
constexpr const char* kDecoderOwner = "decoder config";

/// The decoder keys, defaults from `c`. All expect_* keys share one range:
/// -1 (unchecked) .. 2^31.
std::vector<util::ParamDesc> decoder_config_keys(const DecoderConfig& c) {
  using util::ParamDesc;
  constexpr std::int64_t kExpectMax = std::int64_t{1} << 31;
  return {
      ParamDesc::integer("threads", c.threads, 0, 4096,
                         "slice-decode worker threads (0 = all cores; "
                         "output identical at any count)"),
      // Choices in Concealment order.
      ParamDesc::choice("conceal", {"slice", "resync", "off"},
                        static_cast<std::size_t>(c.conceal),
                        "concealment policy: slice (payload conceal, "
                        "directory throws) | resync (directory/frame-header "
                        "recovery too) | off (strict)"),
      ParamDesc::integer("expect_width", c.expect_width, -1, kExpectMax,
                         "assert luma width (-1 = unchecked)"),
      ParamDesc::integer("expect_height", c.expect_height, -1, kExpectMax,
                         "assert luma height (-1 = unchecked)"),
      ParamDesc::integer("expect_fps", c.expect_fps, -1, kExpectMax,
                         "assert integer frame rate (-1 = unchecked)"),
      ParamDesc::integer("expect_frames", c.expect_frames, -1, kExpectMax,
                         "assert total decoded frames at end of stream (-1 "
                         "= unchecked)"),
      ParamDesc::integer("expect_slices", c.expect_slices, -1, kExpectMax,
                         "assert slices per frame, every frame (-1 = "
                         "unchecked)"),
      ParamDesc::integer("expect_version", c.expect_version, -1, kExpectMax,
                         "assert bitstream revision 1|2 (-1 = unchecked)"),
  };
}

}  // namespace

std::vector<util::ParamDesc> encoder_config_keys(const EncoderConfig& c) {
  using util::ParamDesc;
  return {
      ParamDesc::integer("qp", c.qp, 1, 31, "quantiser"),
      ParamDesc::integer("range", c.search_range, 1, 23,
                         "integer search range p (paper: 15; bounded by the "
                         "plane border)"),
      ParamDesc::boolean("halfpel", c.half_pel,
                         "half-pel refinement + compensation"),
      ParamDesc::integer("intra_period", c.intra_period, 0, 100000,
                         "intra refresh period (0 = only frame 0)"),
      ParamDesc::number("me_lambda", c.me_lambda, 0, 1e6,
                        "lambda for rate-aware ME (0 = pure SAD, paper)"),
      ParamDesc::integer("intra_bias", c.intra_bias, -65536, 65536,
                         "TMN INTRA decision bias"),
      ParamDesc::boolean("skip", c.allow_skip,
                         "emit COD=1 for zero-MV zero-CBP macroblocks"),
      ParamDesc::boolean("deblock", c.deblock,
                         "in-loop Annex-J deblocking filter"),
      ParamDesc::integer("slices", c.slices, 1, kMaxSlices,
                         "entropy-coding slices per frame (1 = legacy ACV1)"),
      // Choices in ModeDecision order.
      ParamDesc::choice("mode", {"heuristic", "rd"},
                        static_cast<std::size_t>(c.mode_decision),
                        "macroblock mode decision"),
      ParamDesc::integer("threads", c.parallel.threads, 0, 4096,
                         "pipeline worker threads (0 = all cores; bit-exact "
                         "at any count)"),
      ParamDesc::integer("fps", c.fps_num, 1, 65535,
                         "frame-rate numerator (sequence header)"),
      ParamDesc::integer("fps_den", c.fps_den, 1, 65535,
                         "frame-rate denominator"),
  };
}

std::string config_spec_usage() {
  return "encoder config grammar: key=val[,key=val...] over the keys\n" +
         util::describe_params(encoder_config_keys({}));
}

EncoderConfig encoder_config_from_spec(std::string_view spec,
                                       const EncoderConfig& base) {
  const util::ParamSet params = util::ParamSet::bind(
      "", spec, encoder_config_keys(base), kEncoderOwner);
  EncoderConfig config = base;
  config.qp = static_cast<int>(params.get_int("qp"));
  config.search_range = static_cast<int>(params.get_int("range"));
  config.half_pel = params.get_bool("halfpel");
  config.intra_period = static_cast<int>(params.get_int("intra_period"));
  config.me_lambda = params.get_double("me_lambda");
  config.intra_bias = static_cast<int>(params.get_int("intra_bias"));
  config.allow_skip = params.get_bool("skip");
  config.deblock = params.get_bool("deblock");
  config.slices = static_cast<int>(params.get_int("slices"));
  config.mode_decision = static_cast<ModeDecision>(params.get_choice("mode"));
  config.parallel.threads = static_cast<int>(params.get_int("threads"));
  config.fps_num = static_cast<int>(params.get_int("fps"));
  config.fps_den = static_cast<int>(params.get_int("fps_den"));
  return config;
}

std::string to_spec(const EncoderConfig& config) {
  return util::ParamSet::bind("", "", encoder_config_keys(config),
                              kEncoderOwner)
      .to_spec();
}

std::string decoder_config_spec_usage() {
  return "decoder config grammar: key=val[,key=val...] over the keys\n" +
         util::describe_params(decoder_config_keys({}));
}

DecoderConfig decoder_config_from_spec(std::string_view spec,
                                       const DecoderConfig& base) {
  const util::ParamSet params = util::ParamSet::bind(
      "", spec, decoder_config_keys(base), kDecoderOwner);
  DecoderConfig config = base;
  config.threads = static_cast<int>(params.get_int("threads"));
  config.conceal = static_cast<Concealment>(params.get_choice("conceal"));
  config.expect_width = params.get_int("expect_width");
  config.expect_height = params.get_int("expect_height");
  config.expect_fps = params.get_int("expect_fps");
  config.expect_frames = params.get_int("expect_frames");
  config.expect_slices = params.get_int("expect_slices");
  config.expect_version = params.get_int("expect_version");
  return config;
}

std::string to_spec(const DecoderConfig& config) {
  return util::ParamSet::bind("", "", decoder_config_keys(config),
                              kDecoderOwner)
      .to_spec();
}

}  // namespace acbm::codec
