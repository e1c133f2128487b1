// acbm_dec — command-line decoder for ACV1/ACV2 bitstreams produced by
// acbm_enc (or any codec::Encoder user). Writes YUV4MPEG2 for direct
// playback. ACV2 frames carry independently-predicted slices, which decode
// in parallel with --threads.
//
// Examples:
//   ./acbm_dec --input foreman.acv --out foreman_dec.y4m --threads 4
//   ./acbm_dec --input clip.acv --expect "width=176,height=144,frames=60"
//   ./acbm_dec --input clip.acv --channel "gilbert:loss=0.05,burst=8,seed=7"
//       --config conceal=resync --summary
//
// Every spec flag uses the project's key=value grammar: --config is the
// decoder-config spec (threads, conceal, expect_*; codec/config_map.hpp),
// --channel a sim::Channel spec applied to the bitstream before decoding,
// and --expect a shorthand that maps key=val to expect_key=val. --summary
// prints the structured DecodeReport as one greppable line.

#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "codec/config_map.hpp"
#include "codec/decoder.hpp"
#include "obs/trace.hpp"
#include "sim/channel.hpp"
#include "util/args.hpp"
#include "util/kv.hpp"
#include "video/y4m_io.hpp"

namespace {

const char* error_class_name(acbm::codec::DecodeErrorClass error_class) {
  using acbm::codec::DecodeErrorClass;
  switch (error_class) {
    case DecodeErrorClass::kNone:
      return "none";
    case DecodeErrorClass::kHeader:
      return "header";
    case DecodeErrorClass::kFrame:
      return "frame";
    case DecodeErrorClass::kDirectory:
      return "directory";
    case DecodeErrorClass::kPayload:
      return "payload";
  }
  return "?";
}

void print_summary(const acbm::codec::DecodeReport& report) {
  std::cout << "summary: frames=" << report.frames
            << " concealed_slices=" << report.concealed_slices
            << " resync_skips=" << report.resync_skips
            << " error=" << error_class_name(report.error_class)
            << " digest=" << std::hex << report.sample_digest << std::dec
            << " channel="
            << (report.channel_spec.empty() ? "-" : report.channel_spec)
            << '\n';
  std::cout << "concealed_per_frame:";
  for (std::uint32_t concealed : report.concealed_per_frame) {
    std::cout << ' ' << concealed;
  }
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acbm;
  util::ArgParser parser;
  parser.add_option("input", "ACV1/ACV2 bitstream", "");
  parser.add_option("out", "output .y4m path", "decoded.y4m");
  parser.add_option("threads",
                    "worker threads for slice-parallel decoding of ACV2 "
                    "frames (0 = all cores; output identical at any count)",
                    "1");
  parser.add_option("slices",
                    "expected slices per frame; fail if the stream differs "
                    "(0 = accept any; shorthand for expect_slices)",
                    "0");
  parser.add_option("expect",
                    "key=value assertions on the decoded stream over "
                    "width,height,fps,frames,slices,version (e.g. "
                    "\"width=176,slices=4\"); any mismatch fails",
                    "");
  parser.add_option("config",
                    "decoder-config spec key=val,... applied after the "
                    "individual flags (keys: threads, conceal=slice|resync|"
                    "off, expect_width/height/fps/frames/slices/version)",
                    "");
  parser.add_option("channel",
                    "lossy-channel spec applied to the bitstream before "
                    "decoding, e.g. \"gilbert:loss=0.05,burst=8,seed=7\" "
                    "(models: iid, gilbert, trunc; see docs/RESILIENCE.md)",
                    "");
  parser.add_flag("summary",
                  "print the structured DecodeReport (frames, concealments, "
                  "resync skips, error class, sample digest, channel echo)");
  parser.add_option("trace",
                    "write a Chrome trace-event JSON file of the decode "
                    "(loads in Perfetto / chrome://tracing); tracing never "
                    "changes the decoded samples",
                    "");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage("acbm_dec");
    return 2;
  }
  if (parser.help_requested() || parser.get("input").empty()) {
    std::cout << parser.usage("acbm_dec") << '\n'
              << codec::decoder_config_spec_usage();
    return parser.help_requested() ? 0 : 2;
  }

  // Flags build the base DecoderConfig; --config is applied on top through
  // the same grammar, so everything stays expressible as one spec string.
  codec::DecoderConfig config;
  try {
    config.threads = static_cast<int>(parser.get_int("threads"));
    const auto expected_slices = parser.get_int("slices");
    if (expected_slices > 0) {
      config.expect_slices = expected_slices;
    }
    std::string expect_spec;
    for (const auto& [key, value] :
         util::parse_kv_list(parser.get("expect"))) {
      if (!expect_spec.empty()) {
        expect_spec += ',';
      }
      expect_spec += "expect_" + key + '=' + value;
    }
    config = codec::decoder_config_from_spec(expect_spec, config);
    config = codec::decoder_config_from_spec(parser.get("config"), config);
  } catch (const util::SpecError& e) {
    std::cerr << "acbm_dec: bad spec: " << e.what() << '\n';
    return 2;
  }

  try {
    std::ifstream in(parser.get("input"), std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open " + parser.get("input"));
    }
    std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());

    std::string channel_echo;
    if (!parser.get("channel").empty()) {
      sim::Channel channel{std::string_view(parser.get("channel"))};
      sim::ChannelReport channel_report;
      data = channel.apply(data, &channel_report);
      channel_echo = channel.spec();
      std::cout << "channel " << channel_echo << ": " << channel_report.units
                << " units, dropped " << channel_report.dropped
                << ", flipped " << channel_report.flipped
                << ", directory hits " << channel_report.directory_hits
                << ", " << channel_report.bytes_in << " -> "
                << channel_report.bytes_out << " bytes\n";
    }

    std::optional<obs::Tracer> tracer;
    if (!parser.get("trace").empty()) {
      tracer.emplace();
      tracer->install();
    }

    video::Y4mVideo video;
    codec::DecodeReport report;
    int version = 0;
    int frame_slices = 0;
    {
      codec::Decoder decoder(data, config);
      if (!channel_echo.empty()) {
        decoder.note_channel_spec(channel_echo);
      }
      video.size = decoder.size();
      video.rate = decoder.rate();
      report = decoder.decode_stream(&video.frames);
      version = decoder.version();
      frame_slices = decoder.last_frame_slices();
    }

    if (tracer) {
      // The decoder (and its worker pool) is gone: rings are quiescent.
      obs::Tracer::uninstall();
      tracer->write_chrome_json_file(parser.get("trace"));
    }

    if (parser.get_flag("summary")) {
      print_summary(report);
    }
    if (report.error_class != codec::DecodeErrorClass::kNone) {
      std::cerr << "acbm_dec: " << report.error_message << '\n';
      return 1;
    }
    if (!report.expectation_failures.empty()) {
      for (const std::string& failure : report.expectation_failures) {
        std::cerr << "acbm_dec: " << failure << '\n';
      }
      return 1;
    }

    video::write_y4m(parser.get("out"), video);

    std::cout << "decoded " << video.frames.size() << " frames ("
              << video.size.width << "x" << video.size.height << " @ "
              << video.rate.fps() << " fps, ACV" << version
              << ", " << frame_slices << " slices/frame) -> "
              << parser.get("out") << '\n';
    if (report.concealed_slices > 0) {
      std::cout << "warning: concealed " << report.concealed_slices
                << " corrupt slice(s)\n";
    }
    return 0;
  } catch (const util::SpecError& e) {
    std::cerr << "acbm_dec: bad spec: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "acbm_dec: " << e.what() << '\n';
    return 1;
  }
}
