// Videoconference scenario: the workload the paper's introduction motivates
// — low-bitrate talking-head coding on a constrained device.
//
// Encodes the synthetic Miss-America-like clip with the full H.263-style
// encoder three times (ACBM / FSBM / PBM), prints the rate/quality/
// complexity comparison, decodes the ACBM stream to prove it is real, and
// writes the decoded video to a playable .y4m file.
//
// Usage: ./examples/videoconference [--frames N] [--qp Q] [--fps F]
//                                   [--sequence NAME] [--out FILE]

#include <iostream>

#include "analysis/rd_sweep.hpp"
#include "codec/config_map.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "synth/sequences.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "video/psnr.hpp"
#include "video/y4m_io.hpp"

int main(int argc, char** argv) {
  using namespace acbm;
  util::ArgParser parser;
  parser.add_option("frames", "frames to encode", "30");
  parser.add_option("qp", "quantiser (1..31)", "12");
  parser.add_option("fps", "frame rate (30, 15 or 10)", "30");
  parser.add_option("sequence", "carphone|foreman|miss_america|table",
                    "miss_america");
  parser.add_option("out", "decoded output (.y4m)",
                    "videoconference_decoded.y4m");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n'
              << parser.usage("videoconference");
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage("videoconference");
    return 0;
  }
  const int fps = static_cast<int>(parser.get_int("fps"));
  const int qp = static_cast<int>(parser.get_int("qp"));

  synth::SequenceRequest request;
  request.name = parser.get("sequence");
  request.frame_count = static_cast<int>(parser.get_int("frames"));
  request.fps = fps;
  const auto frames = synth::make_sequence(request);
  std::cout << "Encoding " << frames.size() << " QCIF frames of '"
            << request.name << "' @ " << fps << " fps, Qp " << qp << "\n\n";

  util::TablePrinter table({"algorithm", "kbit/s", "PSNR-Y dB", "pos/MB",
                            "FSBM blocks %", "skip %"});
  std::vector<std::uint8_t> acbm_stream;

  for (const std::string spec : {"ACBM", "FSBM", "PBM"}) {
    const auto estimator = core::builtin_estimators().create(spec);
    // Config via the key=value grammar on top of the CLI values.
    const codec::EncoderConfig cfg = codec::encoder_config_from_spec(
        "qp=" + std::to_string(qp) + ",fps=" + std::to_string(fps));
    codec::Encoder encoder(video::kQcif, cfg, *estimator);

    std::uint64_t bits = 0;
    std::uint64_t positions = 0;
    std::uint64_t fs_blocks = 0;
    std::uint64_t skips = 0;
    std::uint64_t p_mbs = 0;
    double psnr = 0.0;
    for (const auto& frame : frames) {
      const codec::FrameReport r = encoder.encode_frame(frame);
      bits += r.bits;
      psnr += r.psnr_y;
      if (!r.intra) {
        positions += r.me_positions;
        fs_blocks += r.full_search_blocks;
        skips += static_cast<std::uint64_t>(r.skip_mbs);
        p_mbs += 99;  // QCIF: 11×9 macroblocks
      }
    }
    const double n = static_cast<double>(frames.size());
    table.add_row(
        {std::string(estimator->name()),
         util::CsvWriter::num(static_cast<double>(bits) * fps / n / 1000.0, 1),
         util::CsvWriter::num(psnr / n, 2),
         util::CsvWriter::num(
             p_mbs ? static_cast<double>(positions) / p_mbs : 0.0, 1),
         util::CsvWriter::num(
             p_mbs ? 100.0 * static_cast<double>(fs_blocks) / p_mbs : 0.0, 1),
         util::CsvWriter::num(
             p_mbs ? 100.0 * static_cast<double>(skips) / p_mbs : 0.0, 1)});
    if (spec == "ACBM") {
      acbm_stream = encoder.finish();
    }
  }
  table.print(std::cout);

  // Prove the ACBM bitstream is a real, decodable stream.
  codec::Decoder decoder(acbm_stream, codec::DecoderConfig{});
  const auto decoded = decoder.decode_all();
  double decoded_psnr = 0.0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    decoded_psnr += video::psnr_luma(frames[i], decoded[i]);
  }
  std::cout << "\nACBM bitstream: " << acbm_stream.size() << " bytes, "
            << decoded.size() << " frames decoded, PSNR-Y "
            << util::CsvWriter::num(
                   decoded_psnr / static_cast<double>(decoded.size()), 2)
            << " dB (identical to the encoder loop)\n";

  video::Y4mVideo out;
  out.size = video::kQcif;
  out.rate = {fps, 1};
  out.frames = decoded;
  video::write_y4m(parser.get("out"), out);
  std::cout << "Decoded video written to " << parser.get("out")
            << " (playable with ffplay/mpv)\n";
  return 0;
}
