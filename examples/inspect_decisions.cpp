// Visual inspection of ACBM's behaviour: encodes a few frames and dumps,
// for the last P-frame,
//   * the source luma                    (inspect_luma.pgm)
//   * the estimated motion field         (inspect_field.ppm, hue=direction)
//   * ACBM's per-block decision map      (inspect_decisions.ppm:
//     green=T1 accept, blue=T2 accept, red=critical/FSBM)
//
// Open the PPM/PGM files with any image viewer. On the foreman analogue the
// red blocks cluster on the textured, erratically-moving regions — the
// criticality test localising exactly where the paper says full search is
// worth its cost.
//
// Usage: ./examples/inspect_decisions [--sequence NAME] [--qp Q] [--frames N]

#include <iostream>

#include "analysis/visualize.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "synth/sequences.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace acbm;
  util::ArgParser parser;
  parser.add_option("sequence", "carphone|foreman|miss_america|table",
                    "foreman");
  parser.add_option("qp", "quantiser", "16");
  parser.add_option("frames", "frames to encode before the snapshot", "10");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n'
              << parser.usage("inspect_decisions");
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage("inspect_decisions");
    return 0;
  }

  synth::SequenceRequest request;
  request.name = parser.get("sequence");
  request.frame_count = static_cast<int>(parser.get_int("frames"));
  const auto frames = synth::make_sequence(request);

  core::Acbm acbm;
  codec::EncoderConfig cfg;
  cfg.qp = static_cast<int>(parser.get_int("qp"));
  codec::Encoder encoder(video::kQcif, cfg, acbm);

  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    (void)encoder.encode_frame(frames[i]);
  }
  // Log only the final frame's decisions.
  acbm.reset();
  acbm.set_record_log(true);
  (void)encoder.encode_frame(frames.back());

  analysis::write_pgm("inspect_luma.pgm", frames.back().y());
  analysis::write_ppm("inspect_field.ppm",
                      analysis::render_mv_field(encoder.last_me_field()));
  analysis::write_ppm(
      "inspect_decisions.ppm",
      analysis::render_decision_map(acbm.decision_log(),
                                    encoder.last_me_field().mbs_x(),
                                    encoder.last_me_field().mbs_y()));

  const core::AcbmStats stats = acbm.stats();
  std::cout << "Snapshot of '" << request.name << "' frame "
            << frames.size() - 1 << " at Qp " << cfg.qp << ":\n"
            << "  T1 (low activity): " << stats.accepted_low_activity
            << " blocks (green)\n"
            << "  T2 (good match):   " << stats.accepted_good_match
            << " blocks (blue)\n"
            << "  critical (FSBM):   " << stats.critical << " blocks (red)\n"
            << "Wrote inspect_luma.pgm, inspect_field.ppm, "
               "inspect_decisions.ppm\n";
  return 0;
}
