// Quality/complexity dial: how the ACBM parameters trade PSNR against
// search positions on one sequence — the "highly flexible strategy" of
// paper §3.2, exposed as a tool.
//
// Sweeps gamma (the knob with the widest dynamic range) from FSBM-like to
// PBM-like behaviour and prints the operating curve, bracketed by the pure
// FSBM and PBM anchors. Also demonstrates the classical fast-search
// baselines (TSS/4SS/DS/CDS) on the same axes for context.
//
// Usage: ./examples/rd_tradeoff [--sequence NAME] [--qp Q] [--frames N]

#include <iostream>

#include "analysis/rd_sweep.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "synth/sequences.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace acbm;
  util::ArgParser parser;
  parser.add_option("sequence", "carphone|foreman|miss_america|table",
                    "table");
  parser.add_option("qp", "quantiser", "16");
  parser.add_option("frames", "frames to encode", "20");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage("rd_tradeoff");
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage("rd_tradeoff");
    return 0;
  }

  synth::SequenceRequest request;
  request.name = parser.get("sequence");
  request.frame_count = static_cast<int>(parser.get_int("frames"));
  const auto frames = synth::make_sequence(request);
  const int qp = static_cast<int>(parser.get_int("qp"));

  analysis::SweepConfig sweep;  // paper defaults: p=15, half-pel, pure SAD
  std::cout << "Quality/complexity dial on '" << request.name << "' (QCIF, "
            << frames.size() << " frames, Qp " << qp << ")\n\n";

  util::TablePrinter table(
      {"config", "PSNR-Y dB", "kbit/s", "pos/MB", "vs FSBM pos"});
  const auto fsbm = core::builtin_estimators().create("FSBM");
  const analysis::RdPoint anchor =
      analysis::run_rd_point(frames, 30, *fsbm, qp, sweep);

  auto add_row = [&](const std::string& label, const analysis::RdPoint& p) {
    table.add_row({label, util::CsvWriter::num(p.psnr_y, 2),
                   util::CsvWriter::num(p.kbps, 1),
                   util::CsvWriter::num(p.avg_positions, 1),
                   util::CsvWriter::num(
                       100.0 * p.avg_positions / anchor.avg_positions, 1) +
                       "%"});
  };
  add_row("FSBM (exhaustive)", anchor);

  // ACBM with gamma swept via estimator specs: small gamma = strict (more
  // full searches), large gamma = permissive (approaches PBM). Alpha/beta
  // stay at the paper defaults the spec does not mention.
  for (const char* gamma : {"0.05", "0.125", "0.25", "0.5", "1", "4"}) {
    const std::string spec = std::string("ACBM:gamma=") + gamma;
    const auto acbm = core::builtin_estimators().create(spec);
    add_row(spec, analysis::run_rd_point(frames, 30, *acbm, qp, sweep));
  }

  for (const char* spec :
       {"PBM", "TSS", "NTSS", "4SS", "DS", "HEXBS", "CDS", "FSBM-adec",
        "FSBM-sub"}) {
    const auto est = core::builtin_estimators().create(spec);
    add_row(spec, analysis::run_rd_point(frames, 30, *est, qp, sweep));
  }

  table.print(std::cout);
  std::cout << "\nReading: gamma ~ 0.25 (the paper's choice) keeps PSNR at "
               "the FSBM anchor\nwhile cutting positions; gamma >= 1 "
               "degrades toward PBM quality.\n";
  return 0;
}
