// Extension study (beyond the paper's figures): every motion-search
// algorithm in the library — the paper's three (ACBM/FSBM/PBM), the
// candidate-reduction family it cites (TSS, NTSS, 4SS, DS, CDS, plus
// HEXBS), and the pixel-decimation family (FSBM-adec, FSBM-sub) — compared
// on all four sequences at a fine and a coarse quantiser.
//
// Expected shape: FSBM anchors quality; ACBM matches it at a fraction of
// the positions; the fast searches are cheapest but drop tenths of a dB on
// erratic content; the decimation variants track FSBM quality at the same
// candidate count but a fraction of the arithmetic per candidate.

#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace acbm;
  const auto options =
      bench::parse_bench_options(argc, argv, "bench_baselines_roster");
  util::Timer timer;

  const analysis::SweepConfig sweep = bench::sweep_config(options);

  const std::vector<int> qps = options.quick ? std::vector<int>{16}
                                             : std::vector<int>{16, 30};

  // Default roster = the registry (every algorithm, zero bench changes when
  // one is added); --estimators narrows or parameterises it, e.g.
  //   --estimators "ACBM;ACBM:alpha=500,beta=8;FSBM-adec"
  const std::vector<std::string> roster = bench::estimator_roster(
      options, core::builtin_estimators().names());

  auto csv_stream = bench::open_csv(options.csv_prefix, "roster");
  util::CsvWriter csv(csv_stream);
  bench::write_rd_csv_header(csv);

  for (const auto& name : synth::standard_sequence_names()) {
    const auto frames = bench::qcif_sequence(name, options.frames, 30);
    std::cout << "\n-- " << name << " (QCIF @ 30 fps, " << options.frames
              << " frames) --\n";
    util::TablePrinter table(
        {"algorithm", "qp", "kbit/s", "PSNR-Y dB", "pos/MB"});
    for (const std::string& spec : roster) {
      const auto estimator = core::builtin_estimators().create(spec);
      analysis::RdCurve curve;
      curve.sequence = name;
      curve.algorithm = spec;
      curve.fps = 30;
      for (int qp : qps) {
        const analysis::RdPoint p =
            analysis::run_rd_point(frames, 30, *estimator, qp, sweep);
        curve.points.push_back(p);
        table.add_row({curve.algorithm, std::to_string(qp),
                       util::CsvWriter::num(p.kbps, 1),
                       util::CsvWriter::num(p.psnr_y, 2),
                       util::CsvWriter::num(p.avg_positions, 1)});
      }
      bench::write_rd_csv_rows(csv, curve);
    }
    table.print(std::cout);
  }
  std::cout << "\n[done] in " << util::CsvWriter::num(timer.seconds(), 1)
            << " s\n";
  return 0;
}
