// Reproduces Table 1 of the paper: average number of candidate positions
// searched per macroblock by ACBM, for Qp ∈ {16..30 even}, the four QCIF
// sequences, at 30 and 10 fps — plus the FSBM reference (969 positions) and
// the resulting reduction percentage ("up to 95 %" in the paper's text).

#include <algorithm>
#include <iostream>

#include "bench_support.hpp"
#include "core/acbm.hpp"

int main(int argc, char** argv) {
  using namespace acbm;
  const auto options =
      bench::parse_bench_options(argc, argv, "bench_table1_complexity",
                                 /*supports_json=*/true);
  util::Timer timer;

  const analysis::SweepConfig sweep = bench::sweep_config(options);
  // Table 1 is ACBM's table; --estimators re-runs it for parameterised or
  // alternative specs (each gets its own table and spec-prefixed JSON rows;
  // the default spec keeps the historical row names CI baselines join on).
  const std::vector<std::string> roster =
      bench::estimator_roster(options, {"ACBM"});
  const std::string default_spec =
      core::builtin_estimators().canonical_spec("ACBM");
  bench::JsonBenchReport json(options.benchmark_out);
  // Canonical specs into the artifact context: BENCH_ci.json rows join
  // across commits by the exact configuration that produced them.
  {
    std::string joined;
    for (const std::string& spec : roster) {
      joined += joined.empty() ? "" : ";";
      joined += core::builtin_estimators().canonical_spec(spec);
    }
    json.set_context("estimator_spec", joined);
  }
  json.set_context("sweep_config", sweep.to_spec());
  const double fsbm_positions =
      static_cast<double>((2 * options.search_range + 1) *
                          (2 * options.search_range + 1) + 8);

  std::cout << "Table 1: ACBM average candidate positions per macroblock\n"
            << "FSBM reference: " << fsbm_positions
            << " positions per macroblock (p = " << options.search_range
            << ")\n";

  auto csv_stream = bench::open_csv(options.csv_prefix, "positions");
  util::CsvWriter csv(csv_stream);
  csv.row({"estimator", "sequence", "fps", "qp", "positions_per_mb",
           "reduction_vs_fsbm_percent", "critical_fraction"});

  const auto& names = synth::standard_sequence_names();
  double best_reduction = 0.0;
  for (const std::string& spec : roster) {
    const std::string canonical =
        core::builtin_estimators().canonical_spec(spec);
    // Historical JSON row names for the default ACBM run; spec-prefixed for
    // anything else so rows never alias a differently-configured search.
    const std::string row_prefix =
        canonical == default_spec ? "BM_Table1" : "BM_Table1/" + canonical;
    if (roster.size() > 1) {
      std::cout << "\n== " << canonical << " ==\n";
    }

    // Paper layout: rows = Qp (descending), column pairs = sequence × fps.
    std::vector<std::string> header = {"Qp"};
    for (const auto& name : names) {
      header.push_back(name + "@30");
      header.push_back(name + "@10");
    }
    util::TablePrinter table(header);

    // results[sequence][fps][qp]
    std::map<std::string, std::map<int, std::map<int, analysis::RdPoint>>>
        all;
    for (const auto& name : names) {
      for (int fps : {30, 10}) {
        const auto frames = bench::qcif_sequence(name, options.frames, fps);
        const auto estimator = core::builtin_estimators().create(spec);
        for (int qp : options.qps) {
          util::Timer point_timer;
          const analysis::RdPoint p =
              analysis::run_rd_point(frames, fps, *estimator, qp, sweep);
          all[name][fps][qp] = p;
          const double reduction =
              100.0 * (1.0 - p.avg_positions / fsbm_positions);
          best_reduction = std::max(best_reduction, reduction);
          csv.row({canonical, name, std::to_string(fps), std::to_string(qp),
                   util::CsvWriter::num(p.avg_positions, 1),
                   util::CsvWriter::num(reduction, 1),
                   util::CsvWriter::num(p.full_search_fraction, 4)});
          // One trajectory row per Table-1 cell: wall time for CI's relative
          // regression gate plus the deterministic position count, which
          // must not drift at all between runs on any machine.
          json.add_row(row_prefix + "/" + name + "@" + std::to_string(fps) +
                           "/qp:" + std::to_string(qp),
                       point_timer.seconds() * 1e9,
                       {{"positions_per_mb", p.avg_positions},
                        {"kbps", p.kbps},
                        {"psnr_y", p.psnr_y}});
        }
      }
    }

    // Paper's Table 1 lists Qp from 30 down to 16.
    std::vector<int> rows = options.qps;
    std::sort(rows.rbegin(), rows.rend());
    for (int qp : rows) {
      std::vector<std::string> row = {std::to_string(qp)};
      for (const auto& name : names) {
        row.push_back(
            util::CsvWriter::num(all[name][30][qp].avg_positions, 0));
        row.push_back(
            util::CsvWriter::num(all[name][10][qp].avg_positions, 0));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  std::cout << "\nMaximum reduction vs FSBM: "
            << util::CsvWriter::num(best_reduction, 1)
            << "% (paper: up to 95%)\n";
  std::cout << "Shape checks (paper): miss_america cheapest, foreman most "
               "expensive;\npositions grow as Qp falls and as fps falls.\n";
  json.write("bench_table1_complexity");
  std::cout << "[done] in " << util::CsvWriter::num(timer.seconds(), 1)
            << " s\n";
  return 0;
}
