// Quickstart: estimate motion between two frames with ACBM and inspect the
// per-block decisions.
//
// This is the smallest end-to-end use of the library's core API:
//   1. obtain two frames (here: two frames of the synthetic Foreman clip),
//   2. interpolate the reference to half-pel,
//   3. run the ACBM estimator block by block,
//   4. read the motion field and the criticality statistics.
//
// Build & run:   ./examples/quickstart

#include <iostream>

#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "me/estimator.hpp"
#include "synth/sequences.hpp"
#include "util/csv.hpp"
#include "video/interp.hpp"

int main() {
  using namespace acbm;

  // 1. Two consecutive QCIF frames of the synthetic "foreman" clip.
  synth::SequenceRequest request;
  request.name = "foreman";
  request.frame_count = 2;
  const std::vector<video::Frame> frames = synth::make_sequence(request);
  const video::Frame& reference = frames[0];
  const video::Frame& current = frames[1];

  // 2. A half-pel view of the reference luma (borrowed, shared by all
  // blocks; the estimators interpolate on the fly).
  const video::HalfpelPlanes ref_half(reference.y());

  // 3. ACBM with the paper's parameters, constructed from a spec exactly as
  // the CLI's --estimator flag would ("ACBM" alone means the same thing).
  const auto estimator =
      core::builtin_estimators().create("ACBM:alpha=1000,beta=8,gamma=0.25");
  auto& acbm = dynamic_cast<core::Acbm&>(*estimator);
  acbm.set_record_log(true);

  me::MvField field = me::MvField::for_picture(current.width(),
                                               current.height());
  me::MvField empty_prev = field;  // no temporal predictors on frame 1

  for (int by = 0; by < field.mbs_y(); ++by) {
    for (int bx = 0; bx < field.mbs_x(); ++bx) {
      me::BlockContext ctx;
      ctx.cur = &current.y();
      ctx.ref = &ref_half;
      ctx.x = bx * me::kBlockSize;
      ctx.y = by * me::kBlockSize;
      ctx.bx = bx;
      ctx.by = by;
      ctx.window = me::unrestricted_window(15);  // the paper's p = 15
      ctx.cur_field = &field;        // spatial predictors (already-done MBs)
      ctx.prev_field = &empty_prev;  // temporal predictors
      ctx.qp = 16;                   // quantiser the thresholds scale with

      const me::EstimateResult result = acbm.estimate(ctx);
      field.set(bx, by, result.mv);
    }
  }

  // 4. Results: motion field + complexity statistics.
  std::cout << "Motion field (half-pel units), " << field.mbs_x() << "x"
            << field.mbs_y() << " macroblocks:\n";
  for (int by = 0; by < field.mbs_y(); ++by) {
    for (int bx = 0; bx < field.mbs_x(); ++bx) {
      const me::Mv mv = field.at(bx, by);
      std::cout << '(' << mv.x << ',' << mv.y << ") ";
    }
    std::cout << '\n';
  }

  const core::AcbmStats stats = acbm.stats();
  std::cout << "\nACBM statistics over " << stats.blocks << " blocks:\n"
            << "  accepted by T1 (low activity): "
            << stats.accepted_low_activity << '\n'
            << "  accepted by T2 (good match):   "
            << stats.accepted_good_match << '\n'
            << "  critical (FSBM executed):      " << stats.critical << '\n'
            << "  avg positions per block:       "
            << util::CsvWriter::num(stats.average_positions(), 1)
            << "  (FSBM alone would use 969)\n";
  return 0;
}
