#include "me/decimation.hpp"

#include "me/halfpel.hpp"
#include "me/sad.hpp"
#include "me/search_support.hpp"
#include "simd/dispatch.hpp"

namespace acbm::me {

int decimated_sample_count(DecimationPattern pattern, int bw, int bh) {
  switch (pattern) {
    case DecimationPattern::kNone:
      return bw * bh;
    case DecimationPattern::kQuincunx4to1:
      return bw * bh / 4;
    case DecimationPattern::kRowSkip2to1:
      return bw * (bh / 2) + (bh % 2) * bw;
  }
  return bw * bh;
}

std::uint32_t sad_block_decimated(const video::Plane& cur, int cx, int cy,
                                  const video::Plane& ref, int rx, int ry,
                                  int bw, int bh, DecimationPattern pattern) {
  // The sampling lattices themselves (quincunx = Liu–Zaccarin pattern A,
  // row-skip = Chan & Siu) are specified in simd/sad_kernels.hpp; every
  // kernel variant reproduces them bit-exactly.
  const simd::SadKernels& k = simd::active_kernels();
  switch (pattern) {
    case DecimationPattern::kNone:
      return sad_block(cur, cx, cy, ref, rx, ry, bw, bh);
    case DecimationPattern::kQuincunx4to1:
      return k.sad_quincunx(cur.row(cy) + cx, cur.stride(), ref.row(ry) + rx,
                            ref.stride(), bw, bh);
    case DecimationPattern::kRowSkip2to1:
      return k.sad_rowskip(cur.row(cy) + cx, cur.stride(), ref.row(ry) + rx,
                           ref.stride(), bw, bh);
  }
  return 0;
}

DecimationPattern AdaptiveDecimationSearch::pattern_for(
    std::uint32_t intra_sad, int bw, int bh) const {
  // Thresholds are calibrated for 16×16; rescale by area for other sizes.
  const double area_scale = static_cast<double>(bw * bh) / (16.0 * 16.0);
  const double texture = static_cast<double>(intra_sad) / area_scale;
  if (texture < thresholds_.quarter_below) {
    return DecimationPattern::kQuincunx4to1;
  }
  if (texture < thresholds_.half_below) {
    return DecimationPattern::kRowSkip2to1;
  }
  return DecimationPattern::kNone;
}

EstimateResult AdaptiveDecimationSearch::estimate(
    const BlockContext& ctx) const {
  const std::uint32_t texture =
      intra_sad(*ctx.cur, ctx.x, ctx.y, ctx.bw, ctx.bh);
  const DecimationPattern pattern = pattern_for(texture, ctx.bw, ctx.bh);
  EstimateResult result = estimate_decimated_full_search(ctx, pattern);
  result.positions += 1;  // the Intra_SAD pass that chose the pattern
  result.sad_evaluations += 1;
  result.intra_sad = texture;
  return result;
}

namespace {

/// Winner of a decimated integer scan and the candidates it ranked.
struct DecimatedScan {
  Mv best{};
  std::uint32_t positions = 0;
};

/// Ranks the window's integer candidates by `pattern`'s decimated SAD; with
/// `checkerboard`, only the 2:1 lattice where (ix + iy) is even (ix, iy in
/// integer-pel units).
DecimatedScan decimated_scan(const BlockContext& ctx,
                             DecimationPattern pattern, bool checkerboard) {
  const video::Plane& ref_int = ctx.ref->integer_plane();
  DecimatedScan scan;
  std::uint32_t best_dec = ~std::uint32_t{0};
  const int min_x = ctx.window.min_x + (ctx.window.min_x & 1);
  const int min_y = ctx.window.min_y + (ctx.window.min_y & 1);
  for (int my = min_y; my <= ctx.window.max_y; my += 2) {
    for (int mx = min_x; mx <= ctx.window.max_x; mx += 2) {
      if (checkerboard && (((mx >> 1) + (my >> 1)) & 1) != 0) {
        continue;
      }
      const std::uint32_t dec = sad_block_decimated(
          *ctx.cur, ctx.x, ctx.y, ref_int, ctx.x + mx / 2, ctx.y + my / 2,
          ctx.bw, ctx.bh, pattern);
      ++scan.positions;
      if (dec < best_dec) {
        best_dec = dec;
        scan.best = {mx, my};
      }
    }
  }
  return scan;
}

}  // namespace

EstimateResult SubsampledFullSearch::estimate(
    const BlockContext& ctx) const {
  const DecimatedScan scan =
      decimated_scan(ctx, DecimationPattern::kQuincunx4to1, true);
  // Exact SAD over the winner's full integer neighbourhood (recovers the
  // skipped checkerboard positions), then half-pel refinement.
  SearchState state(ctx, /*track_visited=*/true);
  state.try_candidate(scan.best);
  probe(state, scan.best, kSquare, 2);
  refine_halfpel(state);
  EstimateResult result = state.result();
  result.positions += scan.positions;
  result.sad_evaluations += scan.positions;
  return result;
}

EstimateResult estimate_decimated_full_search(const BlockContext& ctx,
                                              DecimationPattern pattern) {
  const DecimatedScan scan = decimated_scan(ctx, pattern, false);
  // Exact SAD at the decimated winner, then ordinary half-pel refinement.
  SearchState state(ctx);
  state.try_candidate(scan.best);
  refine_halfpel(state);
  EstimateResult result = state.result();
  result.positions += scan.positions;
  result.sad_evaluations += scan.positions;
  result.used_full_search = true;
  return result;
}

}  // namespace acbm::me
