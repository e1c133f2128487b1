#pragma once
// The rate–distortion sweep driver behind Figs. 5/6 and Table 1.
//
// One function encodes a sequence at a series of quantiser values with a
// chosen motion-estimation algorithm and reports, per Qp: average luma PSNR,
// bitrate in kbit/s, and the average number of candidate positions searched
// per macroblock — exactly the three quantities the paper plots/tabulates.

#include <string>
#include <string_view>
#include <vector>

#include "codec/encoder.hpp"
#include "me/estimator.hpp"
#include "video/frame.hpp"

namespace acbm::analysis {

/// One Qp's aggregated results.
struct RdPoint {
  int qp = 0;
  double kbps = 0.0;           ///< total_bits · fps / frames / 1000
  double psnr_y = 0.0;         ///< mean luma PSNR over all frames
  double psnr_yuv = 0.0;
  double avg_positions = 0.0;  ///< candidate positions per P-frame macroblock
  double full_search_fraction = 0.0;  ///< P-frame blocks where FSBM ran
  double skip_fraction = 0.0;
  double mv_bits_share = 0.0;  ///< fraction of bits spent on vectors
  double field_smoothness = 0.0;  ///< mean ME-field smoothness (half-pel L1)
};

struct RdCurve {
  std::string sequence;
  std::string algorithm;
  int fps = 30;
  std::vector<RdPoint> points;
};

/// Sweep parameters.
struct SweepConfig {
  std::vector<int> qps = {16, 18, 20, 22, 24, 26, 28, 30};  ///< Table 1 set
  int search_range = 15;
  bool half_pel = true;
  double me_lambda = 0.0;  ///< paper: pure-SAD search
  codec::ModeDecision mode_decision = codec::ModeDecision::kHeuristic;
  bool deblock = false;    ///< in-loop Annex-J filter
  codec::ParallelConfig parallel;  ///< encoder threading (results identical)
  /// Entropy-coding slices per frame (1 = legacy single-slice ACV1 stream;
  /// N > 1 changes the bitstream — rates include the slice headers).
  int slices = 1;

  /// Builds a config from the key=value grammar over the sweep's keys —
  /// qps (colon-separated list, e.g. "qps=16:22:30"), range, halfpel,
  /// me_lambda, mode (heuristic|rd), deblock, slices, threads — applied on
  /// top of `base`. Estimator parameters are NOT sweep keys; they travel in
  /// the estimator spec ("ACBM:alpha=500"). @throws util::SpecError with
  /// the valid-key table on unknown keys.
  [[nodiscard]] static SweepConfig from_spec(std::string_view spec,
                                             const SweepConfig& base);
  [[nodiscard]] static SweepConfig from_spec(std::string_view spec);

  /// Canonical spec (every key, declaration order); round-trips through
  /// from_spec, so benches can stamp the exact sweep configuration.
  [[nodiscard]] std::string to_spec() const;
};

/// Encodes `frames` (already at the target fps) once per Qp with the
/// estimator core::builtin_estimators() builds from `estimator_spec`
/// ("ACBM:alpha=500", "FSBM", ...). The curve is labelled with the spec
/// text, so swept variants stay distinguishable in tables and CSVs.
/// @throws util::SpecError as EstimatorRegistry::create does.
RdCurve run_rd_sweep(const std::vector<video::Frame>& frames, int fps,
                     std::string_view estimator_spec,
                     const SweepConfig& config,
                     const std::string& sequence_name);

/// Single-Qp convenience used by Table 1 and the ablation bench.
RdPoint run_rd_point(const std::vector<video::Frame>& frames, int fps,
                     me::MotionEstimator& estimator, int qp,
                     const SweepConfig& config);

}  // namespace acbm::analysis
