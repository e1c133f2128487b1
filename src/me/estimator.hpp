#pragma once
// The common interface every motion-search algorithm implements.
//
// The encoder, the benches and the characterization harness are all written
// against MotionEstimator, so FSBM / PBM / ACBM / TSS / 4SS / DS / CDS are
// interchangeable — exactly the comparison structure of the paper's §4.

#include <string_view>

#include "me/block_sums.hpp"
#include "me/cost.hpp"
#include "me/mv_field.hpp"
#include "me/types.hpp"
#include "me/window.hpp"
#include "video/interp.hpp"
#include "video/plane.hpp"

namespace acbm::me {

/// @brief Everything an algorithm may consult to estimate one block's
/// vector.
///
/// Pointers reference caller-owned data and must outlive the call. The
/// struct is assembled per macroblock by the encoder pipeline (or by a
/// bench/test harness) and passed by const reference, so estimators never
/// own or mutate frame state.
struct BlockContext {
  const video::Plane* cur = nullptr;          ///< current luma plane
  const video::HalfpelPlanes* ref = nullptr;  ///< half-pel reference view
  int x = 0;                ///< block top-left, samples
  int y = 0;
  int bx = 0;               ///< macroblock index
  int by = 0;
  int bw = kBlockSize;
  int bh = kBlockSize;
  SearchWindow window;      ///< allowed MV range (half-pel units)
  /// Cost model. The paper's FSBM/PBM select by pure SAD, so the default
  /// λ = 0 makes cost ≡ SAD; callers may enable rate-aware search by
  /// supplying a λ > 0 model.
  MotionCost cost{0.0};
  bool half_pel = true;     ///< perform the final half-pel refinement
  /// Spatial predictors: the current frame's field, filled up to but not
  /// including this block (raster order). May be null (no spatial preds).
  /// The encoder passes it only to estimators whose reads_current_field()
  /// is true, or when me_lambda > 0; otherwise its ME rows run without the
  /// wavefront stagger and this is null.
  const MvField* cur_field = nullptr;
  /// Temporal predictors: the previous frame's complete field. May be null.
  const MvField* prev_field = nullptr;
  /// Reference block sums of this block's row (see me/block_sums.hpp), for
  /// estimators whose wants_block_sums() is true. May be null: the search
  /// is then exhaustive, with the same result.
  const BlockSumBand* sums = nullptr;
  int qp = 16;              ///< quantiser, consulted by adaptive algorithms
  /// Display index of the frame being encoded. Purely informational (no
  /// search decision may depend on it); ACBM stamps it into its decision
  /// log, which it keeps in (frame, by, bx) order whatever order concurrent
  /// rows finish in.
  int frame = 0;
};

/// @brief The interface every motion-search algorithm implements.
///
/// Implementations are interchangeable across the encoder, the benches and
/// the characterization harness. Construction normally goes through
/// me::EstimatorRegistry / core::builtin_estimators(); every SAD an
/// implementation computes routes through me::sad_block* and therefore the
/// runtime-dispatched SIMD kernel table (simd/dispatch.hpp).
///
/// One instance serves every row task of an encode: estimate() is const
/// and may run concurrently on distinct blocks. An implementation keeps no
/// per-block state in members; whatever it accumulates across blocks (ACBM's
/// statistics and decision log) must be safe to update from several threads
/// at once and must not depend on their order.
class MotionEstimator {
 public:
  virtual ~MotionEstimator() = default;

  /// @brief Estimates the motion vector for one block.
  ///
  /// Implementations must count every candidate position they decide in
  /// EstimateResult::positions, whether they computed its SAD or proved it
  /// cannot win without one, and every SAD they computed in
  /// EstimateResult::sad_evaluations. Table 1 of the paper is regenerated
  /// from the positions; neither count may depend on thread count or
  /// kernel variant.
  ///
  /// @param ctx caller-owned per-block inputs (see BlockContext)
  /// @return the chosen vector plus its SAD and the work counts
  virtual EstimateResult estimate(const BlockContext& ctx) const = 0;

  /// @brief Stable identifier used in bench output and as the registry key
  /// ("FSBM", "PBM", "ACBM", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// @brief True when estimate() reads BlockContext::cur_field.
  ///
  /// The encoder pays the two-block wavefront stagger only for estimators
  /// that say so (or for a rate-aware cost, whose median predictor reads the
  /// field); every other estimator gets cur_field == nullptr, because its
  /// neighbours may still be mid-write on other workers.
  [[nodiscard]] virtual bool reads_current_field() const { return false; }

  /// @brief True when estimate() prunes with BlockContext::sums.
  ///
  /// The encoder builds a row's block-sum band only for an estimator that
  /// says so (plain FSBM); every other estimator gets sums == nullptr.
  [[nodiscard]] virtual bool wants_block_sums() const { return false; }

  /// @brief Clears any cross-frame state (ACBM statistics, etc.). Called
  /// between sequences.
  virtual void reset() {}
};

}  // namespace acbm::me
