#pragma once
// Per-block decision records and aggregate statistics for ACBM.
//
// Table 1 of the paper (average candidate positions per macroblock) and the
// "up to 95 % reduction" headline are regenerated from these counters.

#include <cstdint>

#include "me/types.hpp"

namespace acbm::core {

/// Which branch of the ACBM test accepted the block.
enum class AcbmOutcome : std::uint8_t {
  kAcceptLowActivity,  ///< T1: Intra_SAD + SAD_PBM < α + β·Qp²
  kAcceptGoodMatch,    ///< T2: SAD_PBM < γ·Intra_SAD
  kCritical,           ///< neither held — FSBM ran
};

/// One block's full decision trace (optional; see Acbm::set_record_log).
struct BlockDecision {
  int frame = 0;  ///< encode-order frame index (BlockContext::frame)
  int bx = 0;
  int by = 0;
  AcbmOutcome outcome = AcbmOutcome::kAcceptLowActivity;
  std::uint32_t intra_sad = 0;
  std::uint32_t pbm_sad = 0;
  me::Mv pbm_mv;
  me::Mv final_mv;
  std::uint32_t positions = 0;  ///< candidate positions charged to this block

  bool operator==(const BlockDecision&) const = default;
};

/// Aggregate counters across all blocks since the last reset().
struct AcbmStats {
  std::uint64_t blocks = 0;
  std::uint64_t accepted_low_activity = 0;
  std::uint64_t accepted_good_match = 0;
  std::uint64_t critical = 0;
  std::uint64_t total_positions = 0;

  /// Average candidate positions per macroblock — Table 1's metric.
  [[nodiscard]] double average_positions() const {
    return blocks > 0 ? static_cast<double>(total_positions) /
                            static_cast<double>(blocks)
                      : 0.0;
  }

  /// Fraction of blocks classified critical (FSBM executed).
  [[nodiscard]] double critical_fraction() const {
    return blocks > 0
               ? static_cast<double>(critical) / static_cast<double>(blocks)
               : 0.0;
  }

  bool operator==(const AcbmStats&) const = default;
};

}  // namespace acbm::core
