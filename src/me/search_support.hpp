#pragma once
// Shared best-candidate tracking for all search algorithms.
//
// SearchState centralises three concerns every search loop has:
//   * accounting every evaluated candidate through one path (offer) — fed
//     by try_candidate's single SAD entry point, me::sad_block_halfpel, or
//     by a batched kernel such as the full search's sad_x4 — so the
//     position counters behind Table 1 cannot drift between algorithms or
//     kernel variants; a candidate proved unable to win (skip) counts as a
//     position without a SAD,
//   * window membership,
//   * deterministic tie-breaking (cost, then |mv|∞, then raster order),
// plus an optional visited-set so pattern searches that revisit points
// (4SS/DS/CDS) neither recount nor recompute them.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "me/estimator.hpp"
#include "me/sad.hpp"

namespace acbm::me {

class SearchState {
 public:
  explicit SearchState(const BlockContext& ctx, bool track_visited = false)
      : ctx_(&ctx), track_visited_(track_visited) {}

  /// Evaluates `cand` (half-pel units) if it is inside the window and not
  /// yet visited. Returns true when the candidate became the new best.
  bool try_candidate(Mv cand) {
    if (!ctx_->window.contains(cand)) {
      return false;
    }
    if (track_visited_ && !mark_visited(cand)) {
      return false;
    }
    return offer(cand, sad_block_halfpel(*ctx_->cur, ctx_->x, ctx_->y,
                                         *ctx_->ref, ctx_->x * 2 + cand.x,
                                         ctx_->y * 2 + cand.y, ctx_->bw,
                                         ctx_->bh));
  }

  /// Accounts `cand` with its exact SAD, computed by the caller: the one
  /// path for positions, sad_sum and best-candidate selection. Unlike
  /// try_candidate it does not check the window or the visited set; the
  /// caller guarantees `cand` is inside the window and offered only once.
  /// Returns true when the candidate became the new best.
  bool offer(Mv cand, std::uint32_t sad) {
    ++positions_;
    ++sad_evaluations_;
    sad_sum_ += sad;
    const std::uint64_t cost = ctx_->cost.cost_fixed(sad, cand);
    if (is_better(cost, cand)) {
      best_mv_ = cand;
      best_sad_ = sad;
      best_cost_ = cost;
      return true;
    }
    return false;
  }

  /// Accounts `count` candidates decided without their SAD: the caller
  /// proved each one's SAD exceeds sad_bound(). They are positions (the
  /// window was searched) but add nothing to sad_sum.
  void skip(std::uint32_t count) { positions_ += count; }

  /// The largest SAD a candidate may have and still win or tie. Its cost
  /// is at least SAD·256, because the rate term is never negative, so a
  /// SAD above ⌊best cost / 256⌋ costs strictly more than the best.
  [[nodiscard]] std::uint64_t sad_bound() const { return best_cost_ >> 8; }

  /// True when a candidate at `cand` whose SAD is at least `sad_floor`
  /// costs strictly more than the best so far: the rate-aware form of
  /// sad_bound(), which it equals when the cost prices no rate.
  [[nodiscard]] bool cannot_win(std::uint32_t sad_floor, Mv cand) const {
    return ctx_->cost.cost_fixed(sad_floor, cand) > best_cost_;
  }

  [[nodiscard]] Mv best_mv() const { return best_mv_; }
  [[nodiscard]] std::uint32_t best_sad() const { return best_sad_; }
  [[nodiscard]] std::uint32_t positions() const { return positions_; }
  /// Σ SAD over every evaluated candidate — the paper's SAD_deviation is
  /// sad_sum − positions·SAD_min (§3.1).
  [[nodiscard]] std::uint64_t sad_sum() const { return sad_sum_; }
  [[nodiscard]] bool has_best() const {
    return best_cost_ != kUnset;
  }

  [[nodiscard]] EstimateResult result() const {
    return {best_mv_, best_sad_, positions_, false, sad_evaluations_, {}};
  }

  [[nodiscard]] const BlockContext& ctx() const { return *ctx_; }

 private:
  static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

  [[nodiscard]] bool is_better(std::uint64_t cost, Mv cand) const {
    if (cost != best_cost_) {
      return cost < best_cost_;
    }
    // Deterministic tie-breaks keep results independent of scan order:
    // prefer the shorter vector, then the earlier raster position.
    if (cand.linf() != best_mv_.linf()) {
      return cand.linf() < best_mv_.linf();
    }
    if (cand.y != best_mv_.y) {
      return cand.y < best_mv_.y;
    }
    return cand.x < best_mv_.x;
  }

  /// Returns false if `cand` was already visited; otherwise records it.
  bool mark_visited(Mv cand) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cand.x))
         << 32) |
        static_cast<std::uint32_t>(cand.y);
    if (std::find(visited_.begin(), visited_.end(), key) != visited_.end()) {
      return false;
    }
    visited_.push_back(key);
    return true;
  }

  const BlockContext* ctx_;
  bool track_visited_;
  Mv best_mv_{};
  std::uint32_t best_sad_ = 0;
  std::uint64_t best_cost_ = kUnset;
  std::uint32_t positions_ = 0;
  std::uint32_t sad_evaluations_ = 0;
  std::uint64_t sad_sum_ = 0;
  std::vector<std::uint64_t> visited_;  // small; linear scan beats hashing
};

}  // namespace acbm::me
